#include "server/consensus_server.h"

#include <istream>
#include <ostream>
#include <utility>

#include "engine/engine_registry.h"
#include "server/binary_codec.h"

namespace cpa {

using server::Frame;
using server::FrameKind;
using server::Request;
using server::Response;

ConsensusServer::ConsensusServer(const ConsensusServerOptions& options)
    : options_(options), sessions_(options.sessions) {
  if (options_.idle_timeout_seconds > 0.0) {
    sweeper_ = std::make_unique<IdleSweeper>(sessions_, options_.idle_timeout_seconds);
    sweeper_->Start();
  }
}

Response ConsensusServer::Handle(const Request& request) {
  Response response;
  response.op = request.op;
  response.session = request.session;
  response.include_predictions = request.include_predictions;
  switch (request.op) {
    case Request::Op::kOpen: {
      Result<std::string> id = sessions_.Open(request.config, request.session);
      if (!id.ok()) {
        response.status = id.status();
        return response;
      }
      response.session = id.value();
      response.method = request.config.method;
      return response;
    }
    case Request::Op::kObserve: {
      Result<ObserveAck> ack = sessions_.Observe(request.session, request.answers);
      if (!ack.ok()) {
        response.status = ack.status();
        return response;
      }
      response.ack = ack.value();
      return response;
    }
    case Request::Op::kSnapshot:
    case Request::Op::kFinalize: {
      Result<SharedSnapshot> snapshot =
          request.op == Request::Op::kFinalize
              ? sessions_.Finalize(request.session)
              : sessions_.Snapshot(request.session, request.refresh);
      if (!snapshot.ok()) {
        response.status = snapshot.status();
        return response;
      }
      response.snapshot = std::move(snapshot).value();
      return response;
    }
    case Request::Op::kClose: {
      response.status = sessions_.Close(request.session);
      return response;
    }
    case Request::Op::kList: {
      response.sessions = sessions_.List();
      return response;
    }
    case Request::Op::kMethods: {
      response.methods = EngineRegistry::Global().MethodNames();
      return response;
    }
    case Request::Op::kCheckpoint: {
      Result<std::string> state = sessions_.Checkpoint(request.session);
      if (!state.ok()) {
        response.status = state.status();
        return response;
      }
      response.state = std::move(state).value();
      return response;
    }
    case Request::Op::kRestore: {
      Result<RestoreAck> ack =
          sessions_.Restore(request.state, request.session);
      if (!ack.ok()) {
        response.status = ack.status();
        return response;
      }
      response.session = ack.value().session_id;
      response.ack.batches_seen = ack.value().batches_seen;
      response.ack.answers_seen = ack.value().answers_seen;
      return response;
    }
  }
  response.status = Status::Internal("unhandled op");
  return response;
}

std::string ConsensusServer::HandleLine(std::string_view line) {
  Result<Request> request = server::ParseRequest(line);
  if (!request.ok()) {
    return server::ErrorResponse("", "", request.status());
  }
  return server::EncodeJsonResponse(Handle(request.value()));
}

Frame ConsensusServer::HandleFrame(const Frame& frame) {
  if (frame.kind == FrameKind::kJson) {
    return Frame{FrameKind::kJson, HandleLine(frame.payload)};
  }
  Result<Request> request = server::DecodeBinaryRequest(frame.payload);
  if (!request.ok()) {
    return Frame{FrameKind::kBinary,
                 server::EncodeBinaryError("", "", request.status())};
  }
  return Frame{FrameKind::kBinary,
               server::EncodeBinaryResponse(Handle(request.value()))};
}

void ConsensusServer::Serve(std::istream& in, std::ostream& out) {
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    out << HandleLine(line) << '\n';
    out.flush();
  }
}

}  // namespace cpa
