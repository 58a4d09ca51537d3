/// The TCP transport in one page: an in-process `ConsensusServer` behind
/// a real `TcpTransport` listener, driven by a `TcpFrameClient` over a
/// loopback socket — the same frames `cpa_server --tcp` speaks. One
/// session runs its lifecycle twice, once in JSON frames and once with
/// the binary codec on the hot ops, and the final predictions must match
/// byte for byte: the encoding is a transport choice, never a result
/// change.
///
///   $ ./tcp_client                           # MV over loopback, both codecs
///   $ ./tcp_client --scale 0.1 --batches 6
///
/// docs/API.md documents the frame header and binary message layouts;
/// tools/tcp_smoke.py is the same exchange spoken from Python.

#include <cstdio>
#include <string>
#include <vector>

#include "server/binary_codec.h"
#include "server/consensus_server.h"
#include "server/protocol.h"
#include "server/tcp_client.h"
#include "server/tcp_transport.h"
#include "simulation/dataset_factory.h"
#include "simulation/perturbations.h"
#include "util/flags.h"
#include "util/logging.h"
#include "util/string_utils.h"

using namespace cpa;

/// Range of the count flags: a negative count would wrap through size_t.
constexpr long long kMaxBatches = 100000;
using server::Frame;
using server::FrameKind;

namespace {

/// Runs open → observe×batches → finalize → close for one session and
/// returns the finalized predictions. `binary` switches the hot ops to
/// the binary codec; open/close are JSON frames either way.
std::vector<LabelSet> RunSession(server::TcpFrameClient& client,
                                 const std::string& session,
                                 const EngineConfig& config,
                                 const Dataset& dataset, const BatchPlan& plan,
                                 bool binary) {
  JsonValue::Object open;
  open["op"] = JsonValue(std::string("open"));
  open["session"] = JsonValue(session);
  open["config"] = config.ToJson();
  auto opened = client.Roundtrip(FrameKind::kJson,
                                 JsonValue(std::move(open)).DumpCompact());
  CPA_CHECK(opened.ok()) << opened.status().ToString();

  const auto all = dataset.answers.answers();
  for (const auto& batch : plan.batches) {
    std::vector<Answer> arriving;
    arriving.reserve(batch.size());
    for (std::size_t index : batch) arriving.push_back(all[index]);
    Result<Frame> ack =
        binary ? client.Roundtrip(FrameKind::kBinary,
                                  server::EncodeObserveRequest(session, arriving))
               : client.Roundtrip(FrameKind::kJson,
                                  server::MakeObserveRequest(session, arriving));
    CPA_CHECK(ack.ok()) << ack.status().ToString();
  }

  std::vector<LabelSet> predictions;
  if (binary) {
    auto final_frame = client.Roundtrip(
        FrameKind::kBinary, server::EncodeFinalizeRequest(session, true));
    CPA_CHECK(final_frame.ok()) << final_frame.status().ToString();
    auto decoded = server::DecodeBinaryResponse(final_frame.value().payload);
    CPA_CHECK(decoded.ok()) << decoded.status().ToString();
    CPA_CHECK(decoded.value().ok) << decoded.value().error.ToString();
    predictions = std::move(decoded.value().predictions);
  } else {
    auto final_frame = client.Roundtrip(
        FrameKind::kJson,
        StrFormat("{\"op\":\"finalize\",\"session\":\"%s\"}", session.c_str()));
    CPA_CHECK(final_frame.ok()) << final_frame.status().ToString();
    auto parsed = JsonValue::Parse(final_frame.value().payload);
    CPA_CHECK(parsed.ok());
    for (const JsonValue& row : parsed.value().Find("predictions")->array()) {
      std::vector<LabelId> labels;
      for (const JsonValue& label : row.array()) {
        labels.push_back(static_cast<LabelId>(label.number_value()));
      }
      predictions.push_back(LabelSet::FromUnsorted(std::move(labels)));
    }
  }

  auto closed = client.Roundtrip(
      FrameKind::kJson,
      StrFormat("{\"op\":\"close\",\"session\":\"%s\"}", session.c_str()));
  CPA_CHECK(closed.ok()) << closed.status().ToString();
  return predictions;
}

}  // namespace

int main(int argc, char** argv) {
  const auto flags = Flags::Parse(argc, argv);
  CPA_CHECK(flags.ok()) << flags.status().ToString();
  FactoryOptions factory_options;
  factory_options.scale = flags.value().GetDouble("scale", 0.08);
  const std::size_t batches =
      static_cast<std::size_t>(flags.value().GetIntInRange("batches", 4, 1, kMaxBatches));
  CPA_CHECK_OK(flags.value().CheckAllRead());

  auto dataset = MakePaperDataset(PaperDatasetId::kTopic, factory_options);
  CPA_CHECK(dataset.ok()) << dataset.status().ToString();
  const Dataset& d = dataset.value();
  const EngineConfig config = EngineConfig::ForDataset("MV", d);

  // A real listener on an ephemeral loopback port — exactly what
  // `cpa_server --tcp --port 0` binds, minus the process boundary.
  ConsensusServer consensus_server((ConsensusServerOptions()));
  TcpTransport transport(consensus_server, TcpTransportOptions());
  CPA_CHECK_OK(transport.Start());
  std::printf("listening on 127.0.0.1:%u\n",
              static_cast<unsigned>(transport.port()));

  auto client = server::TcpFrameClient::Connect("127.0.0.1", transport.port());
  CPA_CHECK(client.ok()) << client.status().ToString();

  Rng rng(11);
  const BatchPlan plan = MakeArrivalSchedule(d.answers, batches, rng);
  const auto json_predictions = RunSession(client.value(), "demo-json", config,
                                           d, plan, /*binary=*/false);
  const auto binary_predictions = RunSession(client.value(), "demo-binary",
                                             config, d, plan, /*binary=*/true);

  CPA_CHECK_EQ(json_predictions.size(), binary_predictions.size());
  for (std::size_t i = 0; i < json_predictions.size(); ++i) {
    CPA_CHECK(json_predictions[i] == binary_predictions[i]) << "item " << i;
  }
  const TcpTransportStats stats = transport.stats();
  std::printf(
      "json and binary transports agree on %zu predictions\n"
      "%llu frames in / %llu out, %llu bytes in / %llu out, 0 framing errors\n",
      json_predictions.size(), static_cast<unsigned long long>(stats.frames_in),
      static_cast<unsigned long long>(stats.frames_out),
      static_cast<unsigned long long>(stats.bytes_in),
      static_cast<unsigned long long>(stats.bytes_out));
  client.value().Close();
  transport.Shutdown();
  return 0;
}
