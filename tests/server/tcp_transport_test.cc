#include "server/tcp_transport.h"

#include <unistd.h>

#include <chrono>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "server/binary_codec.h"
#include "server/consensus_server.h"
#include "server/protocol.h"
#include "server/tcp_client.h"
#include "util/json.h"
#include "util/string_utils.h"

namespace cpa {
namespace {

using server::BinaryResponse;
using server::Frame;
using server::FrameKind;
using server::TcpFrameClient;

/// A transport bound to an ephemeral port for one test.
struct TestServer {
  explicit TestServer(std::size_t num_threads = 1,
                      std::size_t max_frame_bytes = server::kDefaultMaxFrameBytes,
                      std::size_t max_connections = 1024) {
    ConsensusServerOptions options;
    options.sessions.num_threads = num_threads;
    consensus = std::make_unique<ConsensusServer>(options);
    TcpTransportOptions tcp_options;
    tcp_options.max_frame_bytes = max_frame_bytes;
    tcp_options.max_connections = max_connections;
    transport = std::make_unique<TcpTransport>(*consensus, tcp_options);
    const Status started = transport->Start();
    EXPECT_TRUE(started.ok()) << started.ToString();
  }

  TcpFrameClient Connect() {
    auto client = TcpFrameClient::Connect("127.0.0.1", transport->port());
    EXPECT_TRUE(client.ok()) << client.status().ToString();
    return std::move(client).value();
  }

  std::unique_ptr<ConsensusServer> consensus;
  std::unique_ptr<TcpTransport> transport;
};

std::string OpenRequestLine(const std::string& session,
                            std::size_t num_items = 4) {
  return StrFormat(
      R"({"op":"open","session":"%s","config":{"method":"MV",)"
      R"("num_items":%zu,"num_workers":16,"num_labels":4}})",
      session.c_str(), num_items);
}

/// Parses a JSON frame and checks `"ok"`.
JsonValue MustParseJson(const Frame& frame, bool expect_ok) {
  EXPECT_EQ(frame.kind, FrameKind::kJson);
  auto parsed = JsonValue::Parse(frame.payload);
  EXPECT_TRUE(parsed.ok()) << frame.payload;
  const JsonValue* ok = parsed.value().Find("ok");
  EXPECT_NE(ok, nullptr) << frame.payload;
  if (ok != nullptr) {
    EXPECT_EQ(ok->bool_value(), expect_ok) << frame.payload;
  }
  return parsed.value();
}

/// Decodes a binary frame's response body.
BinaryResponse MustParseBinary(const Frame& frame) {
  EXPECT_EQ(frame.kind, FrameKind::kBinary);
  auto decoded = server::DecodeBinaryResponse(frame.payload);
  EXPECT_TRUE(decoded.ok()) << decoded.status().ToString();
  return decoded.ok() ? decoded.value() : BinaryResponse{};
}

Result<Frame> MustRoundtrip(TcpFrameClient& client, FrameKind kind,
                            std::string_view payload) {
  auto reply = client.Roundtrip(kind, payload);
  EXPECT_TRUE(reply.ok()) << reply.status().ToString();
  return reply;
}

const std::vector<Answer> kAnswers = {{0, 0, LabelSet{1}},
                                      {0, 1, LabelSet{1, 2}},
                                      {1, 2, LabelSet{3}},
                                      {2, 3, LabelSet{0}}};

TEST(TcpTransportTest, JsonLifecycleOverRealSocket) {
  TestServer server;
  TcpFrameClient client = server.Connect();

  MustParseJson(
      MustRoundtrip(client, FrameKind::kJson, OpenRequestLine("tcp1")).value(),
      true);
  const JsonValue ack = MustParseJson(
      MustRoundtrip(client, FrameKind::kJson,
                    server::MakeObserveRequest("tcp1", kAnswers))
          .value(),
      true);
  EXPECT_EQ(ack.Find("answers_seen")->number_value(), 4.0);

  const JsonValue snapshot = MustParseJson(
      MustRoundtrip(client, FrameKind::kJson,
                    R"({"op":"snapshot","session":"tcp1"})")
          .value(),
      true);
  ASSERT_NE(snapshot.Find("predictions"), nullptr);
  EXPECT_EQ(snapshot.Find("predictions")->array().size(), 4u);

  MustParseJson(MustRoundtrip(client, FrameKind::kJson,
                              R"({"op":"finalize","session":"tcp1"})")
                    .value(),
                true);
  MustParseJson(MustRoundtrip(client, FrameKind::kJson,
                              R"({"op":"close","session":"tcp1"})")
                    .value(),
                true);
  EXPECT_EQ(server.consensus->sessions().num_sessions(), 0u);
  client.Close();
}

TEST(TcpTransportTest, BinaryAndJsonTransportsProduceIdenticalSnapshots) {
  TestServer server;
  TcpFrameClient json_client = server.Connect();
  TcpFrameClient binary_client = server.Connect();

  // Two sessions, same config, same stream — one driven per transport
  // (open is JSON on both connections; the hot ops differ).
  MustParseJson(
      MustRoundtrip(json_client, FrameKind::kJson, OpenRequestLine("via-json"))
          .value(),
      true);
  MustParseJson(MustRoundtrip(binary_client, FrameKind::kJson,
                              OpenRequestLine("via-binary"))
                    .value(),
      true);

  const JsonValue json_ack = MustParseJson(
      MustRoundtrip(json_client, FrameKind::kJson,
                    server::MakeObserveRequest("via-json", kAnswers))
          .value(),
      true);
  const BinaryResponse binary_ack = MustParseBinary(
      MustRoundtrip(binary_client, FrameKind::kBinary,
                    server::EncodeObserveRequest("via-binary", kAnswers))
          .value());
  EXPECT_EQ(json_ack.Find("answers_seen")->number_value(),
            static_cast<double>(binary_ack.ack.answers_seen));

  const JsonValue json_snapshot = MustParseJson(
      MustRoundtrip(json_client, FrameKind::kJson,
                    R"({"op":"finalize","session":"via-json"})")
          .value(),
      true);
  const BinaryResponse binary_snapshot = MustParseBinary(
      MustRoundtrip(binary_client, FrameKind::kBinary,
                    server::EncodeFinalizeRequest("via-binary", true))
          .value());

  // The acceptance bar: identical predictions for the same request stream.
  const auto& json_rows = json_snapshot.Find("predictions")->array();
  ASSERT_EQ(json_rows.size(), binary_snapshot.predictions.size());
  for (std::size_t i = 0; i < json_rows.size(); ++i) {
    const LabelSet& binary_labels = binary_snapshot.predictions[i];
    ASSERT_EQ(json_rows[i].array().size(), binary_labels.size()) << "item " << i;
    std::size_t j = 0;
    for (LabelId label : binary_labels) {
      EXPECT_EQ(json_rows[i].array()[j++].number_value(),
                static_cast<double>(label))
          << "item " << i;
    }
  }
  EXPECT_EQ(json_snapshot.Find("method")->string_value(), binary_snapshot.method);
  EXPECT_TRUE(binary_snapshot.finalized);
}

TEST(TcpTransportTest, PipelinedBatchGetsOrderedReplies) {
  TestServer server;
  TcpFrameClient client = server.Connect();

  // One write carries the whole session: open + observe + 8 polls +
  // finalize. Replies must come back one per request, in order.
  std::string batch;
  server::AppendFrame(batch, FrameKind::kJson, OpenRequestLine("pipe"));
  server::AppendFrame(batch, FrameKind::kBinary,
                      server::EncodeObserveRequest("pipe", kAnswers));
  for (int i = 0; i < 8; ++i) {
    server::AppendFrame(batch, FrameKind::kBinary,
                        server::EncodeSnapshotRequest("pipe", /*refresh=*/i == 0,
                                                      /*include_predictions=*/false));
  }
  server::AppendFrame(batch, FrameKind::kBinary,
                      server::EncodeFinalizeRequest("pipe", true));
  ASSERT_TRUE(client.SendRaw(batch).ok());

  MustParseJson(client.ReadFrame().value(), true);  // open
  const BinaryResponse ack = MustParseBinary(client.ReadFrame().value());
  EXPECT_EQ(ack.ack.answers_seen, 4u);
  for (int i = 0; i < 8; ++i) {
    const BinaryResponse poll = MustParseBinary(client.ReadFrame().value());
    EXPECT_TRUE(poll.ok);
    EXPECT_FALSE(poll.has_predictions);
    EXPECT_EQ(poll.answers_seen, 4u);
  }
  const BinaryResponse final_snapshot = MustParseBinary(client.ReadFrame().value());
  EXPECT_TRUE(final_snapshot.finalized);
}

TEST(TcpTransportTest, SequencedFramesEchoTagsInRequestOrder) {
  TestServer server;
  TcpFrameClient client = server.Connect();
  auto negotiated = client.NegotiateSequencing();
  ASSERT_TRUE(negotiated.ok()) << negotiated.status().ToString();
  EXPECT_TRUE(negotiated.value());

  // Legacy traffic on the same connection stays untagged.
  const Frame legacy =
      MustRoundtrip(client, FrameKind::kJson, OpenRequestLine("seq")).value();
  MustParseJson(legacy, true);
  EXPECT_FALSE(legacy.sequenced);
  EXPECT_EQ(legacy.sequence, 0);

  // A tagged burst mixing encodings and ops, with ids deliberately out of
  // numeric order: the replies carry each request's own tag, in request
  // order.
  const std::vector<std::uint16_t> tags = {40, 7, 65535, 8, 1};
  std::string burst;
  server::AppendSequencedFrame(burst, FrameKind::kBinary,
                               server::EncodeObserveRequest("seq", kAnswers),
                               tags[0]);
  server::AppendSequencedFrame(
      burst, FrameKind::kBinary,
      server::EncodeSnapshotRequest("seq", /*refresh=*/true,
                                    /*include_predictions=*/true),
      tags[1]);
  server::AppendSequencedFrame(
      burst, FrameKind::kJson,
      R"({"op":"snapshot","session":"seq","refresh":false})", tags[2]);
  server::AppendSequencedFrame(
      burst, FrameKind::kBinary,
      server::EncodeSnapshotRequest("seq", /*refresh=*/false,
                                    /*include_predictions=*/false),
      tags[3]);
  server::AppendSequencedFrame(burst, FrameKind::kBinary,
                               server::EncodeFinalizeRequest("seq", true),
                               tags[4]);
  ASSERT_TRUE(client.SendRaw(burst).ok());

  for (std::size_t k = 0; k < tags.size(); ++k) {
    auto read = client.ReadFrame();
    ASSERT_TRUE(read.ok()) << read.status().ToString();
    EXPECT_TRUE(read.value().sequenced) << "reply " << k;
    EXPECT_EQ(read.value().sequence, tags[k]) << "reply " << k;
    if (read.value().kind == FrameKind::kJson) {
      MustParseJson(read.value(), true);
    } else {
      EXPECT_TRUE(MustParseBinary(read.value()).ok) << "reply " << k;
    }
  }
}

TEST(TcpTransportTest, SequencedFramingErrorRepliesWithTag) {
  TestServer server(/*num_threads=*/1, /*max_frame_bytes=*/256);
  TcpFrameClient client = server.Connect();

  std::string burst;
  server::AppendSequencedFrame(burst, FrameKind::kJson,
                               std::string(4096, ' '), 7);
  ASSERT_TRUE(client.SendRaw(burst).ok());
  auto reply = client.ReadFrame();
  ASSERT_TRUE(reply.ok()) << reply.status().ToString();
  EXPECT_TRUE(reply.value().sequenced);
  EXPECT_EQ(reply.value().sequence, 7);
  MustParseJson(reply.value(), false);

  // The connection survives the rejection.
  MustParseJson(
      MustRoundtrip(client, FrameKind::kJson, OpenRequestLine("alive")).value(),
      true);
}

TEST(TcpTransportTest, DroppedClientLeavesSessionForReconnect) {
  TestServer server;
  {
    TcpFrameClient client = server.Connect();
    MustParseJson(
        MustRoundtrip(client, FrameKind::kJson, OpenRequestLine("drop"))
            .value(),
        true);
    // A full burst, then vanish without reading a byte.
    std::string burst;
    std::uint16_t seq = 1;
    server::AppendSequencedFrame(
        burst, FrameKind::kBinary,
        server::EncodeObserveRequest("drop", kAnswers), seq++);
    for (int k = 0; k < 8; ++k) {
      server::AppendSequencedFrame(
          burst, FrameKind::kBinary,
          server::EncodeSnapshotRequest("drop", /*refresh=*/k == 0,
                                        /*include_predictions=*/true),
          seq++);
    }
    ASSERT_TRUE(client.SendRaw(burst).ok());
    client.Close();
  }

  // The handler thread finishes the burst and exits; the session — and
  // the transport — survive.
  for (int i = 0; i < 500 && server.transport->num_connections() > 0; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_EQ(server.transport->num_connections(), 0u);
  EXPECT_EQ(server.consensus->sessions().num_sessions(), 1u);

  // A new connection picks the session up where the burst left it.
  TcpFrameClient client = server.Connect();
  const BinaryResponse finalized = MustParseBinary(
      MustRoundtrip(client, FrameKind::kBinary,
                    server::EncodeFinalizeRequest("drop", true))
          .value());
  EXPECT_TRUE(finalized.finalized);
  EXPECT_EQ(finalized.answers_seen, kAnswers.size());
  MustParseJson(MustRoundtrip(client, FrameKind::kJson,
                              R"({"op":"close","session":"drop"})")
                    .value(),
                true);
}

TEST(TcpTransportTest, TinySendBufferDeliversOversizedReplyBatchIntact) {
  // A 4 KiB send buffer and 4000-row prediction payloads: one batch of
  // replies is several times the buffer, so the server's send waits on
  // the client draining it mid-batch. Every reply must still arrive whole,
  // and the server must count exactly the bytes the client received.
  ConsensusServer consensus;
  TcpTransportOptions tcp_options;
  tcp_options.so_sndbuf = 4096;
  TcpTransport transport(consensus, tcp_options);
  ASSERT_TRUE(transport.Start().ok());
  auto connected = TcpFrameClient::Connect("127.0.0.1", transport.port());
  ASSERT_TRUE(connected.ok()) << connected.status().ToString();
  TcpFrameClient client = std::move(connected).value();

  std::size_t received = 0;
  const auto counted = [&received](Result<Frame> reply) {
    EXPECT_TRUE(reply.ok()) << reply.status().ToString();
    received += server::kFrameHeaderBytes + reply.value().payload.size();
    return std::move(reply).value();
  };
  MustParseJson(counted(client.Roundtrip(
                    FrameKind::kJson,
                    OpenRequestLine("fat", /*num_items=*/4000))),
                true);
  MustParseBinary(counted(client.Roundtrip(
      FrameKind::kBinary, server::EncodeObserveRequest("fat", kAnswers))));
  // Refresh once so cached polls carry all 4000 prediction rows.
  MustParseBinary(counted(client.Roundtrip(
      FrameKind::kBinary,
      server::EncodeSnapshotRequest("fat", /*refresh=*/true,
                                    /*include_predictions=*/true))));

  constexpr std::size_t kPolls = 8;
  std::string burst;
  for (std::size_t k = 0; k < kPolls; ++k) {
    server::AppendFrame(burst, FrameKind::kBinary,
                        server::EncodeSnapshotRequest(
                            "fat", /*refresh=*/false,
                            /*include_predictions=*/true));
  }
  ASSERT_TRUE(client.SendRaw(burst).ok());
  const std::size_t before_polls = received;
  for (std::size_t k = 0; k < kPolls; ++k) {
    const BinaryResponse poll = MustParseBinary(counted(client.ReadFrame()));
    EXPECT_TRUE(poll.ok);
    EXPECT_EQ(poll.predictions.size(), 4000u);
  }
  // Linux doubles SO_SNDBUF; the poll replies must outgrow even that.
  EXPECT_GT(received - before_polls, 4u * 2u * 4096u);

  client.Close();
  transport.Shutdown();
  const TcpTransportStats stats = transport.stats();
  EXPECT_EQ(stats.framing_errors, 0u);
  EXPECT_EQ(stats.frames_out, 3u + kPolls);
  EXPECT_EQ(stats.bytes_out, received);
  // No partial_writes assertion: a blocking send(2) waits for buffer
  // space rather than returning short, so the full buffer shows up as a
  // blocked send, not as a partial write.
}

TEST(TcpTransportTest, MalformedPayloadGetsErrorReplyAndConnectionSurvives) {
  TestServer server;
  TcpFrameClient client = server.Connect();

  // Broken JSON payload in a well-formed frame.
  const JsonValue error = MustParseJson(
      MustRoundtrip(client, FrameKind::kJson, "this is not json").value(), false);
  EXPECT_EQ(error.Find("code")->string_value(), "InvalidArgument");

  // Garbage binary payload in a well-formed frame.
  const BinaryResponse binary_error = MustParseBinary(
      MustRoundtrip(client, FrameKind::kBinary, "\xee\xee\xee").value());
  EXPECT_FALSE(binary_error.ok);
  EXPECT_EQ(binary_error.error.code(), StatusCode::kInvalidArgument);

  // Unknown frame kind: recoverable framing error, reply falls back to JSON.
  std::string bad_kind = server::EncodeFrame({FrameKind::kJson, "{}"});
  bad_kind[4] = '\x07';
  ASSERT_TRUE(client.SendRaw(bad_kind).ok());
  MustParseJson(client.ReadFrame().value(), false);

  // The connection still works.
  MustParseJson(
      MustRoundtrip(client, FrameKind::kJson, OpenRequestLine("still-alive"))
          .value(),
      true);
}

TEST(TcpTransportTest, OversizedFrameGetsErrorReplyAndConnectionSurvives) {
  TestServer server(/*num_threads=*/1, /*max_frame_bytes=*/256);
  TcpFrameClient client = server.Connect();

  const Frame reply =
      MustRoundtrip(client, FrameKind::kJson, std::string(4096, ' ')).value();
  const JsonValue error = MustParseJson(reply, false);
  EXPECT_EQ(error.Find("code")->string_value(), "InvalidArgument");

  MustParseJson(
      MustRoundtrip(client, FrameKind::kJson, OpenRequestLine("after-big"))
          .value(),
      true);
}

TEST(TcpTransportTest, ManyConcurrentClientsShareOneServer) {
  // The TSan centerpiece: concurrent connections, mixed transports, all
  // sessions' sweeps on one shared 2-thread pool.
  TestServer server(/*num_threads=*/2);
  constexpr std::size_t kClients = 8;
  constexpr std::size_t kBatches = 3;

  std::vector<std::thread> threads;
  threads.reserve(kClients);
  for (std::size_t c = 0; c < kClients; ++c) {
    threads.emplace_back([&server, c] {
      const bool binary = c % 2 == 0;
      const std::string session = StrFormat("conc-%zu", c);
      TcpFrameClient client = server.Connect();
      MustParseJson(
          MustRoundtrip(client, FrameKind::kJson, OpenRequestLine(session))
              .value(),
          true);
      for (std::size_t b = 0; b < kBatches; ++b) {
        // Distinct (worker, item) per batch so observes never collide.
        const std::vector<Answer> answers = {
            {static_cast<ItemId>(b), static_cast<WorkerId>(2 * c),
             LabelSet{static_cast<LabelId>(c % 4)}},
            {static_cast<ItemId>(b), static_cast<WorkerId>(2 * c + 1),
             LabelSet{static_cast<LabelId>((c + 1) % 4)}}};
        if (binary) {
          const BinaryResponse ack = MustParseBinary(
              MustRoundtrip(client, FrameKind::kBinary,
                            server::EncodeObserveRequest(session, answers))
                  .value());
          EXPECT_TRUE(ack.ok);
          const BinaryResponse snap = MustParseBinary(
              MustRoundtrip(client, FrameKind::kBinary,
                            server::EncodeSnapshotRequest(session, true, true))
                  .value());
          EXPECT_TRUE(snap.ok);
        } else {
          MustParseJson(
              MustRoundtrip(client, FrameKind::kJson,
                            server::MakeObserveRequest(session, answers))
                  .value(),
              true);
          MustParseJson(
              MustRoundtrip(
                  client, FrameKind::kJson,
                  StrFormat(R"({"op":"snapshot","session":"%s"})",
                            session.c_str()))
                  .value(),
              true);
        }
      }
      MustParseJson(
          MustRoundtrip(
              client, FrameKind::kJson,
              StrFormat(R"({"op":"close","session":"%s"})", session.c_str()))
              .value(),
          true);
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(server.consensus->sessions().num_sessions(), 0u);
  const TcpTransportStats stats = server.transport->stats();
  EXPECT_EQ(stats.connections_accepted, kClients);
  EXPECT_EQ(stats.framing_errors, 0u);
  EXPECT_EQ(stats.frames_in, stats.frames_out);
}

TEST(TcpTransportTest, GracefulShutdownDrainsOpenConnections) {
  TestServer server;
  TcpFrameClient client = server.Connect();
  MustParseJson(
      MustRoundtrip(client, FrameKind::kJson, OpenRequestLine("drain")).value(),
      true);
  EXPECT_EQ(server.transport->num_connections(), 1u);

  server.transport->Shutdown();
  EXPECT_EQ(server.transport->num_connections(), 0u);

  // The socket is gone; the next exchange fails instead of hanging.
  auto reply = client.Roundtrip(FrameKind::kJson, R"({"op":"list"})");
  EXPECT_FALSE(reply.ok());

  // Shutdown is idempotent, and sessions outlive their connections.
  server.transport->Shutdown();
  EXPECT_EQ(server.consensus->sessions().num_sessions(), 1u);
}

TEST(TcpTransportTest, UnixSocketServesSameProtocol) {
  ConsensusServerOptions options;
  ConsensusServer consensus(options);
  TcpTransportOptions tcp_options;
  tcp_options.unix_path =
      StrFormat("/tmp/cpa_unix_test_%d.sock", static_cast<int>(::getpid()));
  TcpTransport transport(consensus, tcp_options);
  const Status started = transport.Start();
  ASSERT_TRUE(started.ok()) << started.ToString();
  EXPECT_EQ(transport.port(), 0);  // no TCP port in unix mode

  auto connected = TcpFrameClient::ConnectUnix(tcp_options.unix_path);
  ASSERT_TRUE(connected.ok()) << connected.status().ToString();
  TcpFrameClient client = std::move(connected).value();

  // The full mixed-encoding lifecycle, identical to the TCP path.
  MustParseJson(
      MustRoundtrip(client, FrameKind::kJson, OpenRequestLine("unix1")).value(),
      true);
  const BinaryResponse ack = MustParseBinary(
      MustRoundtrip(client, FrameKind::kBinary,
                    server::EncodeObserveRequest("unix1", kAnswers))
          .value());
  EXPECT_EQ(ack.ack.answers_seen, 4u);
  const BinaryResponse final_snapshot = MustParseBinary(
      MustRoundtrip(client, FrameKind::kBinary,
                    server::EncodeFinalizeRequest("unix1", true))
          .value());
  EXPECT_TRUE(final_snapshot.finalized);
  EXPECT_EQ(final_snapshot.predictions.size(), 4u);

  client.Close();
  transport.Shutdown();
  // Shutdown unlinks the socket file.
  EXPECT_NE(::access(tcp_options.unix_path.c_str(), F_OK), 0);
}

TEST(TcpTransportTest, UnixSocketRejectsOverlongPath) {
  ConsensusServerOptions options;
  ConsensusServer consensus(options);
  TcpTransportOptions tcp_options;
  tcp_options.unix_path = "/tmp/" + std::string(200, 'x') + ".sock";
  TcpTransport transport(consensus, tcp_options);
  const Status started = transport.Start();
  EXPECT_EQ(started.code(), StatusCode::kInvalidArgument);
}

TEST(TcpTransportTest, ConnectionLimitRejectsExtraClients) {
  TestServer server(/*num_threads=*/1, server::kDefaultMaxFrameBytes,
                    /*max_connections=*/1);
  TcpFrameClient first = server.Connect();
  // Occupy the only slot with a live exchange.
  MustParseJson(
      MustRoundtrip(first, FrameKind::kJson, OpenRequestLine("only")).value(),
      true);

  TcpFrameClient second = server.Connect();
  auto reply = second.ReadFrame();  // server sends the error unprompted
  ASSERT_TRUE(reply.ok()) << reply.status().ToString();
  const JsonValue error = MustParseJson(reply.value(), false);
  EXPECT_EQ(error.Find("code")->string_value(), "FailedPrecondition");
}

}  // namespace
}  // namespace cpa
