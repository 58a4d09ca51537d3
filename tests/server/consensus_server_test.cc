#include "server/consensus_server.h"

#include <chrono>
#include <sstream>
#include <thread>

#include <gtest/gtest.h>

#include "server/protocol.h"
#include "util/json.h"

namespace cpa {
namespace {

/// Parses a response line and checks the "ok" flag.
JsonValue MustParse(const std::string& line, bool expect_ok) {
  auto parsed = JsonValue::Parse(line);
  EXPECT_TRUE(parsed.ok()) << line;
  const JsonValue* ok = parsed.value().Find("ok");
  EXPECT_NE(ok, nullptr) << line;
  EXPECT_EQ(ok->bool_value(), expect_ok) << line;
  return parsed.value();
}

double NumberField(const JsonValue& json, const std::string& key) {
  const JsonValue* value = json.Find(key);
  EXPECT_NE(value, nullptr) << key;
  return value == nullptr ? -1.0 : value->number_value();
}

std::string StringField(const JsonValue& json, const std::string& key) {
  const JsonValue* value = json.Find(key);
  EXPECT_NE(value, nullptr) << key;
  return value == nullptr ? "" : value->string_value();
}

constexpr std::string_view kOpenRequest =
    R"({"op":"open","session":"t1","config":{"method":"MV","num_items":3,)"
    R"("num_workers":3,"num_labels":4}})";

TEST(ConsensusServerTest, TranscriptLifecycle) {
  ConsensusServer server;

  const JsonValue open = MustParse(server.HandleLine(kOpenRequest), true);
  EXPECT_EQ(StringField(open, "session"), "t1");
  EXPECT_EQ(StringField(open, "method"), "MV");

  const JsonValue methods = MustParse(server.HandleLine(R"({"op":"methods"})"), true);
  EXPECT_GE(methods.Find("methods")->array().size(), 7u);

  const JsonValue observed = MustParse(
      server.HandleLine(
          R"({"op":"observe","session":"t1","answers":[)"
          R"({"item":0,"worker":0,"labels":[1]},)"
          R"({"item":0,"worker":1,"labels":[1,2]},)"
          R"({"item":1,"worker":2,"labels":[3]}]})"),
      true);
  EXPECT_EQ(NumberField(observed, "answers_seen"), 3.0);
  EXPECT_EQ(NumberField(observed, "batches_seen"), 1.0);
  // The consensus delta rides on every observe ack: no refresh has run
  // yet, so the published (seed) snapshot trails at zero.
  EXPECT_EQ(NumberField(observed, "changed_items"), 0.0);
  EXPECT_EQ(NumberField(observed, "snapshot_answers_seen"), 0.0);
  EXPECT_EQ(NumberField(observed, "snapshot_batches_seen"), 0.0);

  const JsonValue snapshot =
      MustParse(server.HandleLine(R"({"op":"snapshot","session":"t1"})"), true);
  ASSERT_NE(snapshot.Find("predictions"), nullptr);
  const auto& predictions = snapshot.Find("predictions")->array();
  ASSERT_EQ(predictions.size(), 3u);  // one row per item
  ASSERT_EQ(predictions[0].array().size(), 1u);
  EXPECT_EQ(predictions[0].array()[0].number_value(), 1.0);  // majority label
  EXPECT_TRUE(predictions[2].array().empty());               // unanswered item

  // Counter-only poll: no predictions array, no engine refit.
  const JsonValue poll = MustParse(
      server.HandleLine(
          R"({"op":"snapshot","session":"t1","refresh":false,"predictions":false})"),
      true);
  EXPECT_EQ(poll.Find("predictions"), nullptr);

  // After the refresh published a consensus, the next ack's delta reports
  // it: 2 items gained predictions vs the empty seed snapshot.
  const JsonValue observed_again = MustParse(
      server.HandleLine(
          R"({"op":"observe","session":"t1","answers":[)"
          R"({"item":2,"worker":0,"labels":[2]}]})"),
      true);
  EXPECT_EQ(NumberField(observed_again, "changed_items"), 2.0);
  EXPECT_EQ(NumberField(observed_again, "snapshot_answers_seen"), 3.0);
  EXPECT_EQ(NumberField(observed_again, "snapshot_batches_seen"), 1.0);

  const JsonValue list = MustParse(server.HandleLine(R"({"op":"list"})"), true);
  ASSERT_EQ(list.Find("sessions")->array().size(), 1u);
  const JsonValue& row = list.Find("sessions")->array()[0];
  EXPECT_EQ(StringField(row, "session"), "t1");
  EXPECT_EQ(NumberField(row, "answers_seen"), 4.0);

  const JsonValue final_response =
      MustParse(server.HandleLine(R"({"op":"finalize","session":"t1"})"), true);
  EXPECT_TRUE(final_response.Find("finalized")->bool_value());

  MustParse(server.HandleLine(R"({"op":"close","session":"t1"})"), true);
  EXPECT_EQ(server.sessions().num_sessions(), 0u);
}

TEST(ConsensusServerTest, ErrorResponses) {
  ConsensusServer server;

  // Malformed JSON.
  JsonValue error = MustParse(server.HandleLine("not json"), false);
  EXPECT_EQ(StringField(error, "code"), "InvalidArgument");

  // Unknown op.
  error = MustParse(server.HandleLine(R"({"op":"frobnicate"})"), false);
  EXPECT_EQ(StringField(error, "code"), "InvalidArgument");

  // Missing session field.
  error = MustParse(server.HandleLine(R"({"op":"snapshot"})"), false);
  EXPECT_EQ(StringField(error, "code"), "InvalidArgument");

  // Unknown session id.
  error = MustParse(server.HandleLine(R"({"op":"snapshot","session":"ghost"})"),
                    false);
  EXPECT_EQ(StringField(error, "code"), "NotFound");

  // Unknown method at open.
  error = MustParse(
      server.HandleLine(
          R"({"op":"open","config":{"method":"Nope","num_labels":2}})"),
      false);
  EXPECT_EQ(StringField(error, "code"), "NotFound");

  // A label outside the session's universe is rejected, not wrapped into
  // the kernels' C-wide arrays.
  MustParse(server.HandleLine(kOpenRequest), true);
  error = MustParse(
      server.HandleLine(
          R"({"op":"observe","session":"t1","answers":[)"
          R"({"item":0,"worker":0,"labels":[99]}]})"),
      false);
  EXPECT_EQ(StringField(error, "code"), "OutOfRange");

  // Ids beyond 32 bits are rejected, not silently wrapped onto entity 0.
  error = MustParse(
      server.HandleLine(
          R"({"op":"observe","session":"t1","answers":[)"
          R"({"item":4294967296,"worker":0,"labels":[1]}]})"),
      false);
  EXPECT_EQ(StringField(error, "code"), "InvalidArgument");

  // Observe after finalize through the wire.
  MustParse(server.HandleLine(R"({"op":"finalize","session":"t1"})"), true);
  error = MustParse(
      server.HandleLine(
          R"({"op":"observe","session":"t1","answers":[)"
          R"({"item":0,"worker":0,"labels":[1]}]})"),
      false);
  EXPECT_EQ(StringField(error, "code"), "FailedPrecondition");
}

TEST(ConsensusServerTest, ServeHandlesLineDelimitedStreams) {
  ConsensusServer server;
  std::istringstream in(std::string(kOpenRequest) + "\n" +
                        "\n"  // blank lines are ignored
                        R"({"op":"observe","session":"t1","answers":)"
                        R"([{"item":1,"worker":0,"labels":[2]}]})" +
                        "\n" + R"({"op":"finalize","session":"t1"})" + "\n" +
                        R"({"op":"close","session":"t1"})" + "\n");
  std::ostringstream out;
  server.Serve(in, out);

  std::istringstream responses(out.str());
  std::string line;
  std::size_t count = 0;
  while (std::getline(responses, line)) {
    MustParse(line, true);
    ++count;
  }
  EXPECT_EQ(count, 4u);  // one response per non-blank request
}

TEST(ConsensusServerTest, IdleTimeoutExpiresSessionsBetweenRequests) {
  ConsensusServerOptions options;
  options.idle_timeout_seconds = 0.005;
  ConsensusServer server(options);
  MustParse(server.HandleLine(kOpenRequest), true);

  // No further request: the server's sweeper thread alone must reap the
  // idle session (it sweeps every 0.1 s at this timeout).
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (server.sessions().num_sessions() != 0 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_EQ(server.sessions().num_sessions(), 0u);
  EXPECT_EQ(server.sessions_expired(), 1u);
}

TEST(ConsensusServerTest, ObserveRequestBuilderRoundTrips) {
  ConsensusServer server;
  MustParse(server.HandleLine(kOpenRequest), true);
  const std::vector<Answer> answers = {{0, 0, LabelSet{1, 3}},
                                       {2, 1, LabelSet{0}}};
  const JsonValue response =
      MustParse(server.HandleLine(server::MakeObserveRequest("t1", answers)), true);
  EXPECT_EQ(NumberField(response, "answers_seen"), 2.0);
}

}  // namespace
}  // namespace cpa
