/// Fig 11 (repo extension, no paper counterpart): multi-session server
/// throughput and tail latency over the real socket transport. N
/// concurrent client connections — each its own socket, session, and
/// thread — drive one in-process `TcpTransport` listener through the
/// length-prefixed frame protocol, once in JSON and once in binary
/// framing. Every client opens its session (JSON frame), streams its batches,
/// pulls a refresh snapshot and a cached poll per batch (both with the
/// full prediction payload — serialization of large prediction payloads
/// is the CPU sink this bench exists to watch), finalizes and closes,
/// while all sessions' sweep work shares one `ServerScheduler` pool.
/// Reports answers/s, p50/p95/p99 latency per op per run, and the
/// transport's syscall-visibility counters (frames per recv(2) call,
/// partial writes) into `BENCH_fig11_server_throughput.json`, asserting
/// every run produced identical final predictions for every session.
///
///   $ fig11_server_throughput                  # 100 conns, json + binary
///   $ fig11_server_throughput --connections 200 --num-threads 4 --method MV
///   $ fig11_server_throughput --workers 4      # plus a 4-worker router run
///   $ fig11_server_throughput --adversarial colluding-cliques
///
/// `--method MV` (or any offline method) makes every refresh snapshot a
/// refit on the data so far — the worst-case polling load; the default
/// CPA-SVI pays one incremental step per batch.
///
/// `--adversarial <scenario>` swaps the benign replayed stream for a
/// named cell of the standard adversarial scenario matrix
/// (src/simulation/adversary.h): every client replays the generated
/// hostile stream — colluding cliques, sleeper ramps, bursty arrivals —
/// so the serving layer is measured under the load shape the robustness
/// suite studies, not just a friendly shuffle.
///
/// With `--workers N` (default 2, `--workers 0` disables) the bench also
/// measures the sharded deployment: N real `fork()`ed worker processes,
/// each a full server + TCP listener, behind an in-process `Router` and a
/// front listener — the `cpa_server --router` topology, clients untouched.
/// The fleet, the client loop and the report rows are `bench/load_driver`'s
/// (its header states the fork rule). Those runs report under
/// `w<N>_<transport>_*` keys; the single-process runs report under
/// `json_*` / `binary_*`.

#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "bench/load_driver.h"
#include "server/consensus_server.h"
#include "server/router.h"
#include "simulation/adversary.h"
#include "simulation/perturbations.h"
#include "util/string_utils.h"

using namespace cpa;

namespace {

/// Ranges of the count flags.
constexpr long long kMaxConnections = 1024;
constexpr long long kMaxThreads = 1024;
constexpr long long kMaxBatches = 100000;
constexpr long long kMaxWorkers = 64;

using bench::Percentile;
using bench::ReplayResult;

/// Replays `plans` through a front listener over an in-process server
/// (`workers == 0`) or a router across `workers` forked worker processes,
/// in the given encoding.
ReplayResult RunTransport(bool binary, std::size_t num_threads,
                          std::size_t workers, const EngineConfig& engine_config,
                          const Dataset& dataset,
                          const std::vector<BatchPlan>& plans) {
  const std::size_t connections = plans.size();
  ConsensusServerOptions server_options;
  server_options.sessions.num_threads = num_threads;
  server_options.sessions.max_sessions = connections + 1;
  if (workers == 0) {
    ConsensusServer server(server_options);
    ReplayResult result = bench::ReplaySessions(server, engine_config, dataset,
                                                plans, binary);
    CPA_CHECK_EQ(server.sessions().num_sessions(), 0u);
    return result;
  }

  // Fork the fleet before the router/transport/client threads exist.
  TcpTransportOptions worker_tcp;
  worker_tcp.max_connections = connections + 8;
  std::vector<bench::FleetWorker> fleet;
  RouterOptions router_options;
  for (std::size_t w = 0; w < workers; ++w) {
    fleet.push_back(bench::ForkFleetWorker(server_options, worker_tcp, fleet));
    router_options.workers.push_back(StrFormat("127.0.0.1:%u", fleet.back().port));
  }
  Router router(router_options);
  CPA_CHECK_OK(router.Start());
  ReplayResult result =
      bench::ReplaySessions(router, engine_config, dataset, plans, binary);
  CPA_CHECK_EQ(router.frames_forwarded(),
               result.observe_ms.size() + result.snapshot_ms.size() +
                   result.poll_ms.size() + 3 * connections);
  router.Shutdown();
  for (bench::FleetWorker& worker : fleet) bench::StopFleetWorker(worker);
  return result;
}

void PrintOpRow(const char* op, const std::vector<double>& ms) {
  std::printf("%-24s %10.3f %10.3f %10.3f\n", op, Percentile(ms, 0.5),
              Percentile(ms, 0.95), Percentile(ms, 0.99));
}

}  // namespace

int main(int argc, char** argv) {
  const Flags flags = bench::ParseBenchFlags(argc, argv);
  bench::BenchConfig config = bench::ParseBenchConfig(flags, 0.08);
  // `--quick` shrinks the run to a CI smoke (the sanitizer jobs drive the
  // whole socket/frame/codec path through it on every change). The counts
  // are range-checked, so a negative one cannot wrap through the casts.
  const bool quick = flags.GetBool("quick", false);
  std::size_t connections = static_cast<std::size_t>(
      flags.GetIntInRange("connections", 100, 1, kMaxConnections));
  const std::size_t num_threads =
      static_cast<std::size_t>(flags.GetIntInRange("num-threads", 2, 1, kMaxThreads));
  std::size_t batches =
      static_cast<std::size_t>(flags.GetIntInRange("batches", 5, 1, kMaxBatches));
  const std::size_t workers =
      static_cast<std::size_t>(flags.GetIntInRange("workers", 2, 0, kMaxWorkers));
  const std::string method = flags.GetString("method", "CPA-SVI");
  const std::string adversarial = flags.GetString("adversarial", "");
  bench::CheckBenchFlags(flags);
  if (quick) {
    connections = std::min<std::size_t>(connections, 4);
    batches = std::min<std::size_t>(batches, 2);
    config.scale = std::min(config.scale, 0.05);
    config.cpa_iterations = std::min<std::size_t>(config.cpa_iterations, 4);
  }

  // The stream every client replays: the paper dataset under
  // session-specific shuffles (default), or one named cell of the
  // adversarial scenario matrix (`--adversarial`), where every client
  // replays the same hostile arrival plan.
  Dataset dataset;
  std::vector<BatchPlan> plans;
  std::string load_label = "replayed paper stream";
  if (!adversarial.empty()) {
    const std::vector<AdversarialScenario> matrix =
        StandardScenarioMatrix(config.seed, quick ? 0.25 : 1.0);
    const AdversarialScenario* scenario = nullptr;
    for (const AdversarialScenario& cell : matrix) {
      if (cell.name == adversarial) scenario = &cell;
    }
    if (scenario == nullptr) {
      std::fprintf(stderr, "unknown --adversarial scenario '%s'; one of:\n",
                   adversarial.c_str());
      for (const AdversarialScenario& cell : matrix) {
        std::fprintf(stderr, "  %s — %s\n", cell.name.c_str(),
                     cell.description.c_str());
      }
      return 1;
    }
    auto stream = GenerateAdversarialStream(scenario->config);
    CPA_CHECK_OK(stream.status());
    dataset = std::move(stream.value().dataset);
    plans.assign(connections, stream.value().plan);
    batches = plans[0].batches.size();
    load_label = StrFormat("adversarial '%s' stream (%.0f%% hostile)",
                           adversarial.c_str(),
                           100.0 * stream.value().AdversarialShare());
  } else {
    dataset = bench::LoadPaperDataset(PaperDatasetId::kTopic, config);
    plans.reserve(connections);
    for (std::size_t s = 0; s < connections; ++s) {
      Rng rng(config.seed + s);
      plans.push_back(MakeArrivalSchedule(dataset.answers, batches, rng));
    }
  }

  bench::PrintHeader(
      "Fig 11 (extension) — TCP server throughput and tail latency",
      StrFormat("%zu concurrent %s streams per run (json, binary) over "
                "framed TCP, %s, sweeps on one shared %zu-thread pool%s",
                connections, method.c_str(), load_label.c_str(), num_threads,
                workers > 0
                    ? StrFormat(", plus a router over %zu forked workers",
                                workers)
                          .c_str()
                    : ""),
      config);

  EngineConfig engine_config = EngineConfig::ForDataset(method, dataset);
  engine_config.cpa.max_iterations = config.cpa_iterations;

  // The encoding axis, single-process (worker count 0) and, unless
  // `--workers 0`, behind a router over the forked fleet.
  struct Run {
    std::string label;   ///< report key prefix
    std::size_t workers;
    bool binary;
    ReplayResult result;
  };
  std::vector<Run> runs;
  runs.push_back({"json", 0, false, {}});
  runs.push_back({"binary", 0, true, {}});
  if (workers > 0) {
    runs.push_back({StrFormat("w%zu_json", workers), workers, false, {}});
    runs.push_back({StrFormat("w%zu_binary", workers), workers, true, {}});
  }
  for (Run& run : runs) {
    run.result = RunTransport(run.binary, num_threads, run.workers,
                              engine_config, dataset, plans);
  }

  // Neither the transport encoding nor the deployment shape may change
  // the consensus: same stream → same predictions.
  for (std::size_t r = 1; r < runs.size(); ++r) {
    CPA_CHECK_EQ(runs[0].result.final_predictions.size(),
                 runs[r].result.final_predictions.size());
    for (std::size_t s = 0; s < runs[0].result.final_predictions.size(); ++s) {
      CPA_CHECK(runs[0].result.final_predictions[s] ==
                runs[r].result.final_predictions[s])
          << "session " << s << ": runs json and " << runs[r].label
          << " disagree";
    }
  }

  const auto rate = [](const ReplayResult& result) {
    return static_cast<double>(result.answers) / result.wall_s;
  };
  for (const Run& run : runs) {
    std::printf("\n-- %s: %zu connections, %zu answers, %.2fs --\n",
                run.label.c_str(), connections, run.result.answers,
                run.result.wall_s);
    std::printf("%-24s %10s %10s %10s\n", "op (ms)", "p50", "p95", "p99");
    PrintOpRow("observe", run.result.observe_ms);
    PrintOpRow("snapshot (refresh)", run.result.snapshot_ms);
    PrintOpRow("poll (cached)", run.result.poll_ms);
    std::printf("%-24s %10.0f\n", "answers/s", rate(run.result));
    const TcpTransportStats& ts = run.result.stats;
    std::printf("%-24s %10.1f %10llu\n", "frames/recv, partial",
                ts.recv_calls > 0 ? static_cast<double>(ts.frames_in) /
                                        static_cast<double>(ts.recv_calls)
                                  : 0.0,
                static_cast<unsigned long long>(ts.partial_writes));
  }
  std::printf("\nbinary vs json answers/s: %.2fx\n",
              rate(runs[1].result) / rate(runs[0].result));
  if (workers > 0) {
    std::printf("router (%zu workers) vs single binary answers/s: %.2fx\n",
                workers, rate(runs[3].result) / rate(runs[1].result));
  }

  bench::BenchReport report("fig11_server_throughput", config);
  report.Add("connections", static_cast<double>(connections), "count");
  report.Add("shared_pool_threads", static_cast<double>(num_threads), "count");
  report.Add("batches_per_session", static_cast<double>(batches), "count");
  report.Add("router_workers", static_cast<double>(workers), "count");
  report.Add("adversarial", adversarial.empty() ? 0.0 : 1.0, "bool");
  report.Add("answers_per_transport",
             static_cast<double>(runs[0].result.answers), "count");
  for (const Run& run : runs) bench::AddReplayRows(report, run.label, run.result);
  report.Add("binary_speedup_answers_per_s",
             rate(runs[1].result) / rate(runs[0].result), "x");
  if (workers > 0) {
    report.Add("router_binary_speedup_answers_per_s",
               rate(runs[3].result) / rate(runs[1].result), "x");
  }
  CPA_CHECK_OK(report.Write());
  return 0;
}
