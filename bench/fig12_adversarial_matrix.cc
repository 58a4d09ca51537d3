/// Fig 12 (repo extension, no paper counterpart): the adversarial scenario
/// matrix. Every scenario of `StandardScenarioMatrix`
/// (simulation/adversary.h) — spammer floods, colluding cliques, sleeper
/// drift, heavy-tail difficulty, bursty arrival, plus a clean baseline and
/// a degenerate spam-majority stress — is replayed through every method of
/// `EngineRegistry::Global()` as a batched stream. Per cell the bench
/// records final accuracy, the batch at which predictions stopped moving,
/// and per-batch Observe/Snapshot latency percentiles; per batch it also
/// asserts the robustness invariants (finite scores, exact counters) so
/// a regression fails the run rather than skewing the numbers.
///
/// A second axis replays the nastiest scenario (lowest CPA F1 among the
/// non-degenerate cells) through a live TCP server with fig11's load
/// driver (bench/load_driver.h): N concurrent binary-protocol connections
/// each stream the full adversarial plan, and the `replay_*` rows carry
/// the tail latency of the wire under hostile input, comparable against
/// BENCH_fig11_server_throughput.json. Every replayed session must
/// finalize to the same predictions.
///
///   $ fig12_adversarial_matrix                   # full matrix + replay
///   $ fig12_adversarial_matrix --quick           # CI smoke
///   $ fig12_adversarial_matrix --replay-only     # wire axis only (TSan job)
///   $ fig12_adversarial_matrix --connections 16  # heavier replay load

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_util.h"
#include "bench/load_driver.h"
#include "engine/engine_registry.h"
#include "eval/metrics.h"
#include "server/consensus_server.h"
#include "simulation/adversary.h"
#include "util/stopwatch.h"
#include "util/string_utils.h"

using namespace cpa;

namespace {

/// Range of `--connections`.
constexpr long long kMaxConnections = 1024;

using bench::Percentile;

/// One (scenario, method) cell of the matrix.
struct CellResult {
  std::string scenario;
  std::string method;
  SetMetrics metrics;
  std::size_t convergence_batch = 0;  ///< last batch that moved predictions
  std::size_t answers = 0;
  double wall_s = 0.0;
  std::vector<double> observe_ms;
  std::vector<double> snapshot_ms;
};

/// The robustness invariant every snapshot keeps: every score finite.
void CheckFinite(const ConsensusSnapshot& snapshot, const char* where) {
  for (std::size_t r = 0; r < snapshot.label_scores.rows(); ++r) {
    for (double score : snapshot.label_scores.Row(r)) {
      CPA_CHECK(std::isfinite(score))
          << where << ": non-finite score in row " << r;
    }
  }
  CPA_CHECK(std::isfinite(snapshot.learning_rate)) << where;
}

/// Streams one scenario through one engine, timing each op.
CellResult RunCell(const AdversarialScenario& scenario,
                   const AdversarialStream& stream, const std::string& method,
                   std::size_t cpa_iterations) {
  CellResult cell;
  cell.scenario = scenario.name;
  cell.method = method;

  EngineConfig config = EngineConfig::ForDataset(method, stream.dataset);
  config.cpa.max_iterations = cpa_iterations;
  auto opened = EngineRegistry::Global().Open(config);
  CPA_CHECK(opened.ok()) << method << ": " << opened.status().ToString();
  ConsensusEngine& engine = *opened.value();

  const Stopwatch wall;
  std::size_t batches_seen = 0;
  std::size_t answers_seen = 0;
  std::vector<LabelSet> previous_predictions;
  for (const auto& batch : stream.plan.batches) {
    Stopwatch stopwatch;
    const Status observed = engine.Observe({&stream.dataset.answers, batch});
    cell.observe_ms.push_back(stopwatch.ElapsedMillis());
    CPA_CHECK(observed.ok())
        << scenario.name << "@" << method << ": " << observed.ToString();
    ++batches_seen;
    answers_seen += batch.size();

    stopwatch = Stopwatch();
    auto snapshot = engine.Snapshot();
    cell.snapshot_ms.push_back(stopwatch.ElapsedMillis());
    CPA_CHECK(snapshot.ok())
        << scenario.name << "@" << method << ": "
        << snapshot.status().ToString();
    CheckFinite(*snapshot.value(), scenario.name.c_str());
    CPA_CHECK_EQ(snapshot.value()->batches_seen, batches_seen) << scenario.name;
    CPA_CHECK_EQ(snapshot.value()->answers_seen, answers_seen) << scenario.name;
    if (snapshot.value()->predictions != previous_predictions) {
      cell.convergence_batch = batches_seen;
      previous_predictions = snapshot.value()->predictions;
    }
  }
  auto final_snapshot = engine.Finalize();
  CPA_CHECK(final_snapshot.ok()) << final_snapshot.status().ToString();
  CheckFinite(*final_snapshot.value(), "finalize");
  CPA_CHECK_GE(final_snapshot.value()->batches_seen, batches_seen);
  CPA_CHECK_GE(final_snapshot.value()->answers_seen, answers_seen);
  cell.wall_s = wall.ElapsedSeconds();
  cell.answers = answers_seen;
  cell.metrics = ComputeSetMetrics(final_snapshot.value()->predictions,
                                   stream.dataset.ground_truth);
  return cell;
}

}  // namespace

int main(int argc, char** argv) {
  const Flags flags = bench::ParseBenchFlags(argc, argv);
  bench::BenchConfig config = bench::ParseBenchConfig(flags, 1.0);
  const bool quick = flags.GetBool("quick", false);
  const bool replay_only = flags.GetBool("replay-only", false);
  std::size_t connections =
      static_cast<std::size_t>(flags.GetIntInRange("connections", 8, 1, kMaxConnections));
  bench::CheckBenchFlags(flags);
  if (quick) {
    config.scale = std::min(config.scale, 0.15);
    config.cpa_iterations = std::min<std::size_t>(config.cpa_iterations, 6);
    connections = std::min<std::size_t>(connections, 2);
  }

  bench::PrintHeader(
      "Fig 12 — adversarial scenario matrix",
      "Every StandardScenarioMatrix scenario through every registry method, "
      "with per-batch invariant checks; then the worst scenario replayed "
      "over a live TCP server.",
      config);

  const auto scenarios = StandardScenarioMatrix(config.seed, config.scale);
  const auto methods = EngineRegistry::Global().MethodNames();
  bench::BenchReport report("fig12_adversarial_matrix", config);

  // The replay axis defaults to the flood scenario and, after a matrix
  // run, upgrades to whichever non-degenerate scenario hurt CPA most.
  std::size_t replay_scenario = 1;  // spammer-flood
  CPA_CHECK_LT(replay_scenario, scenarios.size());

  if (!replay_only) {
    // Generate every stream once (parallel answer pass is pointless here —
    // the scenarios are independent workloads, not one big one).
    std::vector<AdversarialStream> streams;
    streams.reserve(scenarios.size());
    for (const auto& scenario : scenarios) {
      auto stream = GenerateAdversarialStream(scenario.config);
      CPA_CHECK(stream.ok())
          << scenario.name << ": " << stream.status().ToString();
      streams.push_back(std::move(stream).value());
    }

    // The matrix: cells are independent (one fresh engine each), so a
    // small runner pool walks an atomic cursor over scenario × method.
    struct Cell {
      std::size_t scenario;
      std::size_t method;
    };
    std::vector<Cell> cells;
    for (std::size_t s = 0; s < scenarios.size(); ++s) {
      for (std::size_t m = 0; m < methods.size(); ++m) {
        cells.push_back(Cell{s, m});
      }
    }
    std::vector<CellResult> results(cells.size());
    std::atomic<std::size_t> cursor{0};
    const std::size_t runners = std::max<std::size_t>(
        1, std::min<std::size_t>(4, std::thread::hardware_concurrency()));
    std::vector<std::thread> pool;
    pool.reserve(runners);
    for (std::size_t r = 0; r < runners; ++r) {
      pool.emplace_back([&] {
        for (std::size_t index = cursor.fetch_add(1); index < cells.size();
             index = cursor.fetch_add(1)) {
          const Cell& cell = cells[index];
          results[index] =
              RunCell(scenarios[cell.scenario], streams[cell.scenario],
                      methods[cell.method], config.cpa_iterations);
        }
      });
    }
    for (auto& runner : pool) runner.join();

    std::printf("\n%-22s %-8s %8s %8s %8s %6s %12s %12s\n", "scenario",
                "method", "F1", "prec", "recall", "conv", "observe_p95",
                "snapshot_p95");
    std::printf("%s\n", std::string(92, '-').c_str());
    double worst_cpa_f1 = 2.0;
    for (std::size_t index = 0; index < results.size(); ++index) {
      const CellResult& cell = results[index];
      const auto key = [&](const char* name) {
        return StrFormat("%s@%s_%s", cell.scenario.c_str(),
                         cell.method.c_str(), name);
      };
      report.Add(key("f1"), cell.metrics.F1(), "ratio");
      report.Add(key("precision"), cell.metrics.precision, "ratio");
      report.Add(key("recall"), cell.metrics.recall, "ratio");
      report.Add(key("convergence_batch"),
                 static_cast<double>(cell.convergence_batch), "batch");
      report.Add(key("observe_p50"), Percentile(cell.observe_ms, 0.5), "ms");
      report.Add(key("observe_p95"), Percentile(cell.observe_ms, 0.95), "ms");
      report.Add(key("snapshot_p95"), Percentile(cell.snapshot_ms, 0.95),
                 "ms");
      std::printf("%-22s %-8s %8.3f %8.3f %8.3f %6zu %12.3f %12.3f\n",
                  cell.scenario.c_str(), cell.method.c_str(),
                  cell.metrics.F1(), cell.metrics.precision,
                  cell.metrics.recall, cell.convergence_batch,
                  Percentile(cell.observe_ms, 0.95),
                  Percentile(cell.snapshot_ms, 0.95));
      if (cell.method == "CPA" &&
          !scenarios[cells[index].scenario].degenerate &&
          cell.metrics.F1() < worst_cpa_f1) {
        worst_cpa_f1 = cell.metrics.F1();
        replay_scenario = cells[index].scenario;
      }
    }
    report.Add("scenarios", static_cast<double>(scenarios.size()), "count");
    report.Add("methods", static_cast<double>(methods.size()), "count");
  }

  // Wire axis: the nastiest stream against a live server.
  const AdversarialScenario& nasty = scenarios[replay_scenario];
  auto nasty_stream = GenerateAdversarialStream(nasty.config);
  CPA_CHECK(nasty_stream.ok()) << nasty_stream.status().ToString();
  std::printf("\nreplaying '%s' over TCP (%zu connections, CPA-SVI)...\n",
              nasty.name.c_str(), connections);
  EngineConfig replay_config =
      EngineConfig::ForDataset("CPA-SVI", nasty_stream.value().dataset);
  replay_config.cpa.max_iterations = config.cpa_iterations;
  ConsensusServerOptions server_options;
  server_options.sessions.max_sessions = connections + 1;
  ConsensusServer server(server_options);
  const bench::ReplayResult replay = bench::ReplaySessions(
      server, replay_config, nasty_stream.value().dataset,
      std::vector<BatchPlan>(connections, nasty_stream.value().plan),
      /*binary=*/true);
  CPA_CHECK_EQ(server.sessions().num_sessions(), 0u);
  // One stream under one config: every session must reach one consensus.
  for (std::size_t s = 1; s < replay.final_predictions.size(); ++s) {
    CPA_CHECK(replay.final_predictions[s] == replay.final_predictions[0])
        << "replayed sessions 0 and " << s << " disagree";
  }
  bench::AddReplayRows(report, "replay", replay);
  std::printf("replay: %.0f answers/s, observe p95 %.3f ms, snapshot p95 "
              "%.3f ms\n",
              static_cast<double>(replay.answers) / replay.wall_s,
              Percentile(replay.observe_ms, 0.95),
              Percentile(replay.snapshot_ms, 0.95));

  CPA_CHECK_OK(report.Write());
  std::printf(
      "\nExpected shape: CPA variants should dominate MV/EM on every "
      "non-degenerate adversarial scenario (model-based worker quality "
      "absorbs spam and collusion); spam-majority is past every method's "
      "breakdown point and is reported for the record only.\n");
  return 0;
}
