/// The multi-session layer in one page: a `SessionManager` runs several
/// concurrent sessions — different methods, one shared sweep pool — over
/// the same simulated stream, with cheap cached polling between batches.
///
///   $ ./server_sessions                      # MV + CPA-SVI side by side
///   $ ./server_sessions --num-threads 4 --batches 6 --scale 0.1
///
/// The same layer speaks line-delimited JSON through `cpa_server`
/// (src/server/protocol.h); docs/API.md documents the wire format.

#include <cstdio>
#include <string>
#include <vector>

#include "eval/metrics.h"
#include "server/session_manager.h"
#include "simulation/dataset_factory.h"
#include "simulation/perturbations.h"
#include "util/flags.h"
#include "util/logging.h"

using namespace cpa;

/// Ranges of the count flags: a negative count would wrap through size_t.
constexpr long long kMaxBatches = 100000;
constexpr long long kMaxThreads = 1024;

int main(int argc, char** argv) {
  const auto flags = Flags::Parse(argc, argv);
  CPA_CHECK(flags.ok()) << flags.status().ToString();
  FactoryOptions factory_options;
  factory_options.scale = flags.value().GetDouble("scale", 0.08);
  const std::size_t batches =
      static_cast<std::size_t>(flags.value().GetIntInRange("batches", 4, 1, kMaxBatches));

  auto dataset = MakePaperDataset(PaperDatasetId::kTopic, factory_options);
  CPA_CHECK(dataset.ok()) << dataset.status().ToString();
  const Dataset& d = dataset.value();

  SessionManagerOptions options;
  options.num_threads = static_cast<std::size_t>(
      flags.value().GetIntInRange("num-threads", 2, 1, kMaxThreads));
  CPA_CHECK_OK(flags.value().CheckAllRead());
  SessionManager manager(options);

  // Two concurrent sessions over the same stream: the offline baseline
  // refits at every refreshed snapshot, the online learner never refits.
  std::vector<std::string> ids;
  for (const char* method : {"MV", "CPA-SVI"}) {
    auto id = manager.Open(EngineConfig::ForDataset(method, d), method);
    CPA_CHECK(id.ok()) << id.status().ToString();
    ids.push_back(id.value());
  }

  Rng rng(11);
  const BatchPlan plan = MakeArrivalSchedule(d.answers, batches, rng);
  const auto all = d.answers.answers();
  std::printf("%-8s %-9s %9s %11s %11s\n", "batch", "session", "answers",
              "precision", "recall");
  for (std::size_t b = 0; b < plan.num_batches(); ++b) {
    std::vector<Answer> arriving;
    arriving.reserve(plan.batches[b].size());
    for (std::size_t index : plan.batches[b]) arriving.push_back(all[index]);
    for (const std::string& id : ids) {
      CPA_CHECK_OK(manager.Observe(id, arriving).status());
      auto snapshot = manager.Snapshot(id);  // refresh; poll with refresh=false
      CPA_CHECK(snapshot.ok()) << snapshot.status().ToString();
      const SetMetrics metrics =
          ComputeSetMetrics(snapshot.value()->predictions, d.ground_truth);
      std::printf("%-8zu %-9s %9zu %11.3f %11.3f\n", b + 1, id.c_str(),
                  snapshot.value()->answers_seen, metrics.precision,
                  metrics.recall);
    }
  }
  for (const std::string& id : ids) {
    CPA_CHECK_OK(manager.Finalize(id).status());
    CPA_CHECK_OK(manager.Close(id));
  }
  CPA_CHECK_EQ(manager.num_sessions(), 0u);
  return 0;
}
