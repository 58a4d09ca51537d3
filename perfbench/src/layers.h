#ifndef PERFBENCH_LAYERS_H_
#define PERFBENCH_LAYERS_H_

/// \file layers.h
/// \brief The traced run's per-layer probes. Each times calls into one
/// layer's public functions from the benchmark's own code, on inputs fixed
/// by the seed (the offline-fit model, the online-stream plan, the
/// serve-mixed client mix), so a layer metric means the same thing in the
/// traced run of every workload.

#include <cstdint>

#include "data/dataset.h"
#include "report.h"
#include "serve_mixed.h"

namespace perfbench {

/// kernel.*, sweep.*, core.solve/predict/vi.*: one offline fit at 1 and 2
/// threads over `scalability`, then the simd table and every sweep phase on
/// a copy of the fitted model.
void ProbeOfflineLayers(const cpa::Dataset& scalability, std::uint64_t seed,
                        Metrics& metrics, RunResult& result);

/// core.svi.*, engine.*: the online-stream plan replayed through
/// `CpaOnline` and through a registry session.
void ProbeOnlineLayers(const cpa::Dataset& scalability, std::uint64_t seed,
                       Metrics& metrics, RunResult& result);

/// \brief Per-op p50s of the in-process server replay (milliseconds).
struct HandlerCost {
  double observe_ms = 0.0;
  double refresh_ms = 0.0;
  double poll_ms = 0.0;
};

/// server.*: the serve-mixed client mix replayed against an in-process
/// `ConsensusServer` through a bench-side frame handler that times
/// decode, handle and encode. Returns decode + handle + encode per op.
HandlerCost ProbeServerLayer(const ServeMixedInputs& inputs, Metrics& metrics,
                             RunResult& result);

/// transport.* and client.*: a serve-mixed run seen from outside, minus
/// the in-process handler cost.
void AddTransportMetrics(const ServeMixedOutcome& outcome, const HandlerCost& handler,
                         std::uint64_t ops_attempted, Metrics& metrics);

}  // namespace perfbench

#endif  // PERFBENCH_LAYERS_H_
