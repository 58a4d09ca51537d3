#ifndef CPA_CORE_VI_H_
#define CPA_CORE_VI_H_

/// \file vi.h
/// \brief Offline variational inference for the CPA model (Algorithm 1).
///
/// Coordinate ascent on the mean-field ELBO: local responsibilities
/// (κ per worker — Eq. 2, ϕ per item — Eq. 3, with the answer term as an
/// option, `CpaOptions::phi_answer_term`), then the global stick/Dirichlet
/// parameters (Eqs. 4–7), then the unsupervised label evidence ỹ
/// (`LabelEvidence`). docs/BENCHMARKS.md "Design choices" gives the
/// reasons and the ablation rows for both choices.
///
/// `FitCpa` is the orchestration loop only; the sweep bodies live in
/// `core/sweep/` (shared with the SVI local phase of svi.h): the kernels in
/// `core/sweep/sweep_kernels.h` run over a flat `AnswerView`
/// (`core/sweep/answer_view.h`) and are sharded across the `Executor` by
/// a `SweepScheduler` (`core/sweep/sweep_scheduler.h`). Both the local MAP
/// phase and the global REDUCE accumulations are parallel and bit-identical
/// for any thread count.

#include <cstddef>
#include <vector>

#include "baselines/aggregator.h"  // FitStats
#include "core/cpa_model.h"
#include "data/answer_matrix.h"
#include "data/label_set.h"
#include "util/status.h"
#include "util/thread_pool.h"

namespace cpa {

/// \brief Options of a single Fit call that are not model properties.
struct FitOptions {
  /// Observed true labels (semi-supervised setting); nullptr for the
  /// paper's fully unsupervised y = ∅.
  const std::vector<LabelSet>* observed_truth = nullptr;

  /// Pool for the parallel sweeps; nullptr = sequential. Results are
  /// bit-identical either way (see core/sweep/sweep_scheduler.h).
  Executor* pool = nullptr;

  /// Record the ELBO after every sweep into `FitStats::elbo_trace`.
  bool track_elbo = false;
};

/// \brief Fits the CPA model to `answers` by offline VI.
Result<CpaModel> FitCpa(const AnswerMatrix& answers, std::size_t num_labels,
                        const CpaOptions& options, const FitOptions& fit = {},
                        FitStats* stats = nullptr);

}  // namespace cpa

#endif  // CPA_CORE_VI_H_
