#ifndef CPA_CORE_CPA_H_
#define CPA_CORE_CPA_H_

/// \file cpa.h
/// \brief Umbrella header and the `Aggregator` adapter for the CPA model.
///
/// The primary entry point for running CPA (or any other method) is the
/// engine layer: open a streaming session via `EngineRegistry::Global()`
/// (engine/engine_registry.h) and drive it with
/// `Observe → Snapshot → Finalize`. The offline variants run there as the
/// `CpaAggregator` below, behind the generic `OfflineEngine` adapter. On
/// its own, `CpaAggregator` is the one-shot entry point:
/// ```cpp
///   cpa::CpaAggregator cpa;                       // default options
///   auto result = cpa.Aggregate(answers, C);      // fit + predict
///   const cpa::CpaModel& posterior = *cpa.model();  // diagnostics
/// ```
/// Lower-level entry points: `SolveCpaOffline` (below) for one fit +
/// instantiation, `FitCpa` (vi.h) for offline inference, `CpaOnline`
/// (svi.h) for incremental learning, `PredictLabels` (prediction.h) for
/// instantiation, `ComputeElbo` (elbo.h).

#include "baselines/aggregator.h"
#include "core/cpa_model.h"
#include "core/cpa_options.h"
#include "core/elbo.h"
#include "core/prediction.h"
#include "core/svi.h"
#include "core/vi.h"

namespace cpa {

/// \brief Model variants of the ablation study (§5.4, Fig 8).
enum class CpaVariant {
  kFull,  ///< the CPA model
  kNoZ,   ///< singleton worker communities (community structure removed)
  kNoL,   ///< singleton item clusters (T = I, identity ϕ)
};

/// Stable display name ("CPA", "CPA-NoZ", "CPA-NoL").
std::string_view CpaVariantName(CpaVariant variant);

/// \brief Outcome of one offline CPA solve: the fitted posterior, the fit
/// diagnostics, and the instantiated prediction.
struct CpaSolution {
  CpaModel model;
  FitStats stats;
  std::vector<LabelSet> predictions;
  Matrix label_scores;
};

/// \brief Offline fit + prediction for the given variant — the kernel
/// behind `CpaAggregator` (and so behind the engine layer's CPA sessions).
/// Applies the variant switches (singleton communities/clusters, the No Z
/// parameter-budget clamp) to `options` before fitting. No L is refused
/// only where its I·M·C confusion bank exceeds `no_l_parameter_limit`.
Result<CpaSolution> SolveCpaOffline(const AnswerMatrix& answers,
                                    std::size_t num_labels, const CpaOptions& options,
                                    CpaVariant variant = CpaVariant::kFull,
                                    Executor* pool = nullptr);

/// \brief `Aggregator` adapter: offline fit + prediction in one call
/// (`SolveCpaOffline`), keeping the posterior for diagnostics.
class CpaAggregator : public Aggregator {
 public:
  explicit CpaAggregator(CpaOptions options = {}, CpaVariant variant = CpaVariant::kFull,
                         Executor* pool = nullptr);

  std::string_view name() const override { return CpaVariantName(variant_); }

  Result<AggregationResult> Aggregate(const AnswerMatrix& answers,
                                      std::size_t num_labels) override;

  /// The posterior of the last successful `Aggregate` call (nullptr before).
  const CpaModel* model() const { return fitted_ ? &model_ : nullptr; }

  /// Inference diagnostics of the last successful `Aggregate` call.
  const FitStats& fit_stats() const { return stats_; }

 private:
  CpaOptions options_;
  CpaVariant variant_;
  Executor* pool_;
  CpaModel model_;
  FitStats stats_;
  bool fitted_ = false;
};

}  // namespace cpa

#endif  // CPA_CORE_CPA_H_
