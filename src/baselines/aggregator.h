#ifndef CPA_BASELINES_AGGREGATOR_H_
#define CPA_BASELINES_AGGREGATOR_H_

/// \file aggregator.h
/// \brief The common interface of all answer-aggregation methods.
///
/// Problem 1 of the paper: given the answer matrix `M`, construct a
/// deterministic assignment `d : I → 2^Z`. Aggregators see *only* the
/// answers and the size of the label universe — never the ground truth —
/// which mirrors the paper's fully unsupervised evaluation (`y = ∅`).

#include <cstddef>
#include <string_view>
#include <vector>

#include "data/answer_matrix.h"
#include "data/label_set.h"
#include "util/matrix.h"
#include "util/status.h"

namespace cpa {

/// \brief Diagnostics of a fit. Iterative methods fill `iterations`; CPA's
/// VI fills every field.
struct FitStats {
  std::size_t iterations = 0;
  double final_change = 0.0;
  bool converged = false;

  /// Wall-clock seconds of the prediction phase behind this solution's
  /// labels (`PredictLabels` for offline CPA solves, the snapshot predict
  /// for the online learner); 0 when no separate prediction ran. Fig 7
  /// reports it as the `prediction_ms` column.
  double prediction_seconds = 0.0;

  /// ELBO after each sweep (filled only when requested — the trace costs
  /// one extra data pass per sweep).
  std::vector<double> elbo_trace;
};

/// \brief Output of an aggregation run.
struct AggregationResult {
  /// The deterministic assignment `d`: one label set per item. Items
  /// without answers receive empty sets.
  std::vector<LabelSet> predictions;

  /// Soft per-label scores (I × C); semantics are method specific
  /// (vote ratios for MV, posterior label probabilities for the
  /// model-based methods). May be empty for methods without soft output.
  Matrix label_scores;

  /// Fit diagnostics (all zero for non-iterative methods).
  FitStats stats;
};

/// \brief Interface implemented by every aggregation method (the baselines
/// of §5.1 and the CPA model itself).
class Aggregator {
 public:
  virtual ~Aggregator() = default;

  /// Short display name ("MV", "EM", "cBCC", "CPA", ...).
  virtual std::string_view name() const = 0;

  /// Solves Problem 1 for the given answers over `num_labels` labels.
  virtual Result<AggregationResult> Aggregate(const AnswerMatrix& answers,
                                              std::size_t num_labels) = 0;
};

}  // namespace cpa

#endif  // CPA_BASELINES_AGGREGATOR_H_
