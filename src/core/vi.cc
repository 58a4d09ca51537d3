#include "core/vi.h"

#include <algorithm>
#include <bit>
#include <cstdint>
#include <span>
#include <utility>

#include "core/elbo.h"
#include "core/prediction.h"
#include "core/sweep/answer_view.h"
#include "core/sweep/sweep_kernels.h"
#include "core/sweep/sweep_scheduler.h"
#include "util/logging.h"

namespace cpa {
namespace {

/// MAP rows per shard of the κ and ϕ sweeps.
constexpr std::size_t kMapRowGrain = 8;

/// Runs the MAP update `update(r)` of every κ row on the scheduler and
/// returns how far the sweep moved the matrix. Each shard copies a row into
/// its lane scratch before updating it and records the row's
/// `MaxAbsDiff(new, old)`; the row values are then folded in row order.
/// Max is a pure selection, and `std::max(acc, term)` drops NaN terms the
/// same way in both, so this equals `MaxAbsDiff` of the matrix against a
/// pre-sweep snapshot bit for bit, without keeping the snapshot.
template <typename Update>
double UpdateRowsTrackingChange(Matrix& rows, const SweepScheduler& scheduler,
                                Update&& update) {
  std::vector<double> row_change(rows.rows(), 0.0);
  scheduler.ParallelMap(
      rows.rows(),
      [&](ScratchArena& arena, std::size_t begin, std::size_t end) {
        const std::span<double> old_row = arena.Alloc<double>(rows.cols());
        for (std::size_t r = begin; r < end; ++r) {
          const auto row = rows.Row(r);
          std::copy(row.begin(), row.end(), old_row.begin());
          update(r);
          row_change[r] = MaxAbsDiff(row, old_row);
        }
      },
      kMapRowGrain);
  double change = 0.0;
  for (const double row : row_change) change = std::max(change, row);
  return change;
}

/// The ϕ form: a shard copies the old row's nonzeros (an initial row
/// regenerated) into lane scratch and takes the row's change over the union
/// of the old and new supports, which is the dense rows' `MaxAbsDiff`
/// (`PhiRows::MaxAbsDiff`).
template <typename Update>
double UpdateRowsTrackingChange(PhiRows& phi, const SweepScheduler& scheduler,
                                Update&& update) {
  std::vector<double> row_change(phi.rows(), 0.0);
  scheduler.ParallelMap(
      phi.rows(),
      [&](ScratchArena& arena, std::size_t begin, std::size_t end) {
        const std::span<std::uint32_t> old_clusters =
            arena.Alloc<std::uint32_t>(phi.cols());
        const std::span<double> old_weights = arena.Alloc<double>(phi.cols());
        for (std::size_t r = begin; r < end; ++r) {
          const std::size_t n = phi.CopyNonzeros(r, old_clusters, old_weights);
          update(r);
          row_change[r] =
              phi.MaxAbsDiff(r, old_clusters.first(n), old_weights.first(n));
        }
      },
      kMapRowGrain);
  double change = 0.0;
  for (const double row : row_change) change = std::max(change, row);
  return change;
}

/// Debug-only cross-check of the fused convergence measure: keeps the full
/// κ/ϕ snapshots the Release fit does without and asserts, sweep by sweep,
/// that the change the writers reported is their `MaxAbsDiff` to the bit
/// (ϕ compared one densified row pair at a time).
#ifndef NDEBUG
class ChangeCrossCheck {
 public:
  explicit ChangeCrossCheck(const CpaModel& model)
      : kappa_(model.kappa), phi_(model.phi) {}

  void Check(const CpaModel& model, double change) {
    const double expected =
        std::max(model.kappa.MaxAbsDiff(kappa_), MaxAbsDiff(model.phi, phi_));
    CPA_CHECK(std::bit_cast<std::uint64_t>(change) ==
              std::bit_cast<std::uint64_t>(expected))
        << "fused sweep change " << change << " != snapshot MaxAbsDiff " << expected;
    kappa_ = model.kappa;
    phi_ = model.phi;
  }

 private:
  Matrix kappa_;
  PhiRows phi_;
};
#else
class ChangeCrossCheck {
 public:
  explicit ChangeCrossCheck(const CpaModel&) {}
  void Check(const CpaModel&, double) {}
};
#endif

}  // namespace

Result<CpaModel> FitCpa(const AnswerMatrix& answers, std::size_t num_labels,
                        const CpaOptions& options, const FitOptions& fit,
                        FitStats* stats) {
  CPA_ASSIGN_OR_RETURN(
      CpaModel model,
      CpaModel::Create(answers.num_items(), answers.num_workers(), num_labels, options));

  model.CalibrateThetaPrior(answers.TotalLabelAssignments(), answers.num_answers());

  const AnswerView view(answers);
  const SweepScheduler scheduler(fit.pool);
  // The consensus seeds are written on the calling thread: sharding their
  // row writes over the pool raised offline-fit peak RSS from 52 to 58 MB,
  // with no resolved time gain (BENCHMARKS.md, "Fig 7: one-pass ϕ row
  // writes").
  const SweepScheduler seed_scheduler;
  // The threshold view of ϕ the κ MAP and the λ/ζ/θ REDUCE read: it has no
  // state of its own, so every reader sees ϕ as the last writer left it.
  const sweep::ClusterActivity activity{&model.phi, sweep::kSkipMass};

  // Bootstrap: evidence (answer frequency / observed truth), label-aligned
  // cluster seeding, and — crucially — a λ/ζ pass so the first sweep's
  // responsibilities see cluster-differentiated expectations. Without the
  // λ pass, E[ln ψ] of the near-prior Dirichlet rows is dominated by
  // Ψ′-amplified initialisation jitter and the first ϕ sweep scatters
  // items into arbitrary clusters that then self-reinforce.
  sweep::UpdateLabelEvidence(model, view, fit.observed_truth, nullptr, scheduler);
  if (!options.singleton_clusters) {
    sweep::SeedClustersFromConsensus(model, seed_scheduler);
  }
  sweep::UpdateZetaAndThetaChannel(model, activity, scheduler);
  sweep::UpdateLambda(model, view, activity, scheduler);
  model.RefreshExpectations(scheduler);

  ChangeCrossCheck cross_check(model);
  std::vector<LabelSet> self_training_labels;
  bool evidence_frozen = false;

  FitStats local_stats;
  FitStats& out = stats != nullptr ? *stats : local_stats;
  out = FitStats();

  for (std::size_t iter = 0; iter < options.max_iterations; ++iter) {
    // --- Local updates (MAP phase; disjoint rows → parallel). Each κ/ϕ
    // writer reports how far it moved its rows; a sweep writes every row
    // at most once, so those are the sweep's convergence measure.
    double kappa_change = 0.0;
    double phi_change = 0.0;
    if (!options.singleton_communities) {
      kappa_change = UpdateRowsTrackingChange(model.kappa, scheduler, [&](std::size_t u) {
        sweep::UpdateWorkerResponsibility(model, view, static_cast<WorkerId>(u),
                                          view.AnswersOfWorker(static_cast<WorkerId>(u)),
                                          &activity);
      });
    }
    const bool reseed_sweep =
        !options.singleton_clusters && iter < options.reseed_sweeps && !evidence_frozen;
    if (!options.singleton_clusters && !reseed_sweep) {
      phi_change = UpdateRowsTrackingChange(model.phi, scheduler, [&](std::size_t i) {
        sweep::UpdateItemResponsibility(model, view, static_cast<ItemId>(i),
                                        view.AnswersOfItem(static_cast<ItemId>(i)));
      });
    }

    // --- Global updates (REDUCE phase; deterministic partial merges).
    sweep::UpdateSticks(model.rho, model.kappa, options.alpha, scheduler);
    sweep::UpdateSticks(model.upsilon, model.phi, options.epsilon, scheduler);
    sweep::UpdateLambda(model, view, activity, scheduler);

    // --- Label evidence for ζ (strategy-dependent; `LabelEvidence`). Once
    // the responsibilities are close to converged, the evidence is frozen
    // so the remaining sweeps are pure coordinate ascent on a fixed
    // objective (the adaptive strategies would otherwise keep the target
    // moving just above the tolerance).
    if (!evidence_frozen) {
      if (options.label_evidence == LabelEvidence::kSelfTraining && iter > 0) {
        sweep::UpdateThetaChannel(model, activity, scheduler);
        model.RefreshExpectations(scheduler);
        // Scheduled on the fit's own scheduler: the self-training predict
        // pass reuses the already-warm lane arenas.
        auto predicted = PredictLabels(model, answers, scheduler);
        if (predicted.ok()) {
          self_training_labels = std::move(predicted).value().labels;
          sweep::UpdateLabelEvidence(model, view, fit.observed_truth,
                                     &self_training_labels, scheduler);
        }
      } else {
        sweep::UpdateLabelEvidence(model, view, fit.observed_truth, nullptr,
                                   scheduler);
      }
    }
    if (reseed_sweep) {
      // Re-derive the hard consensus grouping from the freshly sharpened
      // evidence (see `reseed_sweeps` in cpa_options.h).
      phi_change = sweep::SeedClustersFromConsensus(model, seed_scheduler);
      sweep::UpdateSticks(model.upsilon, model.phi, options.epsilon, scheduler);
      sweep::UpdateLambda(model, view, activity, scheduler);
    }
    sweep::UpdateZetaAndThetaChannel(model, activity, scheduler);
    model.RefreshExpectations(scheduler);

    if (fit.track_elbo) {
      out.elbo_trace.push_back(ComputeElbo(model, answers));
    }

    const double change = std::max(kappa_change, phi_change);
    cross_check.Check(model, change);
    out.iterations = iter + 1;
    out.final_change = change;
    if (change < options.tolerance) {
      out.converged = true;
      break;
    }
    if (change < 10.0 * options.tolerance) evidence_frozen = true;
  }
  return model;
}

}  // namespace cpa
