#include "core/vi.h"

#include <algorithm>
#include <utility>

#include "core/elbo.h"
#include "core/prediction.h"
#include "core/sweep/answer_view.h"
#include "core/sweep/sweep_kernels.h"
#include "core/sweep/sweep_scheduler.h"
#include "util/logging.h"

namespace cpa {

Result<CpaModel> FitCpa(const AnswerMatrix& answers, std::size_t num_labels,
                        const CpaOptions& options, const FitOptions& fit,
                        FitStats* stats) {
  CPA_ASSIGN_OR_RETURN(
      CpaModel model,
      CpaModel::Create(answers.num_items(), answers.num_workers(), num_labels, options));

  // Auto-calibrate the θ-channel prior mean to the label sparsity of the
  // data (cpa_options.h).
  if (options.theta_prior_mean <= 0.0 && answers.num_answers() > 0) {
    const double mean_answer_size =
        static_cast<double>(answers.TotalLabelAssignments()) /
        static_cast<double>(answers.num_answers());
    model.SetThetaPriorMean(mean_answer_size / static_cast<double>(num_labels));
  }

  const AnswerView view(answers);
  const SweepScheduler scheduler(fit.pool);
  sweep::ClusterActivity activity;

  // Bootstrap: evidence (answer frequency / observed truth), label-aligned
  // cluster seeding, and — crucially — a λ/ζ pass so the first sweep's
  // responsibilities see cluster-differentiated expectations. Without the
  // λ pass, E[ln ψ] of the near-prior Dirichlet rows is dominated by
  // Ψ′-amplified initialisation jitter and the first ϕ sweep scatters
  // items into arbitrary clusters that then self-reinforce.
  sweep::UpdateLabelEvidence(model, view, fit.observed_truth, nullptr, scheduler);
  if (!options.singleton_clusters) {
    sweep::SeedClustersFromConsensus(model);
  }
  sweep::BuildClusterActivity(model.phi, scheduler, activity);
  sweep::UpdateZeta(model, activity, scheduler);
  sweep::UpdateThetaChannel(model, activity, scheduler);
  sweep::UpdateLambda(model, view, activity, scheduler);
  model.RefreshExpectations();

  Matrix previous_kappa = model.kappa;
  Matrix previous_phi = model.phi;
  std::vector<LabelSet> self_training_labels;
  bool evidence_frozen = false;

  FitStats local_stats;
  FitStats& out = stats != nullptr ? *stats : local_stats;
  out = FitStats();

  for (std::size_t iter = 0; iter < options.max_iterations; ++iter) {
    // --- Local updates (MAP phase; disjoint rows → parallel). `activity`
    // reflects the current ϕ here: it is rebuilt after every mutation of ϕ
    // (item sweep, reseeding) before the next consumer runs.
    if (!options.singleton_communities) {
      scheduler.ParallelFor(
          model.num_workers(),
          [&](std::size_t begin, std::size_t end) {
            for (std::size_t u = begin; u < end; ++u) {
              sweep::UpdateWorkerResponsibility(
                  model, view, static_cast<WorkerId>(u),
                  view.AnswersOfWorker(static_cast<WorkerId>(u)), &activity);
            }
          },
          /*min_shard=*/8);
    }
    const bool reseed_sweep =
        !options.singleton_clusters && iter < options.reseed_sweeps && !evidence_frozen;
    if (!options.singleton_clusters && !reseed_sweep) {
      scheduler.ParallelFor(
          model.num_items(),
          [&](std::size_t begin, std::size_t end) {
            for (std::size_t i = begin; i < end; ++i) {
              sweep::UpdateItemResponsibility(
                  model, view, static_cast<ItemId>(i),
                  view.AnswersOfItem(static_cast<ItemId>(i)));
            }
          },
          /*min_shard=*/8);
      sweep::BuildClusterActivity(model.phi, scheduler, activity);
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
        model.RefreshExpectations();
        model.UpdateSizePrior(answers);
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
      sweep::SeedClustersFromConsensus(model);
      sweep::BuildClusterActivity(model.phi, scheduler, activity);
      sweep::UpdateSticks(model.upsilon, model.phi, options.epsilon, scheduler);
      sweep::UpdateLambda(model, view, activity, scheduler);
    }
    sweep::UpdateZeta(model, activity, scheduler);
    sweep::UpdateThetaChannel(model, activity, scheduler);
    model.RefreshExpectations();

    if (fit.track_elbo) {
      out.elbo_trace.push_back(ComputeElbo(model, answers));
    }

    const double change = std::max(model.kappa.MaxAbsDiff(previous_kappa),
                                   model.phi.MaxAbsDiff(previous_phi));
    out.iterations = iter + 1;
    out.final_change = change;
    previous_kappa = model.kappa;
    previous_phi = model.phi;
    if (change < options.tolerance) {
      out.converged = true;
      break;
    }
    if (change < 10.0 * options.tolerance) evidence_frozen = true;
  }

  model.UpdateSizePrior(answers);
  return model;
}

}  // namespace cpa
