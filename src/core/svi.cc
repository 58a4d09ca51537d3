#include "core/svi.h"

#include <algorithm>
#include <cmath>

#include "core/sweep/simd.h"
#include "core/sweep/sweep_kernels.h"
#include "core/sweep/sweep_scheduler.h"
#include "engine/checkpoint.h"
#include "util/logging.h"
#include "util/special_functions.h"
#include "util/string_utils.h"

namespace cpa {
namespace {

/// Workers are judged only on items whose consensus is corroborated by
/// enough answers — judging against one- or two-answer "consensus" crushes
/// honest workers and locks the reinforcement loop into noise.
constexpr std::size_t kMinAnswersForReliability = 4;

/// Forgetting rate r of the reported learning rate ω_b = (1+b)^{−r}: the
/// paper finds r ∈ [0.85, 0.9] best and uses 0.875 in its scalability
/// experiments (§4.1). No update reads ω_b (see svi.h).
constexpr double kForgettingRate = 0.875;

/// The batch λ step's cut: a (cluster, community) weight ϕ·κ below it adds
/// nothing. It is not `sweep::kSkipMass`, the offline Eq. 6 cut; unifying
/// the two would move online fits.
constexpr double kBatchLambdaSkip = 1e-10;

/// Workers per reliability shard: a worker's seen answers are few, so
/// shards stay coarse enough to amortise the pool hand-off.
constexpr std::size_t kWorkerGrain = 256;

/// Reliability weights for `workers` from their *seen* answers: mean
/// soft-Jaccard agreement with the current consensus over corroborated
/// items, then `sweep::WeighRelativeReliability` — the incremental-seen-state
/// analogue of `sweep::ComputeWorkerReliability` (which scores a full
/// matrix), shared by the batch reinforcement rounds and GlobalRefresh.
/// Only scored workers' entries of `worker_weight` are written. The
/// per-worker agreements are independent, so they are sharded over the
/// scheduler; the best agreement is a max (a pure selection) taken after
/// them, so the weights do not depend on the thread count.
void UpdateSeenWorkerReliability(
    const CpaModel& model, const AnswerView& view,
    const std::vector<std::vector<std::uint32_t>>& seen_by_worker,
    const std::vector<std::vector<std::uint32_t>>& seen_by_item,
    std::span<const WorkerId> workers, const SweepScheduler& scheduler,
    std::vector<double>& worker_weight) {
  std::vector<double> agreements(model.num_workers(), -1.0);
  scheduler.ParallelFor(
      workers.size(),
      [&](std::size_t begin, std::size_t end) {
        for (std::size_t w = begin; w < end; ++w) {
          const WorkerId u = workers[w];
          double agreement = 0.0;
          double counted = 0.0;
          for (std::uint32_t index : seen_by_worker[u]) {
            const ItemId item = view.item(index);
            const auto& evidence = model.y_evidence[item];
            if (evidence.empty()) continue;
            if (seen_by_item[item].size() < kMinAnswersForReliability) continue;
            agreement += sweep::SoftJaccardAgreement(view.labels(index), evidence);
            counted += 1.0;
          }
          if (counted > 0.0) agreements[u] = agreement / counted;
        }
      },
      /*min_shard=*/kWorkerGrain);
  sweep::WeighRelativeReliability(agreements, model.options().reliability_sharpness,
                                  worker_weight);
}

/// The checkpoint's seen flags: entity k has been seen iff its seen list is
/// non-empty.
std::vector<bool> SeenFlags(const std::vector<std::vector<std::uint32_t>>& seen) {
  std::vector<bool> flags(seen.size());
  for (std::size_t k = 0; k < seen.size(); ++k) flags[k] = !seen[k].empty();
  return flags;
}

}  // namespace

Status SviOptions::Validate() const {
  if (workers_per_batch == 0) {
    return Status::InvalidArgument("workers_per_batch must be positive");
  }
  return Status::OK();
}

Result<CpaOnline> CpaOnline::Create(std::size_t num_items, std::size_t num_workers,
                                    std::size_t num_labels, const CpaOptions& options,
                                    const SviOptions& svi_options, Executor* pool) {
  CPA_RETURN_NOT_OK(svi_options.Validate());
  CPA_ASSIGN_OR_RETURN(CpaModel model,
                       CpaModel::Create(num_items, num_workers, num_labels, options));
  CpaOnline online;
  online.model_ = std::move(model);
  online.scheduler_ = std::make_unique<SweepScheduler>(pool);
  online.item_seeded_.assign(num_items, false);
  online.seen_by_item_.resize(num_items);
  online.seen_by_worker_.resize(num_workers);
  return online;
}

void CpaOnline::EnsureView(const AnswerMatrix& answers) {
  if (viewed_stream_ != &answers) {
    view_ = AnswerView(answers);  // first batch, or a different stream matrix
    viewed_stream_ = &answers;
  } else if (view_.num_answers() != answers.num_answers()) {
    view_.ExtendTo(answers);  // the same stream grew: incremental append
  }
}

Status CpaOnline::ObserveBatch(const AnswerMatrix& answers,
                               std::span<const std::size_t> batch) {
  if (batch.empty()) return Status::OK();
  for (std::size_t index : batch) {
    if (index >= answers.num_answers()) {
      return Status::OutOfRange(StrFormat("batch answer index %zu out of range", index));
    }
  }
  EnsureView(answers);
  CpaModel& model = model_;
  const SweepScheduler& scheduler = *scheduler_;
  const std::size_t M = model.num_communities();
  const std::size_t T = model.num_clusters();
  const std::size_t C = model.num_labels();
  const CpaOptions& options = model.options();

  ++batch_count_;
  last_rate_ = std::pow(1.0 + static_cast<double>(batch_count_), -kForgettingRate);

  if (batch_count_ == 1) {
    std::size_t label_total = 0;
    for (std::size_t index : batch) label_total += view_.label_count(index);
    model.CalibrateThetaPrior(label_total, batch.size());
  }

  // --- Record the batch in the seen lists; collect its distinct workers
  // and items in ascending order.
  std::vector<WorkerId> batch_workers;
  std::vector<ItemId> batch_items;
  batch_workers.reserve(batch.size());
  batch_items.reserve(batch.size());
  for (std::size_t index : batch) {
    const WorkerId worker = view_.worker(index);
    const ItemId item = view_.item(index);
    batch_workers.push_back(worker);
    batch_items.push_back(item);
    seen_by_worker_[worker].push_back(static_cast<std::uint32_t>(index));
    seen_by_item_[item].push_back(static_cast<std::uint32_t>(index));
  }
  answers_seen_ += batch.size();
  for (auto* ids : {&batch_workers, &batch_items}) {
    std::sort(ids->begin(), ids->end());
    ids->erase(std::unique(ids->begin(), ids->end()), ids->end());
  }

  // --- MAP phase: local κ updates for the batch workers (parallel; rows
  // are disjoint), through the shared Eq. 2 kernel. Every reader of this
  // batch takes ϕ through one threshold view, which reads the rows as they
  // are at that moment — each answer visits its item's active clusters
  // instead of scanning a T-wide ϕ row.
  const sweep::ClusterActivity activity{&model.phi, sweep::kSkipMass};
  if (!options.singleton_communities) {
    scheduler.ParallelFor(
        batch_workers.size(),
        [&](std::size_t begin, std::size_t end) {
          for (std::size_t w = begin; w < end; ++w) {
            const WorkerId u = batch_workers[w];
            sweep::UpdateWorkerResponsibility(model, view_, u, seen_by_worker_[u],
                                              &activity);
          }
        },
        /*min_shard=*/4);
  }

  // --- One reinforcement pass over the batch: reliability weights →
  // consensus evidence → cluster assignments → θ channel (the offline fit
  // gets this reinforcement across its sweeps). It writes ϕ only for the
  // batch items.
  // Reliability weights compare each batch worker's *seen* answers against
  // the current consensus ỹ of the answered items — strictly past state,
  // the learner never peeks beyond the batches it has been shown.
  std::vector<double> worker_weight(model.num_workers(), 1.0);
  if (options.label_evidence == LabelEvidence::kReliabilityWeighted &&
      batch_count_ > 1) {
    UpdateSeenWorkerReliability(model, view_, seen_by_worker_, seen_by_item_,
                                batch_workers, scheduler, worker_weight);
  }
  std::vector<double> dense(C, 0.0);
  for (ItemId item : batch_items) {
    const auto& seen = seen_by_item_[item];
    if (seen.size() < kMinAnswersToSeed) {
      // Defer until corroborated.
      model.y_evidence[item].clear();
      model.y_evidence_weight[item] = 0.0;
      continue;
    }
    sweep::AccumulateLabelEvidence(model, view_, item, seen, worker_weight,
                                   options.evidence_scale, dense);
  }

  // --- Label-aligned symmetry breaking for items appearing for the first
  // time: their consensus set gets a dedicated cluster, allocated
  // first-come-first-served (streaming analogue of the offline
  // frequency-ordered seeding); once the truncation is exhausted, new sets
  // join their best Jaccard match.
  // Then the ϕ update for the other seeded batch items. Items seeded just
  // now keep their label-aligned seed — the global parameters have not yet
  // seen their data. Re-seen items get an exact local coordinate update
  // over their accumulated answers (the Hoffman-style treatment of
  // per-item latents), through the evidence-only shared kernel. The answer
  // term of the offline update (Eq. 3 restored) needs every cluster's
  // confusion bank to be current; online, banks of rarely-touched clusters
  // are stale and the term systematically drags items into whichever
  // clusters accumulated the most mass. The answer likelihood still
  // reweights clusters at prediction time, where the accumulated λ is used
  // once rather than amplified through every sweep. (With T = 1 no item is
  // ever seeded, so there is nothing to update.)
  if (!options.singleton_clusters && T > 1) {
    std::vector<ItemId> reseen;
    for (ItemId item : batch_items) {
      if (item_seeded_[item]) {
        reseen.push_back(item);
        continue;
      }
      const LabelSet consensus = sweep::ConsensusFromEvidence(model, item);
      if (consensus.empty()) continue;  // still deferred
      const std::string key = consensus.ToString();
      auto it = consensus_cluster_.find(key);
      if (it == consensus_cluster_.end() && next_cluster_ < T) {
        it = consensus_cluster_.emplace(key, next_cluster_++).first;
      }
      item_seeded_[item] = true;
      if (it != consensus_cluster_.end()) {
        // A one-hot seed, as `sweep::WriteSeedRow` writes it; the learner
        // has no convergence check, so the row change is not computed.
        model.phi.AssignOneHot(item, it->second);
      } else {
        // Truncation exhausted and unknown set: no hard seed — the item
        // joins whichever cluster the soft evidence update prefers.
        reseen.push_back(item);
      }
    }
    scheduler.ParallelFor(
        reseen.size(),
        [&](std::size_t begin, std::size_t end) {
          for (std::size_t j = begin; j < end; ++j) {
            sweep::UpdateItemResponsibilityFromEvidence(model, reseen[j]);
          }
        },
        /*min_shard=*/4);
  }

  // ζ (Eq. 10) and the Beta-Bernoulli θ channel: exact recomputation over
  // the evidence accumulated so far, in one pass. Unlike λ (whose exact
  // update would re-scan every answer and erase the SVI speedup — it gets
  // the accumulation below), the label-channel statistics cost
  // O(seen items × nnz(ỹ) × T) and blending them would drag clusters that a
  // batch does not touch back toward their prior. Nothing below reads θ's
  // expectations before the closing `RefreshExpectations`.
  sweep::UpdateZetaAndThetaChannel(model, activity, scheduler);

  // --- REDUCE phase.
  // λ: incremental sufficient-statistics accumulation (Neal–Hinton style)
  // of the batch's ϕκ-weighted label counts. The paper's natural-gradient
  // step (Eq. 9) scales each batch statistic by the full data size, which
  // has unbounded variance for clusters a batch barely touches — their
  // confusion banks decay toward the prior and the answer term then drags
  // every item into the few populated clusters (BENCHMARKS.md "Design
  // choices", SVI estimator). Pure accumulation never starves a bank;
  // early contributions are merely stale.
  // The view yields exactly the item's clusters with ϕ ≥ kSkipMass,
  // ascending — the same (cluster, weight) sequence as a T-wide ϕ scan.
  // Each answer adds straight into λ through the Eq. 6 kernel of
  // `sweep::UpdateLambda`; λ's cells are ≥ λ0 > 0, so the AVX2 variant's
  // +0.0 lanes leave them as the skipping loop does (simd.h).
  const simd::Kernels& kernels = simd::Active();
  for (std::size_t index : batch) {
    const auto labels = view_.labels(index);
    const PhiRows::Entries active = activity.Of(view_.item(index));
    kernels.answer_lambda_add(model.lambda.Data().data(), C * M, active.clusters.data(),
                              active.weights.data(), active.clusters.size(),
                              labels.data(), labels.size(),
                              model.kappa.Row(view_.worker(index)).data(),
                              kBatchLambdaSkip, M);
  }

  // ρ (Eqs. 11–12): exact over the workers seen so far (cheap: U × M).
  if (model.num_communities() > 1 && !options.singleton_communities) {
    std::vector<double> mass(M, 0.0);
    for (WorkerId u = 0; u < model.num_workers(); ++u) {
      if (seen_by_worker_[u].empty()) continue;
      const auto row = model.kappa.Row(u);
      for (std::size_t m = 0; m < M; ++m) mass[m] += row[m];
    }
    sweep::SticksFromMass(model.rho, mass, options.alpha);
  }

  // υ (Eqs. 13–14): exact, since the full ϕ is maintained.
  sweep::UpdateSticks(model.upsilon, model.phi, options.epsilon, scheduler);

  model.RefreshExpectations(scheduler);
  return Status::OK();
}

void CpaOnline::GlobalRefresh(const AnswerMatrix& answers) {
  EnsureView(answers);
  CpaModel& model = model_;
  const SweepScheduler& scheduler = *scheduler_;
  const std::size_t T = model.num_clusters();
  const std::size_t C = model.num_labels();
  const CpaOptions& options = model.options();

  // Every round rewrites ϕ across all evidenced items (reseed, then soft
  // updates); the θ and ζ rebuilds read it through the threshold view.
  const sweep::ClusterActivity activity{&model.phi, sweep::kSkipMass};
  std::vector<WorkerId> all_workers(model.num_workers());
  for (WorkerId u = 0; u < model.num_workers(); ++u) all_workers[u] = u;
  std::vector<double> worker_weight(model.num_workers(), 1.0);
  constexpr std::size_t kRounds = 3;
  for (std::size_t round = 0; round < kRounds; ++round) {
    // Reliability weights over every seen answer on corroborated items.
    if (options.label_evidence == LabelEvidence::kReliabilityWeighted) {
      UpdateSeenWorkerReliability(model, view_, seen_by_worker_, seen_by_item_,
                                  all_workers, scheduler, worker_weight);
    }
    // Consensus evidence for every seen item (disjoint rows).
    scheduler.ParallelFor(
        model.num_items(),
        [&](std::size_t begin, std::size_t end) {
          std::vector<double> dense(C, 0.0);
          for (std::size_t i = begin; i < end; ++i) {
            const auto& seen = seen_by_item_[i];
            if (seen.empty()) continue;
            sweep::AccumulateLabelEvidence(model, view_, static_cast<ItemId>(i), seen,
                                           worker_weight, options.evidence_scale, dense);
          }
        },
        /*min_shard=*/sweep::kItemPassGrain);
    if (!options.singleton_clusters && T > 1) {
      if (round == 0) {
        // Reseed-then-ascend, exactly like the offline fit: regroup every
        // evidenced item by its refreshed consensus, with clusters ranked
        // by group frequency. The incremental first-come allocation used
        // during batch ingestion drifts out of the size-biased stick
        // order as the stream evolves; prediction time is the moment to
        // realign (all of this still only reads seen data). The learner
        // has no convergence check, so the row change is unused.
        sweep::SeedClustersFromConsensus(model, scheduler);
      } else {
        // Evidence-only soft update for every item with evidence.
        scheduler.ParallelFor(
            model.num_items(),
            [&](std::size_t begin, std::size_t end) {
              for (std::size_t i = begin; i < end; ++i) {
                if (model.y_evidence[i].empty()) continue;
                sweep::UpdateItemResponsibilityFromEvidence(
                    model, static_cast<ItemId>(i));
              }
            },
            /*min_shard=*/8);
      }
    }
    // The last round's pass also rebuilds ζ: the stick refresh after it
    // reads neither ϕ nor ỹ.
    if (round + 1 < kRounds) {
      sweep::UpdateThetaChannel(model, activity, scheduler);
    } else {
      sweep::UpdateZetaAndThetaChannel(model, activity, scheduler);
    }
    model.RefreshThetaExpectations();
    sweep::UpdateSticks(model.upsilon, model.phi, options.epsilon, scheduler);
    StickBreakingExpectedLog(model.upsilon, model.elog_tau);
  }
  // No closing `RefreshExpectations`: the rounds write neither λ nor ρ, so
  // E ln ψ and E ln π are those the last batch left, and the last round
  // has just refreshed θ's expectations and E ln τ.
}

Result<CpaPrediction> CpaOnline::Predict(const AnswerMatrix& answers) {
  if (answers_seen_ == 0) {
    return PredictLabels(model_, AnswerMatrix(model_.num_items(), model_.num_workers()),
                         *scheduler_);
  }
  // `GlobalRefresh` reads the seen answers through the view of `answers`
  // before prediction checks them, so a matrix that does not hold them is
  // refused here.
  for (const auto& seen : seen_by_item_) {
    for (std::uint32_t index : seen) {
      if (index >= answers.num_answers()) {
        return Status::InvalidArgument(
            "Predict must receive the same stream matrix as ObserveBatch");
      }
    }
  }
  GlobalRefresh(answers);
  // Restrict prediction to the answers actually observed: each item's seen
  // answers, read through the view in the order they were seen.
  return PredictLabels(model_, view_, seen_by_item_, *scheduler_);
}

void CpaOnline::SaveState(CheckpointWriter& writer) const {
  model_.SaveState(writer);
  writer.WriteU64(batch_count_);
  writer.WriteDouble(last_rate_);
  writer.WriteU64(answers_seen_);
  // Retired seen-counts: zero placeholders.
  writer.WriteU64(0);
  writer.WriteU64(0);
  writer.WriteBools(SeenFlags(seen_by_worker_));
  writer.WriteBools(SeenFlags(seen_by_item_));
  writer.WriteBools(item_seeded_);
  writer.WriteU64(seen_by_item_.size());
  for (const auto& seen : seen_by_item_) writer.WriteU32s(seen);
  writer.WriteU64(seen_by_worker_.size());
  for (const auto& seen : seen_by_worker_) writer.WriteU32s(seen);
  writer.WriteU64(consensus_cluster_.size());
  for (const auto& [key, cluster] : consensus_cluster_) {
    writer.WriteString(key);
    writer.WriteU64(cluster);
  }
  writer.WriteU64(0);  // retired per-cluster consensus sets: none
  writer.WriteU64(next_cluster_);
  writer.WriteMatrix(Matrix());  // retired label-set-size counts: empty
}

Status CpaOnline::RestoreState(CheckpointReader& reader) {
  if (batch_count_ != 0 || answers_seen_ != 0) {
    return Status::FailedPrecondition(
        "CpaOnline::RestoreState requires a freshly created learner");
  }
  // Read into a learner over a copy of this fresh model and take it over
  // only once the whole state has been read: a read that fails part way
  // leaves this learner fresh, so it may be restored again.
  CpaOnline restored;
  restored.model_ = model_;
  CPA_RETURN_NOT_OK(restored.ReadState(reader));
  restored.scheduler_ = std::move(scheduler_);
  *this = std::move(restored);
  return Status::OK();
}

Status CpaOnline::ReadState(CheckpointReader& reader) {
  CPA_RETURN_NOT_OK(model_.RestoreState(reader));
  CPA_ASSIGN_OR_RETURN(batch_count_, reader.ReadSize());
  CPA_ASSIGN_OR_RETURN(last_rate_, reader.ReadDouble());
  CPA_ASSIGN_OR_RETURN(answers_seen_, reader.ReadSize());
  // The retired worker and item seen-counts, discarded.
  CPA_RETURN_NOT_OK(reader.ReadSize().status());
  CPA_RETURN_NOT_OK(reader.ReadSize().status());
  // The seen flags, which the seen lists below imply, discarded.
  CPA_ASSIGN_OR_RETURN(const std::vector<bool> worker_seen, reader.ReadBools());
  CPA_ASSIGN_OR_RETURN(const std::vector<bool> item_seen, reader.ReadBools());
  CPA_ASSIGN_OR_RETURN(item_seeded_, reader.ReadBools());
  if (worker_seen.size() != model_.num_workers() ||
      item_seen.size() != model_.num_items() ||
      item_seeded_.size() != model_.num_items()) {
    return Status::InvalidArgument(
        "checkpoint seen-flag lengths do not match model dims");
  }
  CPA_ASSIGN_OR_RETURN(const std::size_t items, reader.ReadSize());
  if (items != model_.num_items()) {
    return Status::InvalidArgument("checkpoint seen_by_item length != I");
  }
  seen_by_item_.assign(items, {});
  for (auto& seen : seen_by_item_) {
    CPA_ASSIGN_OR_RETURN(seen, reader.ReadU32s());
  }
  CPA_ASSIGN_OR_RETURN(const std::size_t workers, reader.ReadSize());
  if (workers != model_.num_workers()) {
    return Status::InvalidArgument("checkpoint seen_by_worker length != U");
  }
  seen_by_worker_.assign(workers, {});
  for (auto& seen : seen_by_worker_) {
    CPA_ASSIGN_OR_RETURN(seen, reader.ReadU32s());
  }
  CPA_ASSIGN_OR_RETURN(const std::size_t seeds, reader.ReadSize());
  // Each map entry is at least a 4-byte key length + 8-byte cluster index.
  if (seeds > reader.remaining() / 12) {
    return Status::InvalidArgument("checkpoint cluster-seed count too large");
  }
  consensus_cluster_.clear();
  for (std::size_t k = 0; k < seeds; ++k) {
    CPA_ASSIGN_OR_RETURN(std::string key, reader.ReadString());
    CPA_ASSIGN_OR_RETURN(const std::size_t cluster, reader.ReadSize());
    if (cluster >= model_.num_clusters()) {
      return Status::InvalidArgument("checkpoint cluster seed out of range");
    }
    consensus_cluster_.emplace(std::move(key), cluster);
  }
  // The retired per-cluster consensus sets, discarded.
  CPA_ASSIGN_OR_RETURN(const std::size_t consensus_count, reader.ReadSize());
  if (consensus_count > reader.remaining() / sizeof(std::uint32_t)) {
    return Status::InvalidArgument("checkpoint consensus count too large");
  }
  for (std::size_t k = 0; k < consensus_count; ++k) {
    CPA_RETURN_NOT_OK(reader.ReadLabelSet().status());
  }
  CPA_ASSIGN_OR_RETURN(next_cluster_, reader.ReadSize());
  if (next_cluster_ > model_.num_clusters()) {
    return Status::InvalidArgument("checkpoint next_cluster out of range");
  }
  // The retired label-set-size counts (T rows in older blobs, empty
  // since), discarded.
  CPA_ASSIGN_OR_RETURN(const Matrix retired_counts, reader.ReadMatrix());
  if (retired_counts.rows() != model_.num_clusters() && !retired_counts.empty()) {
    return Status::InvalidArgument("checkpoint label-set-size counts rows != T");
  }
  return Status::OK();
}

}  // namespace cpa
