#include "core/svi.h"

#include <algorithm>
#include <cmath>
#include <map>

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

/// Workers per reliability shard: a worker's seen answers are few, so
/// shards stay coarse enough to amortise the pool hand-off.
constexpr std::size_t kWorkerGrain = 256;

/// Reliability weights for `workers` from their *seen* answers: mean
/// soft-Jaccard agreement with the current consensus over corroborated
/// items, then relative pow/floor weighting — the incremental-seen-state
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
  const CpaOptions& options = model.options();
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
  double best = 0.0;
  for (WorkerId u : workers) {
    if (agreements[u] >= 0.0) best = std::max(best, agreements[u]);
  }
  // Relative weighting, as in the offline path (sweep_kernels.cc).
  if (best <= 1e-9) return;
  for (WorkerId u : workers) {
    if (agreements[u] < 0.0) continue;
    worker_weight[u] =
        std::max(std::pow(agreements[u] / best, options.reliability_sharpness),
                 options.reliability_floor);
  }
}

}  // namespace

Status SviOptions::Validate() const {
  if (workers_per_batch == 0) {
    return Status::InvalidArgument("workers_per_batch must be positive");
  }
  if (forgetting_rate <= 0.5 || forgetting_rate > 1.0) {
    return Status::InvalidArgument(
        StrFormat("forgetting_rate %.3f outside (0.5, 1]", forgetting_rate));
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
  online.svi_options_ = svi_options;
  online.pool_ = pool;
  online.scheduler_ = std::make_unique<SweepScheduler>(pool);
  online.worker_seen_.assign(num_workers, false);
  online.item_seen_.assign(num_items, false);
  online.item_seeded_.assign(num_items, false);
  online.seen_by_item_.resize(num_items);
  online.seen_by_worker_.resize(num_workers);
  online.size_counts_.Reset(4, online.model_.num_clusters(), 0.0);
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
  last_rate_ =
      std::pow(1.0 + static_cast<double>(batch_count_), -svi_options_.forgetting_rate);

  // Auto-calibrate the θ-channel prior mean on the first batch
  // (cpa_options.h).
  if (batch_count_ == 1 && options.theta_prior_mean <= 0.0) {
    double total_labels = 0.0;
    for (std::size_t index : batch) {
      total_labels += static_cast<double>(view_.label_count(index));
    }
    model.SetThetaPriorMean(total_labels / static_cast<double>(batch.size()) /
                            static_cast<double>(C));
  }

  // --- Group the batch by worker and by item; update running tallies.
  std::map<WorkerId, std::vector<std::size_t>> by_worker;
  std::map<ItemId, std::vector<std::size_t>> by_item;
  std::size_t max_answer_size = 0;
  for (std::size_t index : batch) {
    const WorkerId worker = view_.worker(index);
    const ItemId item = view_.item(index);
    by_worker[worker].push_back(index);
    by_item[item].push_back(index);
    seen_by_worker_[worker].push_back(static_cast<std::uint32_t>(index));
    seen_by_item_[item].push_back(static_cast<std::uint32_t>(index));
    max_answer_size = std::max(max_answer_size, view_.label_count(index));
    if (!worker_seen_[worker]) {
      worker_seen_[worker] = true;
      ++workers_seen_;
    }
    if (!item_seen_[item]) {
      item_seen_[item] = true;
      ++items_seen_;
    }
  }
  answers_seen_ += batch.size();

  std::vector<WorkerId> batch_workers;
  batch_workers.reserve(by_worker.size());
  for (const auto& [u, unused] : by_worker) batch_workers.push_back(u);

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

  // --- Reinforcement rounds over the batch: reliability weights →
  // consensus evidence → cluster assignments → θ channel, repeated a few
  // times (the offline fit gets this reinforcement for free across its
  // sweeps; a single pass leaves the online consensus noticeably mushier).
  // Each round writes ϕ only for the batch items.
  std::vector<ItemId> seeded_now;
  std::vector<double> worker_weight(model.num_workers(), 1.0);
  for (std::size_t round = 0; round < svi_options_.reinforcement_rounds; ++round) {
    // Reliability weights compare each batch worker's *seen* answers
    // against the current consensus ỹ of the answered items — strictly past
    // state, the learner never peeks beyond the batches it has been shown.
    if (options.label_evidence == LabelEvidence::kReliabilityWeighted &&
        (batch_count_ > 1 || round > 0)) {
      UpdateSeenWorkerReliability(model, view_, seen_by_worker_, seen_by_item_,
                                  batch_workers, scheduler, worker_weight);
    }
    std::vector<double> dense(C, 0.0);
    for (const auto& [item, unused] : by_item) {
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
    // frequency-ordered seeding); once the truncation is exhausted, new
    // sets join their best Jaccard match.
    if (!options.singleton_clusters && T > 1) {
      for (const auto& [item, unused] : by_item) {
        if (item_seeded_[item]) continue;
        const LabelSet consensus = sweep::ConsensusFromEvidence(model, item);
        if (consensus.empty()) continue;  // still deferred
        const std::string key = consensus.ToString();
        auto it = consensus_cluster_.find(key);
        if (it == consensus_cluster_.end() && next_cluster_ < T) {
          cluster_consensus_.push_back(consensus);
          it = consensus_cluster_.emplace(key, next_cluster_++).first;
        }
        item_seeded_[item] = true;
        if (it != consensus_cluster_.end()) {
          // A one-hot seed, as `sweep::WriteSeedRow` writes it; the learner
          // has no convergence check, so the row change is not computed.
          model.phi.AssignOneHot(item, it->second);
          seeded_now.push_back(item);
        }
        // Truncation exhausted and unknown set: no hard seed — the item
        // joins whichever cluster the soft evidence update prefers.
      }
    }

    // --- ϕ update for the batch items. Items seen for the first time keep
    // their label-aligned seed — the global parameters have not yet seen
    // their data. Re-seen items get an exact local coordinate update over
    // their accumulated answers (the Hoffman-style treatment of per-item
    // latents), through the evidence-only shared kernel. The answer term of
    // the offline update (Eq. 3 restored) needs every cluster's confusion
    // bank to be current; online, banks of rarely-touched clusters are
    // stale and the term systematically drags items into whichever clusters
    // accumulated the most mass. The answer likelihood still reweights
    // clusters at prediction time, where the accumulated λ is used once
    // rather than amplified through every sweep.
    if (!options.singleton_clusters) {
      std::vector<ItemId> reseen;
      for (const auto& [item, unused] : by_item) {
        if (item_seeded_[item] &&
            std::find(seeded_now.begin(), seeded_now.end(), item) == seeded_now.end()) {
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

    // θ channel for the next reinforcement round (and for prediction). The
    // last round also rebuilds ζ (see the REDUCE phase) in the same pass.
    if (round + 1 < svi_options_.reinforcement_rounds) {
      sweep::UpdateThetaChannel(model, activity, scheduler);
    } else {
      sweep::UpdateZetaAndThetaChannel(model, activity, scheduler);
    }
    model.RefreshThetaExpectations();
  }  // reinforcement rounds

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
  for (std::size_t index : batch) {
    const auto labels = view_.labels(index);
    const auto kappa_row = model.kappa.Row(view_.worker(index));
    activity.ForEach(view_.item(index), [&](std::size_t t, double phi_weight) {
      Matrix& bank = model.lambda[t];
      for (std::size_t m = 0; m < M; ++m) {
        const double weight = phi_weight * kappa_row[m];
        if (weight < 1e-10) continue;
        auto row = bank.Row(m);
        for (LabelId c : labels) row[c] += weight;
      }
    });
  }

  // ρ (Eqs. 11–12): exact over the workers seen so far (cheap: U × M).
  if (model.num_communities() > 1 && !options.singleton_communities) {
    std::vector<double> mass(M, 0.0);
    for (WorkerId u = 0; u < model.num_workers(); ++u) {
      if (!worker_seen_[u]) continue;
      const auto row = model.kappa.Row(u);
      for (std::size_t m = 0; m < M; ++m) mass[m] += row[m];
    }
    double tail = 0.0;
    std::vector<double> tails(M, 0.0);
    for (std::size_t m = M; m-- > 0;) {
      tails[m] = tail;
      tail += mass[m];
    }
    for (std::size_t m = 0; m + 1 < M; ++m) {
      model.rho(m, 0) = 1.0 + mass[m];
      model.rho(m, 1) = options.alpha + tails[m];
    }
  }

  // υ (Eqs. 13–14): exact, since the full ϕ is maintained.
  sweep::UpdateSticks(model.upsilon, model.phi, options.epsilon, scheduler);

  // ζ (Eq. 10) and the Beta-Bernoulli θ channel: exact recomputation over
  // the evidence accumulated so far. Unlike λ (whose exact update would
  // re-scan every answer and erase the SVI speedup — it gets the
  // natural-gradient treatment above), the label-channel statistics cost
  // O(seen items × nnz(ỹ) × T) and blending them would drag clusters that a
  // batch does not touch back toward their prior. The last reinforcement
  // round already computed both from the same ϕ, ỹ, evidence weights and
  // priors (nothing since has written them), so they are computed here
  // only when no round ran.
  if (svi_options_.reinforcement_rounds == 0) {
    sweep::UpdateZetaAndThetaChannel(model, activity, scheduler);
  }

  // --- Size-prior counts (plain data statistic, no decay). A batch is
  // small, so its row adds run inline on the calling thread.
  if (max_answer_size + 3 > size_counts_.rows()) {
    Matrix grown(max_answer_size + 3, T, 0.0);
    std::copy(size_counts_.Data().begin(), size_counts_.Data().end(),
              grown.Data().begin());
    size_counts_ = std::move(grown);
  }
  sweep::AccumulateSizeCounts(model.phi, view_, batch, size_counts_);
  model.size_prior = size_counts_.Transposed();
  for (double& count : model.size_prior.Data()) count += 0.5;
  model.size_prior.NormalizeRows();

  model.RefreshExpectations();
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
  std::vector<double> dense(C, 0.0);
  constexpr std::size_t kRounds = 3;
  for (std::size_t round = 0; round < kRounds; ++round) {
    // Reliability weights over every seen answer on corroborated items.
    if (options.label_evidence == LabelEvidence::kReliabilityWeighted) {
      UpdateSeenWorkerReliability(model, view_, seen_by_worker_, seen_by_item_,
                                  all_workers, scheduler, worker_weight);
    }
    // Consensus evidence for every seen item.
    for (ItemId i = 0; i < model.num_items(); ++i) {
      const auto& seen = seen_by_item_[i];
      if (seen.empty()) continue;
      sweep::AccumulateLabelEvidence(model, view_, i, seen, worker_weight,
                                     options.evidence_scale, dense);
    }
    if (!options.singleton_clusters && T > 1) {
      if (round == 0) {
        // Reseed-then-ascend, exactly like the offline fit: regroup every
        // evidenced item by its refreshed consensus, with clusters ranked
        // by group frequency. The incremental first-come allocation used
        // during batch ingestion drifts out of the size-biased stick
        // order as the stream evolves; prediction time is the moment to
        // realign (all of this still only reads seen data).
        sweep::SeedClustersFromConsensus(model);
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
  model.RefreshExpectations();
}

Result<CpaPrediction> CpaOnline::Predict(const AnswerMatrix& answers) {
  if (answers_seen_ == 0) {
    return PredictLabels(model_, AnswerMatrix(model_.num_items(), model_.num_workers()),
                         *scheduler_);
  }
  for (const auto& seen : seen_by_item_) {
    for (std::uint32_t index : seen) {
      if (index >= answers.num_answers()) {
        return Status::InvalidArgument(
            "Predict must receive the same stream matrix as ObserveBatch");
      }
    }
  }
  GlobalRefresh(answers);
  // Restrict prediction to the answers actually observed.
  std::vector<std::size_t> seen_indices;
  seen_indices.reserve(answers_seen_);
  for (const auto& seen : seen_by_item_) {
    seen_indices.insert(seen_indices.end(), seen.begin(), seen.end());
  }
  const AnswerMatrix seen_answers = answers.Subset(seen_indices);
  return PredictLabels(model_, seen_answers, *scheduler_);
}

void CpaOnline::SaveState(CheckpointWriter& writer) const {
  model_.SaveState(writer);
  writer.WriteU64(batch_count_);
  writer.WriteDouble(last_rate_);
  writer.WriteU64(answers_seen_);
  writer.WriteU64(workers_seen_);
  writer.WriteU64(items_seen_);
  writer.WriteBools(worker_seen_);
  writer.WriteBools(item_seen_);
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
  writer.WriteU64(cluster_consensus_.size());
  for (const LabelSet& consensus : cluster_consensus_) {
    writer.WriteLabelSet(consensus);
  }
  writer.WriteU64(next_cluster_);
  writer.WriteMatrix(size_counts_.Transposed());
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
  restored.svi_options_ = svi_options_;
  restored.pool_ = pool_;
  restored.scheduler_ = std::move(scheduler_);
  *this = std::move(restored);
  return Status::OK();
}

Status CpaOnline::ReadState(CheckpointReader& reader) {
  CPA_RETURN_NOT_OK(model_.RestoreState(reader));
  CPA_ASSIGN_OR_RETURN(batch_count_, reader.ReadSize());
  CPA_ASSIGN_OR_RETURN(last_rate_, reader.ReadDouble());
  CPA_ASSIGN_OR_RETURN(answers_seen_, reader.ReadSize());
  CPA_ASSIGN_OR_RETURN(workers_seen_, reader.ReadSize());
  CPA_ASSIGN_OR_RETURN(items_seen_, reader.ReadSize());
  CPA_ASSIGN_OR_RETURN(worker_seen_, reader.ReadBools());
  CPA_ASSIGN_OR_RETURN(item_seen_, reader.ReadBools());
  CPA_ASSIGN_OR_RETURN(item_seeded_, reader.ReadBools());
  if (worker_seen_.size() != model_.num_workers() ||
      item_seen_.size() != model_.num_items() ||
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
  CPA_ASSIGN_OR_RETURN(const std::size_t consensus_count, reader.ReadSize());
  if (consensus_count > reader.remaining() / sizeof(std::uint32_t)) {
    return Status::InvalidArgument("checkpoint consensus count too large");
  }
  cluster_consensus_.assign(consensus_count, {});
  for (LabelSet& consensus : cluster_consensus_) {
    CPA_ASSIGN_OR_RETURN(consensus, reader.ReadLabelSet());
  }
  CPA_ASSIGN_OR_RETURN(next_cluster_, reader.ReadSize());
  if (next_cluster_ > model_.num_clusters()) {
    return Status::InvalidArgument("checkpoint next_cluster out of range");
  }
  CPA_ASSIGN_OR_RETURN(const Matrix cluster_major_counts, reader.ReadMatrix());
  if (cluster_major_counts.rows() != model_.num_clusters()) {
    return Status::InvalidArgument("checkpoint size_counts rows != T");
  }
  size_counts_ = cluster_major_counts.Transposed();
  return Status::OK();
}

}  // namespace cpa
