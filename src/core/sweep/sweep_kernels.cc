#include "core/sweep/sweep_kernels.h"

#include <algorithm>
#include <cmath>
#include <map>
#include <string>
#include <utility>

#include "core/sweep/simd.h"
#include "util/logging.h"
#include "util/special_functions.h"

namespace cpa::sweep {
namespace {

/// Shard grains of the parallel phases. They shape the reduction tree, so
/// they are fixed constants — never derived from the thread count.
constexpr std::size_t kAnswerGrain = 2048;
constexpr std::size_t kItemGrain = 256;
constexpr std::size_t kRowGrain = 1024;

/// Cap on the total per-call λ reduce scratch, in bank entries (doubles):
/// 8M entries = 64 MB, ≈ the λ budget of `CpaOptions::Recommended`.
constexpr std::size_t kLambdaScratchEntryBudget = 8'000'000;

/// The T-wide score row of the ϕ MAP kernels, owned by the calling thread:
/// they run from arena-less `ParallelFor` shards too, and must not allocate
/// per call.
std::span<double> ScoreScratch(std::size_t n) {
  thread_local std::vector<double> scratch;
  scratch.resize(n);
  return scratch;
}

/// Stick Beta parameters from column masses n_k (Eqs. 4/5).
void SticksFromMass(Matrix& sticks, std::span<const double> mass,
                    double concentration) {
  const std::size_t K = mass.size();
  // Suffix sums: tail_k = Σ_{l > k} n_l.
  double tail = 0.0;
  std::vector<double> tails(K, 0.0);
  for (std::size_t k = K; k-- > 0;) {
    tails[k] = tail;
    tail += mass[k];
  }
  for (std::size_t k = 0; k + 1 < K; ++k) {
    sticks(k, 0) = 1.0 + mass[k];
    sticks(k, 1) = concentration + tails[k];
  }
}

/// Column masses Σ_rows of `rows` rows through `add_rows(begin, end,
/// partial)`, in `kRowGrain` blocks merged in the scheduler's fixed tree.
/// Partials are K-wide arena checkouts — spans, not vectors — so a sweep's
/// repeated stick updates reuse the same slab.
template <typename AddRows>
std::vector<double> ColumnMass(std::size_t rows, std::size_t K,
                               const SweepScheduler& scheduler, AddRows&& add_rows) {
  std::vector<double> mass(K, 0.0);
  scheduler.ParallelReduce<std::span<double>>(
      rows, kRowGrain,
      [K](ScratchArena& arena) { return arena.AllocZeroed<double>(K); },
      [&](std::span<double>& partial, std::size_t begin, std::size_t end) {
        add_rows(begin, end, partial);
      },
      [](std::span<double>& into, std::span<double>& from) {
        simd::Accumulate(into, from);
      },
      [&](std::span<double>& root) { simd::Accumulate(mass, root); });
  return mass;
}

/// The label-channel statistics over the items carrying evidence, with w_i
/// the item's pseudo-observation multiplicity: a_tc = Σ_i w_i ϕ_it ỹ_ic
/// (ζ's statistic, and θ's on-count) and mass_t = Σ_i w_i ϕ_it.
struct LabelChannelStats {
  Matrix a;                  ///< T × C
  std::vector<double> mass;  ///< T
};

LabelChannelStats ReduceLabelChannel(const CpaModel& model,
                                     const ClusterActivity& activity,
                                     const SweepScheduler& scheduler) {
  const std::size_t T = model.num_clusters();
  const std::size_t C = model.num_labels();
  struct Partial {
    std::span<double> a;     ///< T × C, row-major
    std::span<double> mass;  ///< T
  };
  LabelChannelStats stats{Matrix(T, C, 0.0), std::vector<double>(T, 0.0)};
  scheduler.ParallelReduce<Partial>(
      model.num_items(), kItemGrain,
      [&](ScratchArena& arena) {
        return Partial{arena.AllocZeroed<double>(T * C), arena.AllocZeroed<double>(T)};
      },
      [&](Partial& partial, std::size_t begin, std::size_t end) {
        for (std::size_t i = begin; i < end; ++i) {
          const auto& evidence = model.y_evidence[i];
          if (evidence.empty()) continue;
          const double multiplicity = model.y_evidence_weight[i];
          // One read of the item's support: each cell takes exactly one
          // addend per item, so the order of the two loops is free.
          activity.ForEach(static_cast<ItemId>(i), [&](std::size_t t, double phi_weight) {
            partial.mass[t] += phi_weight * multiplicity;
            double* row = partial.a.data() + t * C;
            for (const auto& [c, weight] : evidence) {
              row[c] += phi_weight * weight * multiplicity;
            }
          });
        }
      },
      [](Partial& into, Partial& from) {
        simd::Accumulate(into.a, from.a);
        simd::Accumulate(into.mass, from.mass);
      },
      [&](Partial& root) {
        simd::Accumulate(stats.a.Data(), root.a);
        simd::Accumulate(stats.mass, root.mass);
      });
  return stats;
}

/// ζ = ζ0 + a (Eq. 7).
void SetZeta(CpaModel& model, const LabelChannelStats& stats) {
  model.zeta.Fill(model.options().zeta0);
  simd::Accumulate(model.zeta.Data(), stats.a.Data());
}

/// a_tc = a0 + Σ_i w_i ϕ_it ỹ_ic; b_tc = b0 + Σ_i w_i ϕ_it (1 − ỹ_ic)
///      = b0 + mass_t − (a_tc − a0).
void SetThetaChannel(CpaModel& model, const LabelChannelStats& stats) {
  const double a0 = model.theta_prior_on();
  const double b0 = model.theta_prior_off();
  for (std::size_t t = 0; t < stats.a.rows(); ++t) {
    const std::span<const double> a = stats.a.Row(t);
    const std::span<double> on = model.theta_a.Row(t);
    const std::span<double> off = model.theta_b.Row(t);
    for (std::size_t c = 0; c < a.size(); ++c) {
      on[c] = a0 + a[c];
      off[c] = b0 + stats.mass[t] - a[c];
    }
  }
}

}  // namespace

// ---------------------------------------------------------------------------
// Cluster activity
// ---------------------------------------------------------------------------

void BuildClusterActivity(const PhiRows& phi, const SweepScheduler& /*scheduler*/,
                          ClusterActivity& out, double threshold) {
  CPA_CHECK_GT(threshold, 0.0);
  out = ClusterActivity{&phi, threshold};
}

// ---------------------------------------------------------------------------
// MAP kernels
// ---------------------------------------------------------------------------

void UpdateWorkerResponsibility(CpaModel& model, const AnswerView& view, WorkerId u,
                                std::span<const std::uint32_t> indices,
                                const ClusterActivity* activity) {
  CPA_CHECK(activity != nullptr);
  const std::size_t M = model.num_communities();
  auto scores = model.kappa.Row(u);
  for (std::size_t m = 0; m < M; ++m) scores[m] = model.elog_pi[m];
  for (std::uint32_t index : indices) {
    const auto labels = view.labels(index);
    activity->ForEach(view.item(index), [&](std::size_t t, double phi_weight) {
      const Matrix& elog_psi_t = model.elog_psi[t];
      for (std::size_t m = 0; m < M; ++m) {
        const auto psi_row = elog_psi_t.Row(m);
        double loglik = 0.0;
        for (LabelId c : labels) loglik += psi_row[c];
        scores[m] += phi_weight * loglik;
      }
    });
  }
  SoftmaxInPlace(scores, kSoftmaxFloorNats);
}

/// Through the Beta-Bernoulli channel:
///   w_i Σ_c [ỹ_ic E ln θ_tc + (1−ỹ_ic) E ln(1−θ_tc)]
///     = w_i Σ_c E ln(1−θ_tc)
///       + Σ_{c: ỹ>0} (w_i ỹ_ic)(E ln θ_tc − E ln(1−θ_tc)),
/// with w_i the item's pseudo-observation multiplicity. The base sum is
/// cached per cluster; the per-label deltas are label-major AXPYs over t.
void AddEvidenceTerm(const CpaModel& model, ItemId i, std::span<double> scores) {
  if (model.y_evidence[i].empty()) return;
  const std::size_t T = model.num_clusters();
  const double evidence_scale = model.y_evidence_weight[i];
  Axpy(evidence_scale, model.elog_theta_base, scores.first(T));
  for (const auto& [c, weight] : model.y_evidence[i]) {
    Axpy(evidence_scale * weight, model.elog_theta_delta_t.Row(c), scores);
  }
}

void UpdateItemResponsibility(CpaModel& model, const AnswerView& view, ItemId i,
                              std::span<const std::uint32_t> indices) {
  const std::size_t M = model.num_communities();
  const std::size_t T = model.num_clusters();
  const std::span<double> scores = ScoreScratch(T);
  for (std::size_t t = 0; t < T; ++t) scores[t] = model.elog_tau[t];
  AddEvidenceTerm(model, i, scores);
  // Optional answer term (Eq. 3 omits it; see cpa_options.h).
  if (model.options().phi_answer_term) {
    for (std::uint32_t index : indices) {
      const auto labels = view.labels(index);
      const auto kappa_row = model.kappa.Row(view.worker(index));
      for (std::size_t t = 0; t < T; ++t) {
        const Matrix& elog_psi_t = model.elog_psi[t];
        double expected = 0.0;
        for (std::size_t m = 0; m < M; ++m) {
          const double weight = kappa_row[m];
          if (weight < kSkipMass) continue;
          const auto psi_row = elog_psi_t.Row(m);
          double loglik = 0.0;
          for (LabelId c : labels) loglik += psi_row[c];
          expected += weight * loglik;
        }
        scores[t] += expected;
      }
    }
  }
  SoftmaxInPlace(scores, kSoftmaxFloorNats);
  model.phi.Assign(i, scores);
}

void UpdateItemResponsibilityFromEvidence(CpaModel& model, ItemId i) {
  const std::size_t T = model.num_clusters();
  const std::span<double> scores = ScoreScratch(T);
  for (std::size_t t = 0; t < T; ++t) scores[t] = model.elog_tau[t];
  AddEvidenceTerm(model, i, scores);
  SoftmaxInPlace(scores, kSoftmaxFloorNats);
  model.phi.Assign(i, scores);
}

// ---------------------------------------------------------------------------
// Label evidence
// ---------------------------------------------------------------------------

double SoftJaccardAgreement(std::span<const LabelId> labels,
                            std::span<const std::pair<LabelId, double>> evidence) {
  double overlap = 0.0;
  double evidence_total = 0.0;
  for (const auto& [c, weight] : evidence) {
    evidence_total += weight;
    if (std::binary_search(labels.begin(), labels.end(), c)) overlap += weight;
  }
  const double denom =
      static_cast<double>(labels.size()) + evidence_total - overlap;
  return denom > 0.0 ? overlap / denom : 0.0;
}

void AccumulateLabelEvidence(CpaModel& model, const AnswerView& view, ItemId i,
                             std::span<const std::uint32_t> indices,
                             std::span<const double> worker_weight,
                             double configured_scale,
                             std::span<double> dense_scratch) {
  auto& evidence = model.y_evidence[i];
  evidence.clear();
  model.y_evidence_weight[i] = 0.0;
  if (indices.empty()) return;
  std::fill(dense_scratch.begin(), dense_scratch.end(), 0.0);
  double total_weight = 0.0;
  for (std::uint32_t index : indices) {
    const double w = worker_weight[view.worker(index)];
    total_weight += w;
    for (LabelId c : view.labels(index)) dense_scratch[c] += w;
  }
  if (total_weight <= 0.0) return;
  for (LabelId c = 0; c < model.num_labels(); ++c) {
    if (dense_scratch[c] > 0.0) {
      evidence.emplace_back(c, dense_scratch[c] / total_weight);
    }
  }
  model.y_evidence_weight[i] =
      configured_scale > 0.0
          ? configured_scale
          : std::max<double>(1.0, static_cast<double>(indices.size()));
}

std::vector<double> ComputeWorkerReliability(const CpaModel& model,
                                             const AnswerView& view,
                                             const SweepScheduler& scheduler) {
  const std::size_t U = model.num_workers();
  const std::size_t M = model.num_communities();
  const CpaOptions& options = model.options();
  std::vector<double> agreement(U, 0.0);
  std::vector<double> answer_count(U, 0.0);

  // Bootstrap check: reliability is meaningful only once some answered item
  // carries consensus evidence.
  bool any_evidence = false;
  for (ItemId i = 0; i < model.num_items() && !any_evidence; ++i) {
    any_evidence = !model.y_evidence[i].empty() && !view.AnswersOfItem(i).empty();
  }
  if (!any_evidence) return std::vector<double>(U, 1.0);  // bootstrap sweep

  // Per-worker mean soft-Jaccard agreement between each answer and the
  // current consensus of the answered item. Rows are disjoint → parallel.
  scheduler.ParallelFor(
      U,
      [&](std::size_t begin, std::size_t end) {
        for (std::size_t u = begin; u < end; ++u) {
          for (std::uint32_t index : view.AnswersOfWorker(static_cast<WorkerId>(u))) {
            const auto& evidence = model.y_evidence[view.item(index)];
            if (evidence.empty()) continue;
            agreement[u] += SoftJaccardAgreement(view.labels(index), evidence);
            answer_count[u] += 1.0;
          }
        }
      },
      /*min_shard=*/kRowGrain / 8);
  for (WorkerId u = 0; u < U; ++u) {
    if (answer_count[u] > 0.0) agreement[u] /= answer_count[u];
  }

  // Community pooling: answer-weighted mean agreement per community, then
  // shrink each worker toward its (κ-mixed) community mean.
  std::vector<double> community_sum(M, 0.0);
  std::vector<double> community_mass(M, 0.0);
  for (WorkerId u = 0; u < U; ++u) {
    if (answer_count[u] <= 0.0) continue;
    const auto kappa_row = model.kappa.Row(u);
    for (std::size_t m = 0; m < M; ++m) {
      community_sum[m] += kappa_row[m] * answer_count[u] * agreement[u];
      community_mass[m] += kappa_row[m] * answer_count[u];
    }
  }
  std::vector<double> weights(U, 1.0);
  std::vector<double> shrunk(U, 0.0);
  double best = 0.0;
  for (WorkerId u = 0; u < U; ++u) {
    if (answer_count[u] <= 0.0) continue;
    const auto kappa_row = model.kappa.Row(u);
    double community_mean = 0.0;
    for (std::size_t m = 0; m < M; ++m) {
      const double mean =
          community_mass[m] > 0.0 ? community_sum[m] / community_mass[m] : 0.5;
      community_mean += kappa_row[m] * mean;
    }
    const double s = options.reliability_shrinkage;
    shrunk[u] =
        (answer_count[u] * agreement[u] + s * community_mean) / (answer_count[u] + s);
    best = std::max(best, shrunk[u]);
  }
  // Reliability is relative: normalising by the best worker keeps the
  // honest/spammer contrast even when heavy spam dilutes the consensus and
  // absolute agreements are uniformly low (otherwise every weight hits the
  // floor and the reinforcement loop loses all discrimination).
  if (best <= 1e-9) return weights;
  for (WorkerId u = 0; u < U; ++u) {
    if (answer_count[u] <= 0.0) continue;
    weights[u] = std::max(std::pow(shrunk[u] / best, options.reliability_sharpness),
                          options.reliability_floor);
  }
  return weights;
}

void UpdateLabelEvidence(CpaModel& model, const AnswerView& view,
                         const std::vector<LabelSet>* observed_truth,
                         const std::vector<LabelSet>* self_training_labels,
                         const SweepScheduler& scheduler) {
  const LabelEvidence strategy = model.options().label_evidence;

  // Worker weights for the frequency-style strategies, computed from the
  // *previous* consensus (mutual reinforcement across sweeps).
  std::vector<double> worker_weight(model.num_workers(), 1.0);
  if (strategy == LabelEvidence::kReliabilityWeighted) {
    worker_weight = ComputeWorkerReliability(model, view, scheduler);
  }

  const double configured_scale = model.options().evidence_scale;
  scheduler.ParallelFor(
      model.num_items(),
      [&](std::size_t begin, std::size_t end) {
        std::vector<double> dense(model.num_labels(), 0.0);
        for (std::size_t i = begin; i < end; ++i) {
          auto& evidence = model.y_evidence[i];
          const auto indices = view.AnswersOfItem(static_cast<ItemId>(i));
          // Observed truth always wins (semi-supervised support).
          if (observed_truth != nullptr && i < observed_truth->size() &&
              !(*observed_truth)[i].empty()) {
            evidence.clear();
            for (LabelId c : (*observed_truth)[i]) evidence.emplace_back(c, 1.0);
            model.y_evidence_weight[i] =
                configured_scale > 0.0
                    ? configured_scale
                    : std::max<double>(1.0, static_cast<double>(indices.size()));
            continue;
          }
          if (strategy == LabelEvidence::kObservedOnly) {
            evidence.clear();
            model.y_evidence_weight[i] = 0.0;
            continue;
          }
          if (strategy == LabelEvidence::kSelfTraining &&
              self_training_labels != nullptr) {
            evidence.clear();
            model.y_evidence_weight[i] = 0.0;
            for (LabelId c : (*self_training_labels)[i]) evidence.emplace_back(c, 1.0);
            if (!evidence.empty()) {
              model.y_evidence_weight[i] =
                  configured_scale > 0.0
                      ? configured_scale
                      : std::max<double>(1.0, static_cast<double>(indices.size()));
            }
            continue;
          }
          // Frequency-style evidence (also the self-training bootstrap): the
          // (reliability-)weighted mean answer indicator.
          AccumulateLabelEvidence(model, view, static_cast<ItemId>(i), indices,
                                  worker_weight, configured_scale, dense);
        }
      },
      /*min_shard=*/kItemGrain);
}

// ---------------------------------------------------------------------------
// REDUCE kernels
// ---------------------------------------------------------------------------

void UpdateSticks(Matrix& sticks, const Matrix& responsibilities,
                  double concentration, const SweepScheduler& scheduler) {
  const std::size_t K = sticks.rows() + 1;
  if (K <= 1) return;
  CPA_CHECK_EQ(responsibilities.cols(), K);
  const std::vector<double> mass = ColumnMass(
      responsibilities.rows(), K, scheduler,
      [&](std::size_t begin, std::size_t end, std::span<double> partial) {
        for (std::size_t r = begin; r < end; ++r) {
          simd::Accumulate(partial, responsibilities.Row(r));
        }
      });
  SticksFromMass(sticks, mass, concentration);
}

void UpdateSticks(Matrix& sticks, const PhiRows& phi, double concentration,
                  const SweepScheduler& scheduler) {
  const std::size_t K = sticks.rows() + 1;
  if (K <= 1) return;
  CPA_CHECK_EQ(phi.cols(), K);
  const std::vector<double> mass = ColumnMass(
      phi.rows(), K, scheduler,
      [&](std::size_t begin, std::size_t end, std::span<double> partial) {
        phi.AddRows(begin, end, partial);
      });
  SticksFromMass(sticks, mass, concentration);
}

void UpdateLambda(CpaModel& model, const AnswerView& view,
                  const ClusterActivity& activity, const SweepScheduler& scheduler) {
  const std::size_t M = model.num_communities();
  const std::size_t C = model.num_labels();
  const double prior = model.options().lambda0;
  for (auto& bank : model.lambda) bank.Fill(prior);
  // Each partial is a full copy of the λ statistic (T × M × C doubles), so
  // the block count is additionally capped to keep the transient scratch
  // within a few multiples of λ itself — `CpaOptions::Recommended` sizes λ
  // against a memory budget and the reduce must not blow past it 16-fold.
  // A pure function of the bank shape (never of the thread count), so the
  // reduction tree stays thread-count invariant.
  const std::size_t T = model.num_clusters();
  const std::size_t bank_entries = std::max<std::size_t>(1, T * M * C);
  const std::size_t max_blocks = std::clamp<std::size_t>(
      kLambdaScratchEntryBudget / bank_entries, 1, SweepScheduler::kMaxReduceBlocks);
  // Each partial is one flat T×M×C arena checkout (bank t at offset t·M·C)
  // — the heaviest scratch of the whole engine, and the reason the reduce
  // arena exists: steady-state sweeps reuse the warm slabs instead of
  // re-allocating megabytes per call.
  scheduler.ParallelReduce<std::span<double>>(
      view.num_answers(), kAnswerGrain,
      [&](ScratchArena& arena) { return arena.AllocZeroed<double>(bank_entries); },
      [&](std::span<double>& banks, std::size_t begin, std::size_t end) {
        for (std::size_t index = begin; index < end; ++index) {
          const ItemId item = view.item(index);
          const auto labels = view.labels(index);
          const auto kappa_row = model.kappa.Row(view.worker(index));
          activity.ForEach(item, [&](std::size_t t, double phi_weight) {
            double* bank = banks.data() + t * M * C;
            for (std::size_t m = 0; m < M; ++m) {
              const double weight = phi_weight * kappa_row[m];
              if (weight < kSkipMass) continue;
              double* row = bank + m * C;
              for (LabelId c : labels) row[c] += weight;
            }
          });
        }
      },
      [](std::span<double>& into, std::span<double>& from) {
        simd::Accumulate(into, from);
      },
      [&](std::span<double>& root) {
        for (std::size_t t = 0; t < T; ++t) {
          simd::Accumulate(model.lambda[t].Data(),
                           root.subspan(t * M * C, M * C));
        }
      },
      max_blocks);
}

void UpdateZeta(CpaModel& model, const ClusterActivity& activity,
                const SweepScheduler& scheduler) {
  SetZeta(model, ReduceLabelChannel(model, activity, scheduler));
}

void UpdateThetaChannel(CpaModel& model, const ClusterActivity& activity,
                        const SweepScheduler& scheduler) {
  SetThetaChannel(model, ReduceLabelChannel(model, activity, scheduler));
}

void UpdateZetaAndThetaChannel(CpaModel& model, const ClusterActivity& activity,
                               const SweepScheduler& scheduler) {
  const LabelChannelStats stats = ReduceLabelChannel(model, activity, scheduler);
  SetZeta(model, stats);
  SetThetaChannel(model, stats);
}

// ---------------------------------------------------------------------------
// Cluster seeding
// ---------------------------------------------------------------------------

LabelSet ConsensusFromEvidence(const CpaModel& model, ItemId item) {
  LabelSet consensus;
  LabelId best_label = 0;
  double best_weight = -1.0;
  for (const auto& [c, weight] : model.y_evidence[item]) {
    if (weight >= 0.5) consensus.Add(c);
    if (weight > best_weight) {
      best_weight = weight;
      best_label = c;
    }
  }
  if (consensus.empty() && best_weight >= 0.0) consensus.Add(best_label);
  return consensus;
}

double WriteSeedRow(CpaModel& model, ItemId item, std::size_t cluster) {
  // One-hot: any residual spread would leak every seeded item's evidence
  // into every cluster's statistics (the offline fit recomputes ϕ each
  // sweep, but the online learner only revisits items when they reappear).
  // The change is taken over the union of the old support and the seed
  // (an initial old row is regenerated).
  const std::uint32_t seed[] = {static_cast<std::uint32_t>(cluster)};
  const double one[] = {1.0};
  const double change = model.phi.MaxAbsDiff(item, seed, one);
  model.phi.AssignOneHot(item, cluster);
  return change;
}

double SeedClustersFromConsensus(CpaModel& model) {
  // Symmetry breaking for the item clusters: items sharing an identical
  // majority-consensus label set start in the same cluster. Distinct
  // consensus sets are ranked by frequency and assigned cluster indices in
  // that order — collision-free for the T most frequent sets, and aligned
  // with the size-biased geometry of the truncated stick-breaking prior
  // (E[ln τ_t] decays with t). Items whose set ranks beyond T join the
  // assigned cluster with the highest Jaccard overlap. Without label-
  // aligned seeding the truncated mixture routinely locks into clusterings
  // uncorrelated with the label structure.
  const std::size_t T = model.num_clusters();
  if (T <= 1) return 0.0;

  struct Group {
    LabelSet consensus;
    std::vector<ItemId> items;
  };
  std::map<std::string, Group> groups;
  for (ItemId i = 0; i < model.num_items(); ++i) {
    const LabelSet consensus = ConsensusFromEvidence(model, i);
    if (consensus.empty()) continue;  // no evidence: keep the current row
    Group& group = groups[consensus.ToString()];
    group.consensus = consensus;
    group.items.push_back(i);
  }
  std::vector<const Group*> ranked;
  ranked.reserve(groups.size());
  for (const auto& [key, group] : groups) ranked.push_back(&group);
  std::sort(ranked.begin(), ranked.end(), [](const Group* a, const Group* b) {
    if (a->items.size() != b->items.size()) return a->items.size() > b->items.size();
    return a->consensus.labels()[0] < b->consensus.labels()[0];  // deterministic
  });

  // Every evidenced item is in exactly one group, so each row is written
  // once and its seed change is its change over the whole call.
  double change = 0.0;
  const std::size_t assigned = std::min(ranked.size(), T);
  for (std::size_t rank = 0; rank < assigned; ++rank) {
    for (ItemId i : ranked[rank]->items) {
      change = std::max(change, WriteSeedRow(model, i, rank));
    }
  }
  // Overflow sets: join the assigned cluster with the best Jaccard match.
  for (std::size_t rank = assigned; rank < ranked.size(); ++rank) {
    std::size_t best_cluster = assigned - 1;
    double best_score = -1.0;
    for (std::size_t candidate = 0; candidate < assigned; ++candidate) {
      const double score =
          ranked[rank]->consensus.Jaccard(ranked[candidate]->consensus);
      if (score > best_score) {
        best_score = score;
        best_cluster = candidate;
      }
    }
    for (ItemId i : ranked[rank]->items) {
      change = std::max(change, WriteSeedRow(model, i, best_cluster));
    }
  }
  return change;
}

}  // namespace cpa::sweep
