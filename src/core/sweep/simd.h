#ifndef CPA_CORE_SWEEP_SIMD_H_
#define CPA_CORE_SWEEP_SIMD_H_

/// \file simd.h
/// \brief Runtime-dispatched SIMD kernels for the hot contiguous-span loops.
///
/// The sweep layer's REDUCE merges (λ/ζ/θ banks), the evidence AXPYs over
/// `elog_theta_delta_t`, and the truncated softmax of the Eq. 2/3
/// responsibility rows all sweep contiguous double spans — the flat layouts
/// from the memory-plane PR were built so these loops could vectorize. This
/// header is the dispatch seam: one `Kernels` table of function pointers per
/// ISA level, resolved once at startup from cpuid (`__builtin_cpu_supports`)
/// and the `CPA_SIMD` environment variable, consumed through thin inline
/// span wrappers.
///
/// ## The bit-identity contract
///
/// Fits must stay bit-identical across {1..N threads} × {arena, heap} ×
/// {scalar, AVX2}, so every kernel obeys one rule: **the sequence of IEEE
/// operations per output value is identical at every level.**
///
/// - Element-wise kernels (`accumulate`, `axpy`) are trivially identical —
///   lane i only ever touches element i.
/// - Summing reductions (`sum`, `dot`, the softmax/log-sum-exp sums) use a
///   fixed *lane-ordered* shape at every level: four independent
///   accumulators fed in steps of four, the tail folded into lanes 0..r-1,
///   then one fixed horizontal combine `(l0+l1)+(l2+l3)`. The scalar
///   fallback implements exactly this shape with plain doubles; the AVX2
///   variant performs the same per-lane additions with vector instructions.
/// - `max_value` is exempt from lane ordering: max is a pure selection, so
///   any association yields identical bits (both forms skip NaN inputs the
///   same way), and the AVX2 variant exploits that with extra accumulator
///   chains to beat the vmaxpd latency.
/// - `exp` stays per-lane scalar `std::exp` in both variants (a vectorized
///   polynomial would diverge from libm in the last ulp), and no variant may
///   use FMA (it rounds once where mul+add rounds twice).
///
/// ### Sparse rows
///
/// `SoftmaxActive` (util/special_functions.h) is the softmax of a row whose
/// only non-−inf entries sit at a known ascending id list — prediction's
/// per-item cluster posterior. It reproduces the dense softmax's operations
/// from the listed ids alone: the max skips −inf (selection); once the max
/// is finite each skipped −inf would add exp(−inf) = +0.0 to its lane,
/// which leaves the lane unchanged; and each listed id t adds into lane
/// t % 4, the lane the dense sum uses for element t in its main loop and
/// its tail alike (the tail starts at a multiple of 4). The combine, the
/// log, the per-id exp and the uniform fallback are the dense ones. It has
/// one body for every level, since the dense variants differ only in how
/// they take the max.
///
/// ### Fused ϕ row kernels
///
/// `evidence_scores` and `softmax_floored_pairs` split the evidence-only ϕ
/// row update into one score pass and one pair-emitting softmax, with the
/// operations of the unfused chain (copy E ln τ, one `axpy` per evidence
/// term, `softmax_floored`, then the store's compaction):
///
/// - `evidence_scores` applies each element's terms in the chain's order,
///   one mul then one add each, so every score has the chain's bits. Its
///   max is a `max_value` selection over the finished scores, taken in the
///   same pass in four lane chains at both levels, so the two levels
///   return the same bits. Against `max_value` any order selects the same
///   value: only a ±0 tie could pick the other zero, and neither v − (±0)
///   nor exp(±0) tells them apart downstream.
/// - `softmax_floored_pairs` takes that max, so it skips the max pass. A
///   survivor t adds its exp into lane t % 4, as the dense kernel does, and
///   the combine is the dense one. Only survivors are divided by the sum,
///   and a floored entry's 0 is never written, which leaves out only the
///   zeros the store would drop. The caller keeps the dense uniform
///   fallback for a row whose max is not finite.
///
/// ### Community-vectorised Eq. 2 and Eq. 6
///
/// `answer_community_scores` (the κ row's answer term) and
/// `answer_lambda_add` (one answer's λ statistic) read and write the
/// label-major layout of `CpaModel::lambda` and `CpaModel::elog_psi`:
/// cluster t's row holds, for every label c, the M communities
/// contiguously at t·C·M + c·M. The communities are the vector lanes, so
/// community m is lane m % 4 of its 4-block, and the tail of M % 4
/// communities is scalar:
///
/// - `answer_community_scores` gives each community the per-element
///   operations of the per-(cluster, community) loop it replaces: an
///   answer log-likelihood that starts at +0.0 and adds the labels in
///   order, then one mul by the cluster's ϕ weight and one add into the
///   score, cluster by cluster. Lane m does exactly that for m.
/// - `answer_lambda_add` adds w = ϕ·κ_m to each labelled cell unless
///   w < `skip`. The scalar twin skips such a community; the AVX2 variant
///   adds +0.0 in its lane instead (a block with no lane at or above
///   `skip` is skipped whole). x + (+0.0) is x for every x but −0.0, and
///   no cell it writes holds −0.0. It writes two kinds: the λ REDUCE
///   partials of `sweep::UpdateLambda`, each starting at +0.0, and, in
///   the online learner's batch step, `model.lambda` itself, whose cells
///   are ≥ λ0 > 0 (`Create` and `sweep::UpdateLambda` start them at λ0
///   or above, and `CpaModel::RestoreState` refuses any entry not > 0).
///   Either only takes adds of w ≥ `skip` > 0 (or a NaN, which stays
///   NaN). So both variants leave every cell with the same bits as the
///   skipping loop.
///
/// A kernel that cannot keep this contract ships scalar-only. The contract
/// is enforced by `tests/core/simd_kernels_test.cc`: exact scalar↔AVX2
/// equality on randomized spans (all alignments and remainder tails) plus a
/// full-fit bit-identity run.
///
/// ## Adding an ISA variant
///
/// 1. Implement the kernel set in `sweep_kernels_avx2.cc` (same TU as the
///    scalar reference, `__attribute__((target(...)))` per function — the
///    file itself compiles at the baseline ISA so the dispatch can fall
///    back on machines without the extension).
/// 2. Add a `Level` enumerator, extend `KernelsFor`/`DetectLevel` and the
///    `CPA_SIMD` spelling in `ParseLevelSpec`.
/// 3. Extend the equality suite to pin the new variant against scalar.
///
/// `CPA_SIMD=off` (or `scalar`) forces the scalar table; `CPA_SIMD=avx2`
/// requests AVX2 and falls back to scalar (with a stderr note) when the CPU
/// lacks it; unset/`auto` picks the best supported level. `SimdReportLine()`
/// is the one-line provenance string the server banner and every
/// `BenchReport` config block carry.

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <string_view>

namespace cpa::simd {

/// ISA levels the dispatch can select. Order is capability order.
enum class Level {
  kScalar = 0,  ///< lane-ordered portable C++ (the reference semantics)
  kAvx2 = 1,    ///< 4-wide AVX2, same per-lane operation sequence
};

/// \brief One ISA level's kernel set. All pointers are always non-null.
///
/// Raw pointers + sizes rather than spans: the table is the ABI between the
/// dispatch and the per-ISA TU, and the wrappers below keep call sites
/// span-typed. Every entry accepts n == 0.
struct Kernels {
  /// into[i] += from[i] — the λ/ζ/θ REDUCE merge/fold and stick-mass rows.
  void (*accumulate)(double* into, const double* from, std::size_t n);
  /// out[i] += scale * in[i] — the `elog_theta_delta_t` evidence AXPY.
  void (*axpy)(double scale, const double* in, double* out, std::size_t n);
  /// Lane-ordered Σ v[i].
  double (*sum)(const double* v, std::size_t n);
  /// Lane-ordered Σ a[i]·b[i] (no FMA).
  double (*dot)(const double* a, const double* b, std::size_t n);
  /// Lane-ordered running max (std::max semantics); -inf for n == 0.
  double (*max_value)(const double* v, std::size_t n);
  /// Numerically stable ln Σ exp(v[i]); -inf for n == 0.
  double (*log_sum_exp)(const double* v, std::size_t n);
  /// Dense softmax in place; returns the log-normaliser (uniform fill on
  /// degenerate all--inf input, matching the historical scalar semantics).
  double (*softmax)(double* v, std::size_t n);
  /// Truncated softmax in place: entries more than `floor_nats` below the
  /// row max become exactly 0. Returns the log-normaliser.
  double (*softmax_floored)(double* v, std::size_t n, double floor_nats);
  /// Builds a ϕ score row and returns its max: out[i] = init[i] +
  /// Σ_k scales[k]·rows[k][i], each term one mul and one add in k order —
  /// the per-element operations of copying `init` and running one `axpy`
  /// per term. The max has `max_value`'s semantics (NaN skipped; -inf for
  /// n == 0). `rows` and `scales` hold `terms` entries (0 copies `init`).
  double (*evidence_scores)(const double* init, const double* const* rows,
                            const double* scales, std::size_t terms, double* out,
                            std::size_t n);
  /// `softmax_floored` of `v` given its finite max, emitted as the
  /// surviving (index, weight) pairs ascending by index into `indices` and
  /// `weights` (each n long); returns their count. Same lane sums, exps and
  /// divides as `softmax_floored`, but only the survivors are written and
  /// divided. `v` is left unchanged.
  std::size_t (*softmax_floored_pairs)(const double* v, std::size_t n, double max,
                                       double floor_nats, std::uint32_t* indices,
                                       double* weights);
  /// Adds four of ϕ's initial rows into `into`, element by element and in
  /// row order: into[i] += row_0[i], then row_1[i], row_2[i], row_3[i].
  /// Row k is regenerated from the xoshiro256** state `states[4k..4k+3]`:
  /// row_k[i] = `JitteredDraw` / sums[k] of its i-th draw (core/phi_rows.h).
  /// The AVX2 variant runs the four generators as the four lanes, with the
  /// same integer steps, an exact u64→double conversion, and the same
  /// mul, add and div per value.
  void (*add_jittered_rows4)(const std::uint64_t* states, const double* sums,
                             double* into, std::size_t n);
  /// Eq. 2's term of one answer, for the `count` (cluster, weight) pairs of
  /// its item's activity run: for every community m < M and every k in
  /// order, scores[m] += weights[k] · Σ_j cells[clusters[k]·stride +
  /// labels[j]·M + m], the inner sum starting at +0.0 and taking the
  /// `num_labels` labels in order. `cells` is the label-major E ln ψ table
  /// (`stride` = C·M doubles per cluster).
  void (*answer_community_scores)(const double* cells, std::size_t stride,
                                  const std::uint32_t* clusters, const double* weights,
                                  std::size_t count, const std::uint32_t* labels,
                                  std::size_t num_labels, double* scores, std::size_t M);
  /// Eq. 6's statistic of one answer into λ or a λ partial, in the same
  /// layout: for every k and m, with w = weights[k]·kappa[m], each labelled cell
  /// cells[clusters[k]·stride + labels[j]·M + m] += w unless w < `skip`.
  /// No cell may hold −0.0 (see "Community-vectorised Eq. 2 and Eq. 6").
  void (*answer_lambda_add)(double* cells, std::size_t stride,
                            const std::uint32_t* clusters, const double* weights,
                            std::size_t count, const std::uint32_t* labels,
                            std::size_t num_labels, const double* kappa, double skip,
                            std::size_t M);
};

/// The kernel table for `level`. Requesting a level the build or CPU cannot
/// run returns the scalar table, so the result is always safe to call.
const Kernels& KernelsFor(Level level);

/// True when the binary carries AVX2 variants and the CPU reports AVX2.
bool Avx2Available();

/// The level the process is running at (env override applied, lazily
/// resolved on first use and then stable).
Level ActiveLevel();

/// True when `CPA_SIMD` pinned the level (off/scalar/avx2/auto — `auto`
/// does not count as forced).
bool ActiveLevelForced();

/// The active kernel table — what every wrapper below calls through.
const Kernels& Active();

/// "scalar" / "avx2".
std::string_view LevelName(Level level);

/// Parses a `CPA_SIMD` spelling ("off", "scalar", "avx2", "auto", "on").
/// Returns false for unknown spellings. `*forced` reports whether the
/// spelling pins a level (everything except "auto"/"on"/"").
bool ParseLevelSpec(std::string_view spec, Level* level, bool* forced);

/// Pins the active level for the rest of the process (test hook for the
/// scalar-vs-AVX2 full-fit identity suite; levels the CPU cannot run clamp
/// to scalar). Not thread-safe against in-flight kernels — call between
/// fits only.
void SetLevelForTesting(Level level);

/// One-line provenance string, e.g. "simd: avx2 (auto)" or
/// "simd: scalar (forced via CPA_SIMD)".
std::string SimdReportLine();

// ---------------------------------------------------------------------------
// Span wrappers over the active table (the call-site API)
// ---------------------------------------------------------------------------

/// into[i] += from[i] over equal-sized spans.
inline void Accumulate(std::span<double> into, std::span<const double> from) {
  Active().accumulate(into.data(), from.data(), into.size());
}

}  // namespace cpa::simd

#endif  // CPA_CORE_SWEEP_SIMD_H_
