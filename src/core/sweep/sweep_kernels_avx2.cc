/// \file sweep_kernels_avx2.cc
/// \brief The dispatched kernel TU: lane-ordered scalar reference kernels,
/// their AVX2 twins, and the runtime dispatch (see simd.h for the
/// bit-identity contract).
///
/// Both variants of every kernel live in this one TU so the pairing is
/// reviewable side by side. The file compiles at the baseline ISA; only the
/// functions marked `CPA_TARGET_AVX2` may execute AVX2 instructions, and
/// the dispatch never selects them unless cpuid reports the extension — so
/// the same binary runs on pre-AVX2 machines. No function here may use FMA
/// (AVX2 alone does not enable it, and the target attribute spells only
/// "avx2"), keeping mul+add double-rounding identical across variants.
///
/// The moved entry points: `cpa::Sum`/`Dot`/`Axpy` (declared in
/// util/matrix.h) and `cpa::LogSumExp`/`SoftmaxInPlace` (declared in
/// util/special_functions.h) are defined here rather than in their util
/// TUs, so every caller — sweep kernels, prediction, SVI, the CBCC/BCC
/// baselines — routes through the one dispatch table instead of growing
/// per-caller copies of the loops.

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <limits>

#include "core/phi_rows.h"
#include "core/sweep/simd.h"
#include "util/logging.h"
#include "util/matrix.h"
#include "util/special_functions.h"

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define CPA_SIMD_HAVE_AVX2 1
#include <immintrin.h>
#define CPA_TARGET_AVX2 __attribute__((target("avx2")))
#else
#define CPA_SIMD_HAVE_AVX2 0
#define CPA_TARGET_AVX2
#endif

namespace cpa::simd {
namespace {

constexpr double kNegInf = -std::numeric_limits<double>::infinity();

/// Degenerate softmax input (all -inf, or a stray +inf/NaN maximum): fall
/// back to the uniform distribution so downstream responsibilities stay
/// well formed. Shared by every level — identical by construction.
double UniformFallback(double* v, std::size_t n, double log_norm) {
  if (n > 0) {
    const double uniform = 1.0 / static_cast<double>(n);
    std::fill(v, v + n, uniform);
  }
  return log_norm;
}

// ---------------------------------------------------------------------------
// Scalar reference kernels (lane-ordered; see simd.h)
// ---------------------------------------------------------------------------

void AccumulateScalar(double* into, const double* from, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) into[i] += from[i];
}

void AxpyScalar(double scale, const double* in, double* out, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) out[i] += scale * in[i];
}

double SumScalar(const double* v, std::size_t n) {
  double lane[4] = {0.0, 0.0, 0.0, 0.0};
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    lane[0] += v[i + 0];
    lane[1] += v[i + 1];
    lane[2] += v[i + 2];
    lane[3] += v[i + 3];
  }
  for (std::size_t l = 0; i < n; ++i, ++l) lane[l] += v[i];
  return (lane[0] + lane[1]) + (lane[2] + lane[3]);
}

double DotScalar(const double* a, const double* b, std::size_t n) {
  double lane[4] = {0.0, 0.0, 0.0, 0.0};
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    lane[0] += a[i + 0] * b[i + 0];
    lane[1] += a[i + 1] * b[i + 1];
    lane[2] += a[i + 2] * b[i + 2];
    lane[3] += a[i + 3] * b[i + 3];
  }
  for (std::size_t l = 0; i < n; ++i, ++l) lane[l] += a[i] * b[i];
  return (lane[0] + lane[1]) + (lane[2] + lane[3]);
}

double MaxValueScalar(const double* v, std::size_t n) {
  double lane[4] = {kNegInf, kNegInf, kNegInf, kNegInf};
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    lane[0] = std::max(lane[0], v[i + 0]);
    lane[1] = std::max(lane[1], v[i + 1]);
    lane[2] = std::max(lane[2], v[i + 2]);
    lane[3] = std::max(lane[3], v[i + 3]);
  }
  for (std::size_t l = 0; i < n; ++i, ++l) lane[l] = std::max(lane[l], v[i]);
  return std::max(std::max(lane[0], lane[1]), std::max(lane[2], lane[3]));
}

/// Lane-ordered Σ exp(v[i] - shift). `exp` is per-lane `std::exp` at every
/// level, so the only vectorizable work is the shift — kept anyway for the
/// shared shape.
double SumExpScalar(const double* v, std::size_t n, double shift) {
  double lane[4] = {0.0, 0.0, 0.0, 0.0};
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    lane[0] += std::exp(v[i + 0] - shift);
    lane[1] += std::exp(v[i + 1] - shift);
    lane[2] += std::exp(v[i + 2] - shift);
    lane[3] += std::exp(v[i + 3] - shift);
  }
  for (std::size_t l = 0; i < n; ++i, ++l) lane[l] += std::exp(v[i] - shift);
  return (lane[0] + lane[1]) + (lane[2] + lane[3]);
}

double LogSumExpScalar(const double* v, std::size_t n) {
  if (n == 0) return kNegInf;
  const double max = MaxValueScalar(v, n);
  if (!std::isfinite(max)) return max;  // all -inf (or a stray +inf/NaN)
  return max + std::log(SumExpScalar(v, n, max));
}

double SoftmaxScalar(double* v, std::size_t n) {
  if (n == 0) return 0.0;
  const double log_norm = LogSumExpScalar(v, n);
  if (!std::isfinite(log_norm)) return UniformFallback(v, n, log_norm);
  for (std::size_t i = 0; i < n; ++i) v[i] = std::exp(v[i] - log_norm);
  return log_norm;
}

double SoftmaxFlooredScalar(double* v, std::size_t n, double floor_nats) {
  if (n == 0) return 0.0;
  const double max = MaxValueScalar(v, n);
  if (!std::isfinite(max)) return UniformFallback(v, n, max);
  // Lane-ordered sum of the surviving exps; floored entries become exactly
  // 0. The comparison stays in `(v - max) > -floor_nats` form — rewriting
  // it as `v > max - floor_nats` would round differently at the boundary.
  double lane[4] = {0.0, 0.0, 0.0, 0.0};
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    for (std::size_t l = 0; l < 4; ++l) {
      const double t = v[i + l] - max;
      if (t > -floor_nats) {
        const double e = std::exp(t);
        v[i + l] = e;
        lane[l] += e;
      } else {
        v[i + l] = 0.0;
      }
    }
  }
  for (std::size_t l = 0; i < n; ++i, ++l) {
    const double t = v[i] - max;
    if (t > -floor_nats) {
      const double e = std::exp(t);
      v[i] = e;
      lane[l] += e;
    } else {
      v[i] = 0.0;
    }
  }
  const double sum = (lane[0] + lane[1]) + (lane[2] + lane[3]);
  for (std::size_t j = 0; j < n; ++j) v[j] /= sum;  // sum >= exp(0) = 1
  return max + std::log(sum);
}

double EvidenceScoresScalar(const double* init, const double* const* rows,
                            const double* scales, std::size_t terms, double* out,
                            std::size_t n) {
  double lane[4] = {kNegInf, kNegInf, kNegInf, kNegInf};
  for (std::size_t i = 0; i < n; ++i) {
    double score = init[i];
    for (std::size_t k = 0; k < terms; ++k) score += scales[k] * rows[k][i];
    out[i] = score;
    lane[i % 4] = std::max(lane[i % 4], score);
  }
  return std::max(std::max(lane[0], lane[1]), std::max(lane[2], lane[3]));
}

std::size_t SoftmaxFlooredPairsScalar(const double* v, std::size_t n, double max,
                                      double floor_nats, std::uint32_t* indices,
                                      double* weights) {
  // Element i adds into lane i % 4, as in SoftmaxFlooredScalar's main loop
  // and tail (the tail starts at a multiple of 4).
  double lane[4] = {0.0, 0.0, 0.0, 0.0};
  std::size_t count = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const double t = v[i] - max;
    if (t > -floor_nats) {
      const double e = std::exp(t);
      indices[count] = static_cast<std::uint32_t>(i);
      weights[count] = e;
      ++count;
      lane[i % 4] += e;
    }
  }
  const double sum = (lane[0] + lane[1]) + (lane[2] + lane[3]);
  for (std::size_t k = 0; k < count; ++k) weights[k] /= sum;
  return count;
}

void AddJitteredRows4Scalar(const std::uint64_t* states, const double* sums,
                            double* into, std::size_t n) {
  Rng g0 = Rng::FromState({states[0], states[1], states[2], states[3]});
  Rng g1 = Rng::FromState({states[4], states[5], states[6], states[7]});
  Rng g2 = Rng::FromState({states[8], states[9], states[10], states[11]});
  Rng g3 = Rng::FromState({states[12], states[13], states[14], states[15]});
  // Four independent streams per column hide each other's draw and divide
  // latency; each element still receives rows 0, 1, 2, 3 in that order.
  for (std::size_t i = 0; i < n; ++i) {
    double x = into[i];
    x += JitteredDraw(g0) / sums[0];
    x += JitteredDraw(g1) / sums[1];
    x += JitteredDraw(g2) / sums[2];
    x += JitteredDraw(g3) / sums[3];
    into[i] = x;
  }
}

/// `answer_community_scores` for communities [first, M): the scalar twin
/// and the AVX2 variant's tail.
void CommunityScoresRange(const double* cells, std::size_t stride,
                          const std::uint32_t* clusters, const double* weights,
                          std::size_t count, const std::uint32_t* labels,
                          std::size_t num_labels, double* scores, std::size_t M,
                          std::size_t first) {
  for (std::size_t k = 0; k < count; ++k) {
    const double* cluster = cells + clusters[k] * stride;
    for (std::size_t m = first; m < M; ++m) {
      double loglik = 0.0;
      for (std::size_t j = 0; j < num_labels; ++j) loglik += cluster[labels[j] * M + m];
      scores[m] += weights[k] * loglik;
    }
  }
}

void AnswerCommunityScoresScalar(const double* cells, std::size_t stride,
                                 const std::uint32_t* clusters, const double* weights,
                                 std::size_t count, const std::uint32_t* labels,
                                 std::size_t num_labels, double* scores, std::size_t M) {
  CommunityScoresRange(cells, stride, clusters, weights, count, labels, num_labels,
                       scores, M, 0);
}

/// `answer_lambda_add` for communities [first, M): the scalar twin and the
/// AVX2 variant's tail.
void LambdaAddRange(double* cells, std::size_t stride, const std::uint32_t* clusters,
                    const double* weights, std::size_t count, const std::uint32_t* labels,
                    std::size_t num_labels, const double* kappa, double skip,
                    std::size_t M, std::size_t first) {
  for (std::size_t k = 0; k < count; ++k) {
    double* cluster = cells + clusters[k] * stride;
    for (std::size_t m = first; m < M; ++m) {
      const double weight = weights[k] * kappa[m];
      if (weight < skip) continue;
      for (std::size_t j = 0; j < num_labels; ++j) cluster[labels[j] * M + m] += weight;
    }
  }
}

void AnswerLambdaAddScalar(double* cells, std::size_t stride,
                           const std::uint32_t* clusters, const double* weights,
                           std::size_t count, const std::uint32_t* labels,
                           std::size_t num_labels, const double* kappa, double skip,
                           std::size_t M) {
  LambdaAddRange(cells, stride, clusters, weights, count, labels, num_labels, kappa, skip,
                 M, 0);
}

constexpr Kernels kScalarKernels = {
    AccumulateScalar, AxpyScalar,    SumScalar,     DotScalar,
    MaxValueScalar,   LogSumExpScalar, SoftmaxScalar, SoftmaxFlooredScalar,
    EvidenceScoresScalar, SoftmaxFlooredPairsScalar, AddJitteredRows4Scalar,
    AnswerCommunityScoresScalar, AnswerLambdaAddScalar,
};

// ---------------------------------------------------------------------------
// AVX2 variants (same per-lane operation sequence; see simd.h)
// ---------------------------------------------------------------------------

#if CPA_SIMD_HAVE_AVX2

CPA_TARGET_AVX2 void AccumulateAvx2(double* into, const double* from,
                                    std::size_t n) {
  std::size_t i = 0;
  for (; i + 16 <= n; i += 16) {
    _mm256_storeu_pd(into + i, _mm256_add_pd(_mm256_loadu_pd(into + i),
                                             _mm256_loadu_pd(from + i)));
    _mm256_storeu_pd(into + i + 4, _mm256_add_pd(_mm256_loadu_pd(into + i + 4),
                                                 _mm256_loadu_pd(from + i + 4)));
    _mm256_storeu_pd(into + i + 8, _mm256_add_pd(_mm256_loadu_pd(into + i + 8),
                                                 _mm256_loadu_pd(from + i + 8)));
    _mm256_storeu_pd(into + i + 12,
                     _mm256_add_pd(_mm256_loadu_pd(into + i + 12),
                                   _mm256_loadu_pd(from + i + 12)));
  }
  for (; i + 4 <= n; i += 4) {
    _mm256_storeu_pd(into + i, _mm256_add_pd(_mm256_loadu_pd(into + i),
                                             _mm256_loadu_pd(from + i)));
  }
  for (; i < n; ++i) into[i] += from[i];
}

CPA_TARGET_AVX2 void AxpyAvx2(double scale, const double* in, double* out,
                              std::size_t n) {
  const __m256d s = _mm256_set1_pd(scale);
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    _mm256_storeu_pd(
        out + i, _mm256_add_pd(_mm256_loadu_pd(out + i),
                               _mm256_mul_pd(s, _mm256_loadu_pd(in + i))));
    _mm256_storeu_pd(
        out + i + 4,
        _mm256_add_pd(_mm256_loadu_pd(out + i + 4),
                      _mm256_mul_pd(s, _mm256_loadu_pd(in + i + 4))));
  }
  for (; i + 4 <= n; i += 4) {
    _mm256_storeu_pd(
        out + i, _mm256_add_pd(_mm256_loadu_pd(out + i),
                               _mm256_mul_pd(s, _mm256_loadu_pd(in + i))));
  }
  for (; i < n; ++i) out[i] += scale * in[i];
}

CPA_TARGET_AVX2 double SumAvx2(const double* v, std::size_t n) {
  __m256d acc = _mm256_setzero_pd();
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) acc = _mm256_add_pd(acc, _mm256_loadu_pd(v + i));
  alignas(32) double lane[4];
  _mm256_store_pd(lane, acc);
  for (std::size_t l = 0; i < n; ++i, ++l) lane[l] += v[i];
  return (lane[0] + lane[1]) + (lane[2] + lane[3]);
}

CPA_TARGET_AVX2 double DotAvx2(const double* a, const double* b,
                               std::size_t n) {
  __m256d acc = _mm256_setzero_pd();
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    acc = _mm256_add_pd(
        acc, _mm256_mul_pd(_mm256_loadu_pd(a + i), _mm256_loadu_pd(b + i)));
  }
  alignas(32) double lane[4];
  _mm256_store_pd(lane, acc);
  for (std::size_t l = 0; i < n; ++i, ++l) lane[l] += a[i] * b[i];
  return (lane[0] + lane[1]) + (lane[2] + lane[3]);
}

CPA_TARGET_AVX2 double MaxValueAvx2(const double* v, std::size_t n) {
  // Unlike the sums, max needs no fixed lane order: it is a pure selection,
  // so any association yields the same bits, and both forms skip NaN inputs
  // the same way — `std::max(acc, x)` keeps acc when x is NaN, and
  // `vmaxpd(x, acc)` returns its second operand (acc) when either input is
  // NaN or the two are equal (so ±0 ties also keep acc). That freedom buys
  // four independent accumulator chains; a single chain would serialize on
  // the ~4-cycle vmaxpd latency and lose to the autovectorized scalar code.
  __m256d acc0 = _mm256_set1_pd(kNegInf);
  __m256d acc1 = acc0;
  __m256d acc2 = acc0;
  __m256d acc3 = acc0;
  std::size_t i = 0;
  for (; i + 16 <= n; i += 16) {
    acc0 = _mm256_max_pd(_mm256_loadu_pd(v + i), acc0);
    acc1 = _mm256_max_pd(_mm256_loadu_pd(v + i + 4), acc1);
    acc2 = _mm256_max_pd(_mm256_loadu_pd(v + i + 8), acc2);
    acc3 = _mm256_max_pd(_mm256_loadu_pd(v + i + 12), acc3);
  }
  for (; i + 4 <= n; i += 4) {
    acc0 = _mm256_max_pd(_mm256_loadu_pd(v + i), acc0);
  }
  acc0 = _mm256_max_pd(_mm256_max_pd(acc1, acc2), _mm256_max_pd(acc3, acc0));
  alignas(32) double lane[4];
  _mm256_store_pd(lane, acc0);
  for (std::size_t l = 0; i < n; ++i, ++l) lane[l] = std::max(lane[l], v[i]);
  return std::max(std::max(lane[0], lane[1]), std::max(lane[2], lane[3]));
}

// exp dominates and stays per-lane scalar at every level, so the AVX2
// variant reuses the scalar body verbatim — a vector subtract would have to
// round-trip through the stack to feed `std::exp` and measures *slower*
// than the straight loop. The AVX2 win for LogSumExp/softmax comes from the
// max pass above.
CPA_TARGET_AVX2 double SumExpAvx2(const double* v, std::size_t n,
                                  double shift) {
  return SumExpScalar(v, n, shift);
}

CPA_TARGET_AVX2 double LogSumExpAvx2(const double* v, std::size_t n) {
  if (n == 0) return kNegInf;
  const double max = MaxValueAvx2(v, n);
  if (!std::isfinite(max)) return max;
  return max + std::log(SumExpAvx2(v, n, max));
}

CPA_TARGET_AVX2 double SoftmaxAvx2(double* v, std::size_t n) {
  if (n == 0) return 0.0;
  const double log_norm = LogSumExpAvx2(v, n);
  if (!std::isfinite(log_norm)) return UniformFallback(v, n, log_norm);
  // Per-lane scalar exp, as in the scalar reference (see SumExpAvx2).
  for (std::size_t i = 0; i < n; ++i) v[i] = std::exp(v[i] - log_norm);
  return log_norm;
}

CPA_TARGET_AVX2 double SoftmaxFlooredAvx2(double* v, std::size_t n,
                                          double floor_nats) {
  if (n == 0) return 0.0;
  const double max = MaxValueAvx2(v, n);
  if (!std::isfinite(max)) return UniformFallback(v, n, max);
  // Responsibility rows concentrate on a handful of clusters, so most
  // 4-blocks fail the floor entirely: one compare + movemask zeroes them
  // without touching `exp`. Surviving lanes take the scalar `std::exp`
  // path in lane order, exactly like the scalar reference.
  const __m256d maxv = _mm256_set1_pd(max);
  const __m256d cut = _mm256_set1_pd(-floor_nats);
  double lane[4] = {0.0, 0.0, 0.0, 0.0};
  alignas(32) double t[4];
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256d d = _mm256_sub_pd(_mm256_loadu_pd(v + i), maxv);
    const int alive = _mm256_movemask_pd(_mm256_cmp_pd(d, cut, _CMP_GT_OQ));
    if (alive == 0) {
      _mm256_storeu_pd(v + i, _mm256_setzero_pd());
      continue;
    }
    _mm256_store_pd(t, d);
    for (std::size_t l = 0; l < 4; ++l) {
      if (alive & (1 << l)) {
        const double e = std::exp(t[l]);
        v[i + l] = e;
        lane[l] += e;
      } else {
        v[i + l] = 0.0;
      }
    }
  }
  for (std::size_t l = 0; i < n; ++i, ++l) {
    const double d = v[i] - max;
    if (d > -floor_nats) {
      const double e = std::exp(d);
      v[i] = e;
      lane[l] += e;
    } else {
      v[i] = 0.0;
    }
  }
  const double sum = (lane[0] + lane[1]) + (lane[2] + lane[3]);
  const __m256d sv = _mm256_set1_pd(sum);
  std::size_t j = 0;
  for (; j + 4 <= n; j += 4) {
    _mm256_storeu_pd(v + j, _mm256_div_pd(_mm256_loadu_pd(v + j), sv));
  }
  for (; j < n; ++j) v[j] /= sum;
  return max + std::log(sum);
}

/// One 4-block of `EvidenceScoresScalar`'s scores: the terms in k order,
/// each one vmulpd then one vaddpd, as `AxpyAvx2` applies them.
CPA_TARGET_AVX2 inline __m256d EvidenceBlock(const double* init,
                                            const double* const* rows,
                                            const double* scales, std::size_t terms,
                                            std::size_t i) {
  __m256d score = _mm256_loadu_pd(init + i);
  for (std::size_t k = 0; k < terms; ++k) {
    score = _mm256_add_pd(
        score, _mm256_mul_pd(_mm256_set1_pd(scales[k]), _mm256_loadu_pd(rows[k] + i)));
  }
  return score;
}

CPA_TARGET_AVX2 double EvidenceScoresAvx2(const double* init,
                                          const double* const* rows,
                                          const double* scales, std::size_t terms,
                                          double* out, std::size_t n) {
  // Lane j of `max` sees elements j, j + 4, j + 8, … in order, as the
  // scalar lanes do; `vmaxpd(x, acc)` keeps acc on NaN and on ties, like
  // `std::max(acc, x)` (see MaxValueAvx2).
  __m256d max = _mm256_set1_pd(kNegInf);
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256d a = EvidenceBlock(init, rows, scales, terms, i);
    const __m256d b = EvidenceBlock(init, rows, scales, terms, i + 4);
    _mm256_storeu_pd(out + i, a);
    _mm256_storeu_pd(out + i + 4, b);
    max = _mm256_max_pd(b, _mm256_max_pd(a, max));
  }
  for (; i + 4 <= n; i += 4) {
    const __m256d a = EvidenceBlock(init, rows, scales, terms, i);
    _mm256_storeu_pd(out + i, a);
    max = _mm256_max_pd(a, max);
  }
  alignas(32) double lane[4];
  _mm256_store_pd(lane, max);
  for (std::size_t l = 0; i < n; ++i, ++l) {
    double score = init[i];
    for (std::size_t k = 0; k < terms; ++k) score += scales[k] * rows[k][i];
    out[i] = score;
    lane[l] = std::max(lane[l], score);
  }
  return std::max(std::max(lane[0], lane[1]), std::max(lane[2], lane[3]));
}

CPA_TARGET_AVX2 std::size_t SoftmaxFlooredPairsAvx2(const double* v, std::size_t n,
                                                    double max, double floor_nats,
                                                    std::uint32_t* indices,
                                                    double* weights) {
  // The block skip of SoftmaxFlooredAvx2, with nothing stored for a block
  // that fails the floor entirely; survivors take the scalar `std::exp` in
  // ascending lane order.
  const __m256d maxv = _mm256_set1_pd(max);
  const __m256d cut = _mm256_set1_pd(-floor_nats);
  double lane[4] = {0.0, 0.0, 0.0, 0.0};
  alignas(32) double t[4];
  std::size_t count = 0;
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256d d = _mm256_sub_pd(_mm256_loadu_pd(v + i), maxv);
    unsigned alive =
        static_cast<unsigned>(_mm256_movemask_pd(_mm256_cmp_pd(d, cut, _CMP_GT_OQ)));
    if (alive == 0) continue;
    _mm256_store_pd(t, d);
    do {
      const unsigned l = static_cast<unsigned>(__builtin_ctz(alive));
      const double e = std::exp(t[l]);
      indices[count] = static_cast<std::uint32_t>(i + l);
      weights[count] = e;
      ++count;
      lane[l] += e;
      alive &= alive - 1;
    } while (alive != 0);
  }
  for (std::size_t l = 0; i < n; ++i, ++l) {
    const double d = v[i] - max;
    if (d > -floor_nats) {
      const double e = std::exp(d);
      indices[count] = static_cast<std::uint32_t>(i);
      weights[count] = e;
      ++count;
      lane[l] += e;
    }
  }
  const double sum = (lane[0] + lane[1]) + (lane[2] + lane[3]);
  const __m256d sv = _mm256_set1_pd(sum);
  std::size_t k = 0;
  for (; k + 4 <= count; k += 4) {
    _mm256_storeu_pd(weights + k, _mm256_div_pd(_mm256_loadu_pd(weights + k), sv));
  }
  for (; k < count; ++k) weights[k] /= sum;
  return count;
}

CPA_TARGET_AVX2 inline __m256i Rotl64(__m256i x, int k) {
  return _mm256_or_si256(_mm256_slli_epi64(x, k), _mm256_srli_epi64(x, 64 - k));
}

/// Four xoshiro256** generators, one per lane: word j of generator k sits
/// in lane k of `s[j]`.
struct Xoshiro4 {
  __m256i s[4];
};

/// One `JitteredDraw` / sums per lane, stepping each lane's generator the
/// way `Rng::NextUint64` does (×5 and ×9 as shift-adds, which wrap alike).
CPA_TARGET_AVX2 inline __m256d JitteredStep(Xoshiro4& g, __m256d sums) {
  __m256i& s0 = g.s[0];
  __m256i& s1 = g.s[1];
  __m256i& s2 = g.s[2];
  __m256i& s3 = g.s[3];
  const __m256i times5 = _mm256_add_epi64(_mm256_slli_epi64(s1, 2), s1);
  const __m256i rotated = Rotl64(times5, 7);
  const __m256i result = _mm256_add_epi64(_mm256_slli_epi64(rotated, 3), rotated);
  const __m256i t = _mm256_slli_epi64(s1, 17);
  s2 = _mm256_xor_si256(s2, s0);
  s3 = _mm256_xor_si256(s3, s1);
  s1 = _mm256_xor_si256(s1, s2);
  s0 = _mm256_xor_si256(s0, s3);
  s2 = _mm256_xor_si256(s2, t);
  s3 = Rotl64(s3, 45);
  // u = (result >> 11)·2^-53, exactly: split the 53 bits into hi (21) and
  // lo (32), read lo as the double 0.5 + lo·2^-53 and hi as 2^31 + hi·2^-21
  // by OR-ing in their exponents, then (hi' − (2^31 + 0.5)) + lo'. Both
  // operations have representable results, so neither rounds.
  const __m256i bits = _mm256_srli_epi64(result, 11);
  const __m256d lo = _mm256_castsi256_pd(
      _mm256_or_si256(_mm256_and_si256(bits, _mm256_set1_epi64x(0xFFFFFFFF)),
                      _mm256_set1_epi64x(0x3FE0000000000000)));
  const __m256d hi = _mm256_castsi256_pd(_mm256_or_si256(
      _mm256_srli_epi64(bits, 32), _mm256_set1_epi64x(0x41E0000000000000)));
  const __m256d u =
      _mm256_add_pd(_mm256_sub_pd(hi, _mm256_set1_pd(0x1p31 + 0.5)), lo);
  const __m256d value = _mm256_add_pd(
      _mm256_set1_pd(1.0), _mm256_mul_pd(_mm256_set1_pd(0.1), u));
  return _mm256_div_pd(value, sums);
}

CPA_TARGET_AVX2 void AddJitteredRows4Avx2(const std::uint64_t* states,
                                          const double* sums, double* into,
                                          std::size_t n) {
  Xoshiro4 g;
  for (std::size_t j = 0; j < 4; ++j) {
    g.s[j] = _mm256_setr_epi64x(static_cast<long long>(states[j]),
                                static_cast<long long>(states[4 + j]),
                                static_cast<long long>(states[8 + j]),
                                static_cast<long long>(states[12 + j]));
  }
  const __m256d sum_lanes = _mm256_loadu_pd(sums);
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    // c_j holds column i + j of rows 0..3; transpose to r_k, columns
    // i..i+3 of row k, and add the rows in order.
    const __m256d c0 = JitteredStep(g, sum_lanes);
    const __m256d c1 = JitteredStep(g, sum_lanes);
    const __m256d c2 = JitteredStep(g, sum_lanes);
    const __m256d c3 = JitteredStep(g, sum_lanes);
    const __m256d lo01 = _mm256_unpacklo_pd(c0, c1);
    const __m256d hi01 = _mm256_unpackhi_pd(c0, c1);
    const __m256d lo23 = _mm256_unpacklo_pd(c2, c3);
    const __m256d hi23 = _mm256_unpackhi_pd(c2, c3);
    __m256d acc = _mm256_loadu_pd(into + i);
    acc = _mm256_add_pd(acc, _mm256_permute2f128_pd(lo01, lo23, 0x20));
    acc = _mm256_add_pd(acc, _mm256_permute2f128_pd(hi01, hi23, 0x20));
    acc = _mm256_add_pd(acc, _mm256_permute2f128_pd(lo01, lo23, 0x31));
    acc = _mm256_add_pd(acc, _mm256_permute2f128_pd(hi01, hi23, 0x31));
    _mm256_storeu_pd(into + i, acc);
  }
  if (i == n) return;
  alignas(32) std::uint64_t words[4][4];
  for (std::size_t j = 0; j < 4; ++j) {
    _mm256_store_si256(reinterpret_cast<__m256i*>(words[j]), g.s[j]);
  }
  std::uint64_t rest[16];
  for (std::size_t k = 0; k < 4; ++k) {
    for (std::size_t j = 0; j < 4; ++j) rest[4 * k + j] = words[j][k];
  }
  AddJitteredRows4Scalar(rest, sums, into + i, n - i);
}

/// `answer_community_scores` for the 4·V communities from m: lane l of
/// vector v is community m + 4v + l. Its log-likelihood starts at +0.0 and
/// adds the labels in order, and enters the score as one vmulpd and one
/// vaddpd per cluster in cluster order: the scalar loop's operations for
/// that community. Four clusters share each pass over the labels, so
/// their independent sums overlap.
template <std::size_t V>
CPA_TARGET_AVX2 inline void CommunityScoresBlock(const double* cells, std::size_t stride,
                                                 const std::uint32_t* clusters,
                                                 const double* weights, std::size_t count,
                                                 const std::uint32_t* labels,
                                                 std::size_t num_labels, double* scores,
                                                 std::size_t M, std::size_t m) {
  __m256d score[V];
  for (std::size_t v = 0; v < V; ++v) score[v] = _mm256_loadu_pd(scores + m + 4 * v);
  std::size_t k = 0;
  for (; k + 4 <= count; k += 4) {
    const double* cluster[4];
    __m256d loglik[4][V];
    for (std::size_t q = 0; q < 4; ++q) {
      cluster[q] = cells + clusters[k + q] * stride + m;
      for (std::size_t v = 0; v < V; ++v) loglik[q][v] = _mm256_setzero_pd();
    }
    for (std::size_t j = 0; j < num_labels; ++j) {
      const std::size_t cell = labels[j] * M;
      for (std::size_t q = 0; q < 4; ++q) {
        for (std::size_t v = 0; v < V; ++v) {
          loglik[q][v] =
              _mm256_add_pd(loglik[q][v], _mm256_loadu_pd(cluster[q] + cell + 4 * v));
        }
      }
    }
    for (std::size_t q = 0; q < 4; ++q) {
      const __m256d weight = _mm256_set1_pd(weights[k + q]);
      for (std::size_t v = 0; v < V; ++v) {
        score[v] = _mm256_add_pd(score[v], _mm256_mul_pd(weight, loglik[q][v]));
      }
    }
  }
  for (; k < count; ++k) {
    const double* cluster = cells + clusters[k] * stride + m;
    __m256d loglik[V];
    for (std::size_t v = 0; v < V; ++v) loglik[v] = _mm256_setzero_pd();
    for (std::size_t j = 0; j < num_labels; ++j) {
      const double* cell = cluster + labels[j] * M;
      for (std::size_t v = 0; v < V; ++v) {
        loglik[v] = _mm256_add_pd(loglik[v], _mm256_loadu_pd(cell + 4 * v));
      }
    }
    const __m256d weight = _mm256_set1_pd(weights[k]);
    for (std::size_t v = 0; v < V; ++v) {
      score[v] = _mm256_add_pd(score[v], _mm256_mul_pd(weight, loglik[v]));
    }
  }
  for (std::size_t v = 0; v < V; ++v) _mm256_storeu_pd(scores + m + 4 * v, score[v]);
}

CPA_TARGET_AVX2 void AnswerCommunityScoresAvx2(const double* cells, std::size_t stride,
                                               const std::uint32_t* clusters,
                                               const double* weights, std::size_t count,
                                               const std::uint32_t* labels,
                                               std::size_t num_labels, double* scores,
                                               std::size_t M) {
  std::size_t m = 0;
  for (; m + 8 <= M; m += 8) {
    CommunityScoresBlock<2>(cells, stride, clusters, weights, count, labels, num_labels,
                            scores, M, m);
  }
  for (; m + 4 <= M; m += 4) {
    CommunityScoresBlock<1>(cells, stride, clusters, weights, count, labels, num_labels,
                            scores, M, m);
  }
  if (m < M) {
    CommunityScoresRange(cells, stride, clusters, weights, count, labels, num_labels,
                         scores, M, m);
  }
}

CPA_TARGET_AVX2 void AnswerLambdaAddAvx2(double* cells, std::size_t stride,
                                         const std::uint32_t* clusters,
                                         const double* weights, std::size_t count,
                                         const std::uint32_t* labels,
                                         std::size_t num_labels, const double* kappa,
                                         double skip, std::size_t M) {
  // Lane l of a block is community m + l. A lane whose weight is below
  // `skip` adds +0.0 (the mask clears its bits), which leaves a partial
  // unchanged (simd.h); the compare is `!(w < skip)`, so a NaN weight is
  // added as the scalar loop adds it.
  const __m256d skip_lanes = _mm256_set1_pd(skip);
  const std::size_t blocks = M / 4 * 4;
  for (std::size_t k = 0; k < count; ++k) {
    double* cluster = cells + clusters[k] * stride;
    const __m256d phi = _mm256_set1_pd(weights[k]);
    for (std::size_t m = 0; m < blocks; m += 4) {
      const __m256d weight = _mm256_mul_pd(phi, _mm256_loadu_pd(kappa + m));
      const __m256d keep = _mm256_cmp_pd(weight, skip_lanes, _CMP_NLT_UQ);
      if (_mm256_movemask_pd(keep) == 0) continue;
      const __m256d add = _mm256_and_pd(weight, keep);
      for (std::size_t j = 0; j < num_labels; ++j) {
        double* cell = cluster + labels[j] * M + m;
        _mm256_storeu_pd(cell, _mm256_add_pd(_mm256_loadu_pd(cell), add));
      }
    }
  }
  if (blocks < M) {
    LambdaAddRange(cells, stride, clusters, weights, count, labels, num_labels, kappa,
                   skip, M, blocks);
  }
}

constexpr Kernels kAvx2Kernels = {
    AccumulateAvx2, AxpyAvx2,      SumAvx2,     DotAvx2,
    MaxValueAvx2,   LogSumExpAvx2, SoftmaxAvx2, SoftmaxFlooredAvx2,
    EvidenceScoresAvx2, SoftmaxFlooredPairsAvx2, AddJitteredRows4Avx2,
    AnswerCommunityScoresAvx2, AnswerLambdaAddAvx2,
};

#endif  // CPA_SIMD_HAVE_AVX2

// ---------------------------------------------------------------------------
// Dispatch
// ---------------------------------------------------------------------------

struct DispatchState {
  Level level = Level::kScalar;
  bool forced = false;
};

Level DetectLevel() {
  return Avx2Available() ? Level::kAvx2 : Level::kScalar;
}

DispatchState StateFromEnv() {
  DispatchState state;
  const char* env = std::getenv("CPA_SIMD");
  if (env == nullptr || *env == '\0') {
    state.level = DetectLevel();
    return state;
  }
  Level requested = Level::kScalar;
  bool forced = false;
  if (!ParseLevelSpec(env, &requested, &forced)) {
    CPA_LOG(kWarning) << "CPA_SIMD=" << env
                      << " not recognised (off|scalar|avx2|auto); using auto";
    state.level = DetectLevel();
    return state;
  }
  state.forced = forced;
  if (!forced) {
    state.level = DetectLevel();
  } else if (requested == Level::kAvx2 && !Avx2Available()) {
    CPA_LOG(kWarning) << "CPA_SIMD=avx2 requested but AVX2 is unavailable; "
                         "running scalar kernels";
    state.level = Level::kScalar;
  } else {
    state.level = requested;
  }
  return state;
}

DispatchState& MutableState() {
  static DispatchState state = StateFromEnv();
  return state;
}

}  // namespace

const Kernels& KernelsFor(Level level) {
#if CPA_SIMD_HAVE_AVX2
  if (level == Level::kAvx2 && Avx2Available()) return kAvx2Kernels;
#else
  (void)level;
#endif
  return kScalarKernels;
}

bool Avx2Available() {
#if CPA_SIMD_HAVE_AVX2
  static const bool available = __builtin_cpu_supports("avx2") != 0;
  return available;
#else
  return false;
#endif
}

Level ActiveLevel() { return MutableState().level; }

bool ActiveLevelForced() { return MutableState().forced; }

const Kernels& Active() { return KernelsFor(MutableState().level); }

std::string_view LevelName(Level level) {
  return level == Level::kAvx2 ? "avx2" : "scalar";
}

bool ParseLevelSpec(std::string_view spec, Level* level, bool* forced) {
  if (spec == "off" || spec == "scalar" || spec == "0") {
    *level = Level::kScalar;
    *forced = true;
    return true;
  }
  if (spec == "avx2") {
    *level = Level::kAvx2;
    *forced = true;
    return true;
  }
  if (spec == "auto" || spec == "on" || spec == "1" || spec.empty()) {
    *level = DetectLevel();
    *forced = false;
    return true;
  }
  return false;
}

void SetLevelForTesting(Level level) {
  DispatchState& state = MutableState();
  state.level = (level == Level::kAvx2 && !Avx2Available()) ? Level::kScalar
                                                            : level;
  state.forced = true;
}

std::string SimdReportLine() {
  std::string line = "simd: ";
  line += LevelName(ActiveLevel());
  line += ActiveLevelForced() ? " (forced via CPA_SIMD)" : " (auto)";
  return line;
}

}  // namespace cpa::simd

// ---------------------------------------------------------------------------
// Dispatched entry points (declared in util/matrix.h and
// util/special_functions.h; defined here so every caller shares the one
// kernel table — see the file comment)
// ---------------------------------------------------------------------------

namespace cpa {

double Sum(std::span<const double> v) {
  return simd::Active().sum(v.data(), v.size());
}

double Dot(std::span<const double> a, std::span<const double> b) {
  CPA_CHECK_EQ(a.size(), b.size());
  return simd::Active().dot(a.data(), b.data(), a.size());
}

void Axpy(double scale, std::span<const double> in, std::span<double> out) {
  CPA_CHECK_EQ(in.size(), out.size());
  simd::Active().axpy(scale, in.data(), out.data(), out.size());
}

double LogSumExp(std::span<const double> values) {
  return simd::Active().log_sum_exp(values.data(), values.size());
}

double SoftmaxInPlace(std::span<double> log_weights) {
  return simd::Active().softmax(log_weights.data(), log_weights.size());
}

double SoftmaxInPlace(std::span<double> log_weights, double floor_nats) {
  return simd::Active().softmax_floored(log_weights.data(), log_weights.size(),
                                        floor_nats);
}

// Not dispatched: the exps are per-lane scalar at every level and the max
// is a selection, so one body serves both (simd.h, "Sparse rows").
double SoftmaxActive(std::span<const double> log_weights,
                     std::span<const std::size_t> active, std::span<double> out) {
  const std::size_t n = log_weights.size();
  if (n == 0) return 0.0;
  // Element t goes to lane t % 4, as in SumExpScalar's main loop and tail.
  double max = -std::numeric_limits<double>::infinity();
  for (std::size_t t : active) max = std::max(max, log_weights[t]);
  double log_norm = max;
  if (std::isfinite(max)) {
    double lane[4] = {0.0, 0.0, 0.0, 0.0};
    for (std::size_t t : active) lane[t % 4] += std::exp(log_weights[t] - max);
    log_norm = max + std::log((lane[0] + lane[1]) + (lane[2] + lane[3]));
  }
  if (!std::isfinite(log_norm)) {
    std::fill_n(out.begin(), active.size(), 1.0 / static_cast<double>(n));
    return log_norm;
  }
  for (std::size_t k = 0; k < active.size(); ++k) {
    out[k] = std::exp(log_weights[active[k]] - log_norm);
  }
  return log_norm;
}

}  // namespace cpa
