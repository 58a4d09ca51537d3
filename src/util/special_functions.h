#ifndef CPA_UTIL_SPECIAL_FUNCTIONS_H_
#define CPA_UTIL_SPECIAL_FUNCTIONS_H_

/// \file special_functions.h
/// \brief Scalar special functions used throughout variational inference.
///
/// Variational updates for Dirichlet/Beta factors need the digamma function
/// (`Ψ`), log-Beta / log-multivariate-Beta normalisers, entropies, and
/// numerically stable log-sum-exp reductions. All functions here are pure
/// and thread-safe.

#include <cstddef>
#include <span>
#include <vector>

namespace cpa {

/// \brief Digamma function Ψ(x) = d/dx ln Γ(x) for x > 0.
///
/// Uses the ascending recurrence Ψ(x) = Ψ(x+1) − 1/x to reach x ≥ 6 and then
/// the standard asymptotic series; absolute error < 1e-12 over (0, ∞).
double Digamma(double x);

/// \brief Trigamma function Ψ'(x) for x > 0 (used in tests and diagnostics).
double Trigamma(double x);

/// \brief ln Γ(x); thin wrapper over std::lgamma with domain checks.
double LogGamma(double x);

/// \brief ln B(a, b) = ln Γ(a) + ln Γ(b) − ln Γ(a+b).
double LogBeta(double a, double b);

/// \brief Log of the multivariate Beta normaliser of a Dirichlet:
/// ln B(α) = Σ ln Γ(α_c) − ln Γ(Σ α_c).
double LogMultivariateBeta(std::span<const double> alpha);

/// \brief Numerically stable ln Σ exp(v_i). Returns −inf for empty input.
///
/// Defined in the dispatched-kernel TU (core/sweep/sweep_kernels_avx2.cc):
/// the reduction runs the runtime-selected scalar or AVX2 variant, both
/// lane-ordered so results are identical (see core/sweep/simd.h).
double LogSumExp(std::span<const double> values);

/// \brief In-place transform of log-weights into a normalised probability
/// vector via softmax; returns the log-normaliser. No-op on empty input.
/// Dispatched like `LogSumExp` (see core/sweep/simd.h).
double SoftmaxInPlace(std::span<double> log_weights);

/// \brief Softmax with an underflow floor: entries more than `floor_nats`
/// below the row maximum become exactly 0 instead of being exponentiated.
///
/// Responsibility rows over wide truncations (T up to ~1000) concentrate on
/// a handful of components; with `floor_nats` = 27.6 the dropped entries
/// carry < 1e-12 of the mass — below what the sweep kernels' skip threshold
/// would read anyway — and the row costs |active| exp calls instead of T.
/// Deterministic (a pure function of the input row), so thread-count
/// invariance of the sweeps is unaffected.
double SoftmaxInPlace(std::span<double> log_weights, double floor_nats);

/// \brief The softmax of a row whose entries outside `active` are all −inf,
/// computed over `active` alone: writes the probability of `active[k]` to
/// `out[k]` and returns the log-normaliser.
///
/// `active` must be ascending. The result is bit-identical to
/// `SoftmaxInPlace(log_weights)` read back at the active ids, at every SIMD
/// level (the lane argument is in core/sweep/simd.h), and it falls back to
/// the same uniform 1/|log_weights| on a non-finite normaliser. Prediction
/// uses it for the per-item cluster posterior, where a few dozen of ~1000
/// clusters are live.
double SoftmaxActive(std::span<const double> log_weights,
                     std::span<const std::size_t> active, std::span<double> out);

/// \brief Entropy of a Dirichlet(α) distribution.
double DirichletEntropy(std::span<const double> alpha);

/// \brief E[ln θ_c] under Dirichlet(α): Ψ(α_c) − Ψ(Σ α).
/// Writes into `out`, which must have the same size as `alpha`.
void DirichletExpectedLog(std::span<const double> alpha, std::span<double> out);

/// \brief Entropy of a Beta(a, b) distribution.
double BetaEntropy(double a, double b);

/// \brief KL(Dir(α) || Dir(β)) between Dirichlets of equal dimension.
double DirichletKL(std::span<const double> alpha, std::span<const double> beta);

}  // namespace cpa

#endif  // CPA_UTIL_SPECIAL_FUNCTIONS_H_
