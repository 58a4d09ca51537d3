#ifndef CPA_UTIL_RNG_H_
#define CPA_UTIL_RNG_H_

/// \file rng.h
/// \brief Deterministic random number generation and sampling primitives.
///
/// All stochastic components of libcpa (simulators, initialisers, batch
/// shufflers) draw from an explicitly seeded `Rng` so that every experiment
/// is reproducible bit-for-bit. The generator is xoshiro256**, seeded
/// through splitmix64; distributions are implemented directly on top of it
/// (no reliance on unspecified `std::` distribution algorithms, which vary
/// across standard libraries).

#include <array>
#include <cstdint>
#include <span>
#include <vector>

namespace cpa {

/// \brief Deterministic pseudo-random generator with sampling helpers.
///
/// Not thread-safe; use `Split()` to derive independent per-thread streams.
class Rng {
 public:
  /// The xoshiro256** state words. The Gaussian cache is not part of it.
  using State = std::array<std::uint64_t, 4>;

  /// Constructs a generator from a 64-bit seed.
  explicit Rng(std::uint64_t seed = 0x9E3779B97F4A7C15ULL);

  /// A generator that continues the raw stream of the one whose `state()`
  /// gave `state`: the same `NextUint64`/`NextDouble` draws follow.
  static Rng FromState(const State& state);

  /// The current xoshiro256** state.
  State state() const { return {state_[0], state_[1], state_[2], state_[3]}; }

  /// Returns the next raw 64-bit output (xoshiro256**). Inline so tight
  /// draw loops (ϕ's initial-row regeneration, core/phi_rows.h) keep the
  /// state in registers.
  std::uint64_t NextUint64() {
    const std::uint64_t result = Rotl(state_[1] * 5, 7) * 9;
    const std::uint64_t t = state_[1] << 17;
    state_[2] ^= state_[0];
    state_[3] ^= state_[1];
    state_[1] ^= state_[2];
    state_[0] ^= state_[3];
    state_[2] ^= t;
    state_[3] = Rotl(state_[3], 45);
    return result;
  }

  /// Uniform double in [0, 1): 53 random mantissa bits.
  double NextDouble() { return static_cast<double>(NextUint64() >> 11) * 0x1.0p-53; }

  /// Uniform integer in [0, bound) for bound >= 1.
  std::uint64_t NextBounded(std::uint64_t bound);

  /// Uniform integer in [lo, hi] inclusive.
  std::int64_t NextInt(std::int64_t lo, std::int64_t hi);

  /// Bernoulli draw with success probability p (clamped to [0,1]).
  bool NextBernoulli(double p);

  /// Standard normal via Box–Muller (cached second draw).
  double NextGaussian();

  /// Gamma(shape, scale=1) via Marsaglia–Tsang, with the boost trick for
  /// shape < 1.
  double NextGamma(double shape);

  /// Beta(a, b) draw.
  double NextBeta(double a, double b);

  /// Categorical draw from non-negative (unnormalised) weights.
  /// Returns an index in [0, weights.size()).
  std::size_t NextCategorical(std::span<const double> weights);

  /// Dirichlet(alpha) draw written into `out` (same size as `alpha`).
  void NextDirichlet(std::span<const double> alpha, std::span<double> out);

  /// Multinomial counts: n trials over `probs` (normalised internally),
  /// written into `out_counts` (same size as `probs`).
  void NextMultinomial(std::uint64_t n, std::span<const double> probs,
                       std::span<std::uint32_t> out_counts);

  /// Zipf-like draw over [0, n): P(k) ∝ 1/(k+1)^s. Used for skewed
  /// worker/item activity. O(n) setup-free inverse-CDF by rejection.
  std::size_t NextZipf(std::size_t n, double s);

  /// Poisson(lambda) draw (Knuth's method for small lambda, normal
  /// approximation above 64).
  std::uint64_t NextPoisson(double lambda);

  /// Fisher–Yates shuffle.
  template <typename T>
  void Shuffle(std::vector<T>& values) {
    for (std::size_t i = values.size(); i > 1; --i) {
      const std::size_t j = static_cast<std::size_t>(NextBounded(i));
      std::swap(values[i - 1], values[j]);
    }
  }

  /// Samples `k` distinct indices from [0, n) uniformly (k <= n), in
  /// selection order (not sorted).
  std::vector<std::size_t> SampleWithoutReplacement(std::size_t n, std::size_t k);

  /// Derives an independent generator (for per-thread streams).
  Rng Split();

 private:
  static std::uint64_t Rotl(std::uint64_t x, int k) {
    return (x << k) | (x >> (64 - k));
  }

  std::uint64_t state_[4];
  bool has_cached_gaussian_ = false;
  double cached_gaussian_ = 0.0;
};

}  // namespace cpa

#endif  // CPA_UTIL_RNG_H_
