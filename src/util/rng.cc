#include "util/rng.h"

#include <cmath>
#include <numeric>

#include "util/logging.h"

namespace cpa {
namespace {

std::uint64_t SplitMix64(std::uint64_t& state) {
  state += 0x9E3779B97F4A7C15ULL;
  std::uint64_t z = state;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

}  // namespace

Rng::Rng(std::uint64_t seed) {
  std::uint64_t sm = seed;
  for (auto& s : state_) s = SplitMix64(sm);
  // Avoid the all-zero state, which is a fixed point of xoshiro.
  if ((state_[0] | state_[1] | state_[2] | state_[3]) == 0) state_[0] = 1;
}

Rng Rng::FromState(const State& state) {
  Rng rng;
  for (std::size_t k = 0; k < state.size(); ++k) rng.state_[k] = state[k];
  return rng;
}

std::uint64_t Rng::NextBounded(std::uint64_t bound) {
  CPA_CHECK_GE(bound, 1u);
  // Debiased modulo via rejection (Lemire-style threshold).
  const std::uint64_t threshold = (0 - bound) % bound;
  for (;;) {
    const std::uint64_t r = NextUint64();
    if (r >= threshold) return r % bound;
  }
}

std::int64_t Rng::NextInt(std::int64_t lo, std::int64_t hi) {
  CPA_CHECK_LE(lo, hi);
  const std::uint64_t span = static_cast<std::uint64_t>(hi - lo) + 1;
  return lo + static_cast<std::int64_t>(NextBounded(span));
}

bool Rng::NextBernoulli(double p) {
  if (p <= 0.0) return false;
  if (p >= 1.0) return true;
  return NextDouble() < p;
}

double Rng::NextGaussian() {
  if (has_cached_gaussian_) {
    has_cached_gaussian_ = false;
    return cached_gaussian_;
  }
  double u1 = 0.0;
  do {
    u1 = NextDouble();
  } while (u1 <= 1e-300);
  const double u2 = NextDouble();
  const double radius = std::sqrt(-2.0 * std::log(u1));
  const double angle = 2.0 * M_PI * u2;
  cached_gaussian_ = radius * std::sin(angle);
  has_cached_gaussian_ = true;
  return radius * std::cos(angle);
}

double Rng::NextGamma(double shape) {
  CPA_CHECK_GT(shape, 0.0);
  if (shape < 1.0) {
    // Boost: Gamma(a) = Gamma(a + 1) * U^{1/a}.
    const double u = std::max(NextDouble(), 1e-300);
    return NextGamma(shape + 1.0) * std::pow(u, 1.0 / shape);
  }
  // Marsaglia–Tsang squeeze method.
  const double d = shape - 1.0 / 3.0;
  const double c = 1.0 / std::sqrt(9.0 * d);
  for (;;) {
    double x = 0.0;
    double v = 0.0;
    do {
      x = NextGaussian();
      v = 1.0 + c * x;
    } while (v <= 0.0);
    v = v * v * v;
    const double u = NextDouble();
    if (u < 1.0 - 0.0331 * x * x * x * x) return d * v;
    if (u > 1e-300 && std::log(u) < 0.5 * x * x + d * (1.0 - v + std::log(v))) {
      return d * v;
    }
  }
}

double Rng::NextBeta(double a, double b) {
  const double x = NextGamma(a);
  const double y = NextGamma(b);
  const double sum = x + y;
  return sum > 0.0 ? x / sum : 0.5;
}

std::size_t Rng::NextCategorical(std::span<const double> weights) {
  CPA_CHECK(!weights.empty());
  double total = 0.0;
  for (double w : weights) {
    CPA_CHECK_GE(w, 0.0);
    total += w;
  }
  if (total <= 0.0) return static_cast<std::size_t>(NextBounded(weights.size()));
  double u = NextDouble() * total;
  for (std::size_t i = 0; i < weights.size(); ++i) {
    u -= weights[i];
    if (u < 0.0) return i;
  }
  return weights.size() - 1;  // numerical slack
}

void Rng::NextDirichlet(std::span<const double> alpha, std::span<double> out) {
  CPA_CHECK_EQ(alpha.size(), out.size());
  double total = 0.0;
  for (std::size_t i = 0; i < alpha.size(); ++i) {
    out[i] = NextGamma(alpha[i]);
    total += out[i];
  }
  if (total <= 0.0) {
    const double uniform = 1.0 / static_cast<double>(out.size());
    for (double& v : out) v = uniform;
    return;
  }
  for (double& v : out) v /= total;
}

void Rng::NextMultinomial(std::uint64_t n, std::span<const double> probs,
                          std::span<std::uint32_t> out_counts) {
  CPA_CHECK_EQ(probs.size(), out_counts.size());
  std::fill(out_counts.begin(), out_counts.end(), 0u);
  double total = std::accumulate(probs.begin(), probs.end(), 0.0);
  if (total <= 0.0 || probs.empty()) return;
  // Sequential conditional binomials would need a Binomial sampler; with the
  // small n used in crowdsourcing simulation, n independent categorical
  // draws are simpler and exact.
  for (std::uint64_t trial = 0; trial < n; ++trial) {
    ++out_counts[NextCategorical(probs)];
  }
}

std::size_t Rng::NextZipf(std::size_t n, double s) {
  CPA_CHECK_GE(n, 1u);
  if (n == 1) return 0;
  // Rejection sampling against the continuous envelope 1/x^s on [1, n+1).
  const double exponent = s;
  for (;;) {
    const double u = NextDouble();
    double x;
    if (std::abs(exponent - 1.0) < 1e-12) {
      x = std::pow(static_cast<double>(n) + 1.0, u);
    } else {
      const double t = std::pow(static_cast<double>(n) + 1.0, 1.0 - exponent);
      x = std::pow(u * (t - 1.0) + 1.0, 1.0 / (1.0 - exponent));
    }
    const std::size_t k = static_cast<std::size_t>(x) - 1;
    if (k >= n) continue;
    const double ratio =
        std::pow(static_cast<double>(k + 1) / x, exponent);
    if (NextDouble() < ratio) return k;
  }
}

std::uint64_t Rng::NextPoisson(double lambda) {
  CPA_CHECK_GE(lambda, 0.0);
  if (lambda <= 0.0) return 0;
  if (lambda < 64.0) {
    const double limit = std::exp(-lambda);
    std::uint64_t k = 0;
    double product = NextDouble();
    while (product > limit) {
      ++k;
      product *= NextDouble();
    }
    return k;
  }
  // Normal approximation with continuity correction for large lambda.
  const double draw = lambda + std::sqrt(lambda) * NextGaussian() + 0.5;
  return draw <= 0.0 ? 0 : static_cast<std::uint64_t>(draw);
}

std::vector<std::size_t> Rng::SampleWithoutReplacement(std::size_t n, std::size_t k) {
  CPA_CHECK_LE(k, n);
  // Floyd's algorithm: O(k) expected inserts, no O(n) scratch when k << n.
  std::vector<std::size_t> chosen;
  chosen.reserve(k);
  for (std::size_t j = n - k; j < n; ++j) {
    const std::size_t t = static_cast<std::size_t>(NextBounded(j + 1));
    bool seen = false;
    for (std::size_t c : chosen) {
      if (c == t) {
        seen = true;
        break;
      }
    }
    chosen.push_back(seen ? j : t);
  }
  return chosen;
}

Rng Rng::Split() { return Rng(NextUint64() ^ 0xD1B54A32D192ED03ULL); }

}  // namespace cpa
