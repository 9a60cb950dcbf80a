// Deterministic random number generation.
//
// The standard <random> distributions are implementation-defined, which would
// make traces and simulation results differ across standard libraries. All
// randomness in the project flows through this xoshiro256++ engine and the
// hand-rolled distributions below, so a seed fully determines an experiment.
#ifndef HAWK_COMMON_RANDOM_H_
#define HAWK_COMMON_RANDOM_H_

#include <cstdint>
#include <vector>

#include "src/common/check.h"

namespace hawk {

// xoshiro256++ by Blackman & Vigna (public domain reference implementation
// re-expressed); seeded via SplitMix64 so that any 64-bit seed is usable.
class Rng {
 public:
  explicit Rng(uint64_t seed = 0x9E3779B97F4A7C15ULL) { Seed(seed); }

  void Seed(uint64_t seed);

  // Defined inline (below): the sampling loops and probe placement draw in
  // tight loops, and an out-of-line draw reloads the state from memory.
  uint64_t Next();

  // Uniform double in [0, 1).
  double NextDouble();

  // Uniform integer in [0, bound), bias-free via rejection.
  uint64_t NextBounded(uint64_t bound);

  // Uniform integer in [lo, hi] inclusive.
  int64_t UniformInt(int64_t lo, int64_t hi);

  // Uniform double in [lo, hi).
  double Uniform(double lo, double hi);

  // Exponential with the given mean (= scale parameter).
  double Exponential(double mean);

  // Standard normal via Box-Muller (deterministic, no cached spare).
  double Gaussian(double mean, double stddev);

  // Gaussian(mean, stddev) rejection-sampled to be strictly positive; used by
  // the paper's synthetic-trace recipe ("excluding negative values").
  double PositiveGaussian(double mean, double stddev);

  // Log-normal given the median (= exp(mu)) and sigma of the underlying normal.
  double LogNormalMedian(double median, double sigma);

  // True with probability p.
  bool Bernoulli(double p);

  // Fisher-Yates sample of k distinct values from [0, n). k must be <= n.
  std::vector<uint32_t> SampleWithoutReplacement(uint32_t n, uint32_t k);

  // Buffer-reusing variant for hot paths: fills *out with the sample,
  // reusing its capacity (no allocation once warm). The draw sequence is
  // identical to the returning overload, so the two are interchangeable
  // without perturbing determinism.
  void SampleWithoutReplacement(uint32_t n, uint32_t k, std::vector<uint32_t>* out);

  // Forks an independent, deterministic child stream (for per-component RNGs).
  Rng Fork();

 private:
  // Largest sample drawn in a stack array with linear-scan membership.
  static constexpr uint32_t kSmallSample = 16;

  // Uniformly permutes the k values Floyd's algorithm drew.
  void ShuffleFloydOrder(uint32_t* chosen, uint32_t k);

  uint64_t state_[4];
  // Epoch-stamped membership scratch for the buffer-reusing sample overload.
  // Purely an acceleration structure: it never influences the draw stream,
  // and forks/seeds are unaffected by it.
  std::vector<uint32_t> sample_stamp_;
  uint32_t sample_epoch_ = 0;
};

inline uint64_t Rng::Next() {
  const auto rotl = [](uint64_t x, int k) { return (x << k) | (x >> (64 - k)); };
  const uint64_t result = rotl(state_[0] + state_[3], 23) + state_[0];
  const uint64_t t = state_[1] << 17;
  state_[2] ^= state_[0];
  state_[3] ^= state_[1];
  state_[1] ^= state_[2];
  state_[0] ^= state_[3];
  state_[2] ^= t;
  state_[3] = rotl(state_[3], 45);
  return result;
}

inline uint64_t Rng::NextBounded(uint64_t bound) {
  HAWK_CHECK_GT(bound, 0u);
  // Rejection sampling over the largest multiple of `bound`: a draw below
  // threshold = 2^64 mod bound is rejected. The threshold is below `bound`,
  // so it (and its division) is needed only when a draw lands below `bound`.
  uint64_t r = Next();
  if (r < bound) {
    const uint64_t threshold = (0 - bound) % bound;
    while (r < threshold) {
      r = Next();
    }
  }
  return r % bound;
}

}  // namespace hawk

#endif  // HAWK_COMMON_RANDOM_H_
