#ifndef SILOFUSE_COMMON_RNG_H_
#define SILOFUSE_COMMON_RNG_H_

#include <cstddef>
#include <cstdint>
#include <random>
#include <vector>

namespace silofuse {

/// MT19937-64, the 64-bit Mersenne Twister with the parameters and seeding
/// the C++ standard fixes for std::mt19937_64, so it emits the identical
/// sequence from the same seed, and the standard distributions driven by it
/// return identical values. Kept in the repository for `Fill`, which draws
/// a block of words at the cost of a vectorized copy: the twist and the
/// tempering run as loops over the 312-word state instead of one call per
/// word. Scalar draws and `Fill` share one state, so any mix of them reads
/// the same stream.
class Mt19937_64 {
 public:
  using result_type = uint64_t;
  static constexpr size_t kStateWords = 312;

  explicit Mt19937_64(uint64_t seed);

  static constexpr result_type min() { return 0; }
  static constexpr result_type max() { return ~result_type{0}; }

  result_type operator()() {
    if (pos_ >= kStateWords) Twist();
    return Temper(state_[pos_++]);
  }

  /// Writes the next `n` words of the stream to `out`, as `n` calls of
  /// operator() would.
  void Fill(uint64_t* out, size_t n);

 private:
  static uint64_t Temper(uint64_t z) {
    z ^= (z >> 29) & 0x5555555555555555ULL;
    z ^= (z << 17) & 0x71D67FFFEDA60000ULL;
    z ^= (z << 37) & 0xFFF7EEE000000000ULL;
    return z ^ (z >> 43);
  }

  // Regenerates the whole state; pos_ returns to 0.
  void Twist();

  uint64_t state_[kStateWords];
  size_t pos_;
};

/// Deterministic random number source used throughout the library.
///
/// Every stochastic component (weight init, diffusion noise, dataset
/// generators, attacks) takes an Rng so experiments are reproducible from a
/// single seed. Not thread-safe; create one Rng per thread.
///
/// The engine is Mt19937_64 (above), which emits std::mt19937_64's
/// sequence; the distributions are libstdc++'s, so every value equals the
/// one a std::mt19937_64-driven Rng gave from the same seed.
class Rng {
 public:
  explicit Rng(uint64_t seed = 42) : engine_(seed) {}

  /// Uniform double in [lo, hi).
  double Uniform(double lo = 0.0, double hi = 1.0) {
    std::uniform_real_distribution<double> dist(lo, hi);
    return dist(engine_);
  }

  /// Uniform integer in [lo, hi] (inclusive).
  int64_t UniformInt(int64_t lo, int64_t hi) {
    std::uniform_int_distribution<int64_t> dist(lo, hi);
    return dist(engine_);
  }

  /// Standard normal (or scaled) sample.
  double Normal(double mean = 0.0, double stddev = 1.0) {
    std::normal_distribution<double> dist(mean, stddev);
    return dist(engine_);
  }

  /// Bernoulli draw with success probability p.
  bool Bernoulli(double p) {
    std::bernoulli_distribution dist(p);
    return dist(engine_);
  }

  /// Samples an index proportional to `weights` (need not be normalized).
  /// All weights must be non-negative, with a positive sum.
  int Categorical(const std::vector<double>& weights);

  /// Random permutation of {0, ..., n-1}.
  std::vector<int> Permutation(int n);

  /// Fisher-Yates shuffle of `values`.
  template <typename T>
  void Shuffle(std::vector<T>* values) {
    for (size_t i = values->size(); i > 1; --i) {
      size_t j = static_cast<size_t>(UniformInt(0, static_cast<int64_t>(i) - 1));
      std::swap((*values)[i - 1], (*values)[j]);
    }
  }

  /// Samples `k` distinct indices from {0, ..., n-1} (k <= n).
  std::vector<int> SampleWithoutReplacement(int n, int k);

  /// Derives an independent child generator (for per-client streams).
  Rng Fork() { return Rng(engine_()); }

  /// The raw engine, for callers that draw words (Dropout masks, fault
  /// seeds); its Fill draws many at once.
  Mt19937_64& engine() { return engine_; }

 private:
  Mt19937_64 engine_;
};

}  // namespace silofuse

#endif  // SILOFUSE_COMMON_RNG_H_
