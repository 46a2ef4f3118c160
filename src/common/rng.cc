#include "common/rng.h"

#include <algorithm>
#include <numeric>

#include "common/check.h"

namespace silofuse {
namespace {

// MT19937-64's recurrence constants ([rand.predef] gives the same ones for
// std::mt19937_64).
constexpr size_t kN = Mt19937_64::kStateWords;
constexpr size_t kM = 156;
constexpr uint64_t kMatrixA = 0xB5026F5AA96619E9ULL;
constexpr uint64_t kUpperMask = ~uint64_t{0} << 31;
constexpr uint64_t kLowerMask = ~kUpperMask;
constexpr uint64_t kInitMultiplier = 6364136223846793005ULL;

// One word of the twist: the upper bit of `hi` joined to the low 31 bits of
// `lo`, shifted, with the matrix A applied by a mask instead of a branch.
inline uint64_t TwistWord(uint64_t far, uint64_t hi, uint64_t lo) {
  const uint64_t y = (hi & kUpperMask) | (lo & kLowerMask);
  return far ^ (y >> 1) ^ ((uint64_t{0} - (y & 1)) & kMatrixA);
}

}  // namespace

Mt19937_64::Mt19937_64(uint64_t seed) {
  state_[0] = seed;
  for (size_t i = 1; i < kN; ++i) {
    const uint64_t prev = state_[i - 1];
    state_[i] = kInitMultiplier * (prev ^ (prev >> 62)) + i;
  }
  pos_ = kN;
}

void Mt19937_64::Twist() {
  // Three loops with no dependence a vector lane could break: the first
  // reads only words it has not written yet, the second reads words the
  // first wrote at least kN - kM positions back.
  for (size_t k = 0; k < kN - kM; ++k) {
    state_[k] = TwistWord(state_[k + kM], state_[k], state_[k + 1]);
  }
  for (size_t k = kN - kM; k < kN - 1; ++k) {
    state_[k] = TwistWord(state_[k + kM - kN], state_[k], state_[k + 1]);
  }
  state_[kN - 1] = TwistWord(state_[kM - 1], state_[kN - 1], state_[0]);
  pos_ = 0;
}

void Mt19937_64::Fill(uint64_t* out, size_t n) {
  while (n > 0) {
    if (pos_ >= kN) Twist();
    const size_t count = std::min(n, kN - pos_);
    const uint64_t* src = state_ + pos_;
    for (size_t i = 0; i < count; ++i) out[i] = Temper(src[i]);
    pos_ += count;
    out += count;
    n -= count;
  }
}

int Rng::Categorical(const std::vector<double>& weights) {
  SF_CHECK(!weights.empty());
  double total = 0.0;
  for (double w : weights) {
    SF_CHECK_GE(w, 0.0);
    total += w;
  }
  SF_CHECK_GT(total, 0.0) << "Categorical weights sum to zero";
  double r = Uniform(0.0, total);
  double acc = 0.0;
  for (size_t i = 0; i < weights.size(); ++i) {
    acc += weights[i];
    if (r < acc) return static_cast<int>(i);
  }
  return static_cast<int>(weights.size()) - 1;
}

std::vector<int> Rng::Permutation(int n) {
  std::vector<int> perm(n);
  std::iota(perm.begin(), perm.end(), 0);
  Shuffle(&perm);
  return perm;
}

std::vector<int> Rng::SampleWithoutReplacement(int n, int k) {
  SF_CHECK_LE(k, n);
  std::vector<int> perm = Permutation(n);
  perm.resize(k);
  return perm;
}

}  // namespace silofuse
