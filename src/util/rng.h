#ifndef DIAL_UTIL_RNG_H_
#define DIAL_UTIL_RNG_H_

#include <cstdint>
#include <vector>

#include "util/logging.h"

/// \file
/// Deterministic random number generation. Every stochastic component in the
/// library owns an `Rng` seeded explicitly so that runs are reproducible
/// bit-for-bit regardless of platform (we do not use std::mt19937's
/// distribution objects, whose outputs are implementation-defined).

namespace dial::util {

/// splitmix64 — used to expand a single seed into xoshiro state.
inline uint64_t SplitMix64(uint64_t& state) {
  uint64_t z = (state += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

/// xoshiro256** PRNG with helper distributions. Not thread-safe; clone or
/// `Fork()` per thread.
class Rng {
 public:
  explicit Rng(uint64_t seed = 0x5eed5eed5eedULL) { Seed(seed); }

  void Seed(uint64_t seed) {
    uint64_t sm = seed;
    for (auto& s : state_) s = SplitMix64(sm);
  }

  /// Uniform 64-bit value.
  uint64_t Next() {
    const uint64_t result = Rotl(state_[1] * 5, 7) * 9;
    const uint64_t t = state_[1] << 17;
    state_[2] ^= state_[0];
    state_[3] ^= state_[1];
    state_[1] ^= state_[2];
    state_[0] ^= state_[3];
    state_[2] ^= t;
    state_[3] = Rotl(state_[3], 45);
    return result;
  }

  /// Skips the next `n` values: the state `n` calls of Next() would leave.
  void Discard(uint64_t n) {
    for (; n > 0; --n) Next();
  }

  /// True when both engines are in the same state (they produce the same
  /// stream from here on).
  bool operator==(const Rng& other) const {
    for (int i = 0; i < 4; ++i) {
      if (state_[i] != other.state_[i]) return false;
    }
    return have_spare_ == other.have_spare_ && (!have_spare_ || spare_ == other.spare_);
  }

  /// Deterministically derives an independent stream (for per-thread or
  /// per-component use).
  Rng Fork() { return Rng(Next() ^ 0xabcdef0123456789ULL); }

  /// Uniform integer in [0, n). n must be > 0.
  uint64_t UniformInt(uint64_t n) {
    DIAL_CHECK_GT(n, 0u);
    // Multiply-shift rejection-free mapping; bias is negligible for n << 2^64.
    return static_cast<uint64_t>((static_cast<__uint128_t>(Next()) * n) >> 64);
  }

  /// Uniform integer in [lo, hi] inclusive.
  int64_t UniformRange(int64_t lo, int64_t hi) {
    DIAL_CHECK_LE(lo, hi);
    return lo + static_cast<int64_t>(UniformInt(static_cast<uint64_t>(hi - lo + 1)));
  }

  /// Uniform double in [0, 1).
  double Uniform() { return static_cast<double>(Next() >> 11) * 0x1.0p-53; }

  /// Uniform float in [lo, hi).
  float UniformFloat(float lo, float hi) {
    return lo + static_cast<float>(Uniform()) * (hi - lo);
  }

  /// Standard normal via Box-Muller.
  double Normal() ;

  /// Bernoulli(p).
  bool Bernoulli(double p) { return Uniform() < p; }

  /// In-place Fisher-Yates shuffle.
  template <typename T>
  void Shuffle(std::vector<T>& v) {
    for (size_t i = v.size(); i > 1; --i) {
      size_t j = static_cast<size_t>(UniformInt(i));
      std::swap(v[i - 1], v[j]);
    }
  }

  /// Samples k distinct indices from [0, n) (k <= n), in random order.
  std::vector<size_t> SampleWithoutReplacement(size_t n, size_t k);

  /// Samples k indices from [0, n) with replacement.
  std::vector<size_t> SampleWithReplacement(size_t n, size_t k);

  /// Complete engine state (xoshiro words + the Box-Muller spare), for
  /// checkpoint/resume. SetState restores a bit-identical stream.
  struct State {
    uint64_t s[4] = {0, 0, 0, 0};
    bool have_spare = false;
    double spare = 0.0;
  };

  State GetState() const {
    State st;
    for (int i = 0; i < 4; ++i) st.s[i] = state_[i];
    st.have_spare = have_spare_;
    st.spare = spare_;
    return st;
  }

  void SetState(const State& st) {
    for (int i = 0; i < 4; ++i) state_[i] = st.s[i];
    have_spare_ = st.have_spare;
    spare_ = st.spare;
  }

 private:
  static uint64_t Rotl(uint64_t x, int k) { return (x << k) | (x >> (64 - k)); }

  uint64_t state_[4];
  bool have_spare_ = false;
  double spare_ = 0.0;
};

}  // namespace dial::util

#endif  // DIAL_UTIL_RNG_H_
