#include "util/rng.h"

#include <array>
#include <memory>

namespace pbecc::util {

namespace {

// ---- Jump-ahead ---------------------------------------------------------
//
// One xoshiro256** state update is a linear map T on the 256-bit state
// (xors, shifts and a rotation), so n updates are the matrix T^n. A matrix
// is stored by columns — column j is the image of state bit j (bit j % 64
// of word j / 64) — grouped Four-Russians style: for each of the 64 nibbles
// of the state, the 16 xor-combinations of its four columns. A product
// with a state is then 64 lookups and 64 four-word xors. 64 * 16 * 32 B =
// 32 KiB per matrix.

using State = std::array<std::uint64_t, 4>;

struct JumpMatrix {
  State t[64][16];

  State column(int j) const { return t[j / 4][1 << (j % 4)]; }

  // Two nibbles per iteration into two accumulators: the 64 lookups are
  // independent, so this keeps two xor chains in flight.
  State apply(const State& s) const {
    State a{}, b{};
    for (std::size_t w = 0; w < 4; ++w) {
      std::uint64_t x = s[w];
      for (std::size_t c = 16 * w; c < 16 * w + 16; c += 2, x >>= 8) {
        const State& e = t[c][x & 15];
        const State& f = t[c + 1][(x >> 4) & 15];
        for (std::size_t k = 0; k < 4; ++k) {
          a[k] ^= e[k];
          b[k] ^= f[k];
        }
      }
    }
    for (std::size_t k = 0; k < 4; ++k) a[k] ^= b[k];
    return a;
  }

  void set_columns(const State* cols) {
    for (int c = 0; c < 64; ++c) {
      for (int nib = 0; nib < 16; ++nib) {
        State e{};
        for (int b = 0; b < 4; ++b) {
          if ((nib >> b) & 1) {
            for (std::size_t k = 0; k < 4; ++k) e[k] ^= cols[4 * c + b][k];
          }
        }
        t[c][nib] = e;
      }
    }
  }

  // *this = m * m (m must not be *this).
  void set_square_of(const JumpMatrix& m) {
    State cols[256];
    for (int j = 0; j < 256; ++j) cols[j] = m.apply(m.column(j));
    set_columns(cols);
  }
};

// T^(kJumpUnit * 2^i) for i < kJumpTables. `advance` moves a state
// kJumpUnit draws on; applied to each basis vector it gives the columns of
// the first matrix, and each further one is the square of the last.
struct JumpTables {
  JumpMatrix m[Rng::kJumpTables];

  template <class Advance>
  explicit JumpTables(Advance advance) {
    State cols[256];
    for (int j = 0; j < 256; ++j) {
      State s{};
      s[static_cast<std::size_t>(j / 64)] = 1ULL << (j % 64);
      advance(s);
      cols[j] = s;
    }
    m[0].set_columns(cols);
    for (int i = 1; i < Rng::kJumpTables; ++i) m[i].set_square_of(m[i - 1]);
  }
};

// splitmix64: seeds the xoshiro state from a single 64-bit value.
std::uint64_t splitmix64(std::uint64_t& x) {
  x += 0x9e3779b97f4a7c15ULL;
  std::uint64_t z = x;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

}  // namespace

void Rng::reseed(std::uint64_t seed) {
  std::uint64_t x = seed;
  for (auto& s : s_) s = splitmix64(x);
  have_spare_normal_ = false;
}

void Rng::discard(std::uint64_t n) {
  static const JumpTables tables([](State& state) {
    Rng r;
    for (std::size_t k = 0; k < 4; ++k) r.s_[k] = state[k];
    for (std::uint64_t k = 0; k < kJumpUnit; ++k) r.next_u64();
    for (std::size_t k = 0; k < 4; ++k) state[k] = r.s_[k];
  });
  State s{s_[0], s_[1], s_[2], s_[3]};
  std::uint64_t units = n / kJumpUnit;
  for (int i = 0; i < kJumpTables && units != 0; ++i, units >>= 1) {
    if (units & 1) s = tables.m[i].apply(s);
  }
  if (units != 0) {
    // Past the largest table: keep squaring a copy of it.
    auto pow = std::make_unique<JumpMatrix[]>(2);
    const JumpMatrix* cur = &tables.m[kJumpTables - 1];
    for (int k = 0; units != 0; units >>= 1, k ^= 1) {
      pow[k].set_square_of(*cur);
      cur = &pow[k];
      if (units & 1) s = cur->apply(s);
    }
  }
  for (std::size_t k = 0; k < 4; ++k) s_[k] = s[k];
  for (std::uint64_t r = n % kJumpUnit; r > 0; --r) next_u64();
}

double Rng::uniform() {
  // 53 random mantissa bits -> uniform in [0,1).
  return static_cast<double>(next_u64() >> 11) * 0x1.0p-53;
}

std::int64_t Rng::uniform_int(std::int64_t lo, std::int64_t hi) {
  const auto span = static_cast<std::uint64_t>(hi - lo) + 1;
  if (span == 0) return static_cast<std::int64_t>(next_u64());  // full range
  return lo + static_cast<std::int64_t>(next_u64() % span);
}

double Rng::normal() {
  if (have_spare_normal_) {
    have_spare_normal_ = false;
    return spare_normal_;
  }
  double u1 = uniform();
  if (u1 <= 0.0) u1 = 1e-18;
  const double u2 = uniform();
  const double r = std::sqrt(-2.0 * std::log(u1));
  const double theta = 2.0 * M_PI * u2;
  spare_normal_ = r * std::sin(theta);
  have_spare_normal_ = true;
  return r * std::cos(theta);
}

std::int64_t Rng::poisson(double mean) {
  if (mean <= 0) return 0;
  if (mean > 64.0) {
    // Normal approximation keeps this O(1) for large means.
    const double v = normal(mean, std::sqrt(mean));
    return v < 0 ? 0 : static_cast<std::int64_t>(v + 0.5);
  }
  const double limit = std::exp(-mean);
  double prod = uniform();
  std::int64_t n = 0;
  while (prod > limit) {
    prod *= uniform();
    ++n;
  }
  return n;
}

Rng Rng::fork() { return Rng{next_u64()}; }

}  // namespace pbecc::util
