// A small append/read bit vector used for DCI message payloads and the
// synthetic PDCCH control region. Bits are MSB-first per message, matching
// how 3GPP describes DCI field packing.
//
// Storage is packed 64-bit words: bit i lives in word i / 64 at bit
// position 63 - i % 64, so a word read left to right is the bit string in
// order. Bits past size() in the last word are always zero (the zero-tail
// invariant), which lets operator== compare whole words and lets the range
// operations below work a word at a time. Every public accessor is
// bounds-checked and throws std::out_of_range; the word-wise internals index
// with operator[] (checked under -D_GLIBCXX_ASSERTIONS).
#pragma once

#include <algorithm>
#include <bit>
#include <cstdint>
#include <stdexcept>
#include <vector>

namespace pbecc::util {

class BitVec {
 public:
  BitVec() = default;
  explicit BitVec(std::size_t nbits, bool value = false)
      : words_((nbits + 63) / 64, value ? ~0ULL : 0ULL), n_(nbits) {
    clear_tail();
  }

  std::size_t size() const { return n_; }
  bool empty() const { return n_ == 0; }

  void push_bit(bool b) { append_top(b ? kTopBit : 0, 1); }

  // Drop all bits but keep the backing capacity.
  void clear() {
    words_.clear();
    n_ = 0;
  }
  void reserve(std::size_t nbits) { words_.reserve((nbits + 63) / 64); }

  // Append the low `nbits` of `value`, most-significant bit first.
  // Throws std::invalid_argument if nbits > 64.
  void push_uint(std::uint64_t value, std::size_t nbits) {
    if (nbits > 64) throw std::invalid_argument("BitVec::push_uint: nbits > 64");
    if (nbits == 0) return;
    append_top(value << (64 - nbits), nbits);
  }

  bool bit(std::size_t i) const {
    check_index(i, "BitVec::bit");
    return ((words_[i / 64] << (i % 64)) & kTopBit) != 0;
  }
  void set_bit(std::size_t i, bool b) {
    check_index(i, "BitVec::set_bit");
    const std::uint64_t m = kTopBit >> (i % 64);
    words_[i / 64] = b ? (words_[i / 64] | m) : (words_[i / 64] & ~m);
  }
  void flip_bit(std::size_t i) {
    check_index(i, "BitVec::flip_bit");
    words_[i / 64] ^= kTopBit >> (i % 64);
  }

  // Read `nbits` starting at `pos`, MSB-first. Throws std::out_of_range if
  // the range leaves the vector, std::invalid_argument if nbits > 64.
  std::uint64_t read_uint(std::size_t pos, std::size_t nbits) const {
    if (nbits > 64) throw std::invalid_argument("BitVec::read_uint: nbits > 64");
    check_range(pos, nbits, "BitVec::read_uint");
    if (nbits == 0) return 0;
    return window(pos) >> (64 - nbits);
  }

  void append(const BitVec& other) {
    reserve(n_ + other.n_);
    const std::size_t full = other.n_ / 64;
    for (std::size_t w = 0; w < full; ++w) append_top(other.words_[w], 64);
    if (other.n_ % 64 != 0) append_top(other.words_[full], other.n_ % 64);
  }

  // ---- Range operations (each throws std::out_of_range unless the whole
  // range lies inside the vector) -------------------------------------------

  // Replace this vector's contents with bits [pos, pos + n) of `src`,
  // reusing this vector's capacity. `src` must not be *this.
  void assign_slice(const BitVec& src, std::size_t pos, std::size_t n) {
    src.check_range(pos, n, "BitVec::assign_slice");
    n_ = n;
    words_.resize((n + 63) / 64);
    if (pos % 64 == 0) {
      for (std::size_t w = 0; w < words_.size(); ++w) {
        words_[w] = src.words_[pos / 64 + w];
      }
    } else {
      for (std::size_t w = 0; w < words_.size(); ++w) {
        words_[w] = src.window(pos + 64 * w);
      }
    }
    clear_tail();
  }

  // Bits [pos, pos + n) as a new vector.
  BitVec slice(std::size_t pos, std::size_t n) const {
    BitVec out;
    out.assign_slice(*this, pos, n);
    return out;
  }

  // Overwrite bits [pos, pos + src.size()) with `src`.
  void write(std::size_t pos, const BitVec& src) {
    check_range(pos, src.n_, "BitVec::write");
    for (std::size_t w = 0; w < src.words_.size(); ++w) {
      const std::size_t len = std::min<std::size_t>(64, src.n_ - 64 * w);
      write_top(pos + 64 * w, src.words_[w], len);
    }
  }

  // Number of set bits in [pos, pos + n).
  std::size_t popcount(std::size_t pos, std::size_t n) const {
    check_range(pos, n, "BitVec::popcount");
    std::size_t ones = 0;
    for (; n >= 64; pos += 64, n -= 64) ones += std::popcount(window(pos));
    if (n > 0) ones += std::popcount(window(pos) >> (64 - n));
    return ones;
  }

  // Number of positions i < other.size() where bit(pos + i) != other.bit(i).
  std::size_t mismatches(std::size_t pos, const BitVec& other) const {
    check_range(pos, other.n_, "BitVec::mismatches");
    std::size_t diff = 0;
    for (std::size_t w = 0; w < other.words_.size(); ++w) {
      const std::size_t len = std::min<std::size_t>(64, other.n_ - 64 * w);
      diff += std::popcount((window(pos + 64 * w) ^ other.words_[w]) &
                            top_mask(len));
    }
    return diff;
  }

  // Word-level access: word w holds bits [64w, 64w + 64), MSB-first.
  std::size_t n_words() const { return words_.size(); }
  std::uint64_t word(std::size_t w) const {
    if (w >= words_.size()) throw std::out_of_range("BitVec::word");
    return words_[w];
  }
  // Flip every bit of word w that is set in `mask`. The mask may not touch
  // positions past size().
  void xor_word(std::size_t w, std::uint64_t mask) {
    if (w >= words_.size() ||
        (mask & ~top_mask(std::min<std::size_t>(64, n_ - 64 * w))) != 0) {
      throw std::out_of_range("BitVec::xor_word");
    }
    words_[w] ^= mask;
  }

  // Pack to bytes, MSB-first within each byte, the final byte zero-padded —
  // the on-disk representation used by the pbecc::cap trace format.
  std::vector<std::uint8_t> to_bytes() const {
    std::vector<std::uint8_t> out((n_ + 7) / 8);
    for (std::size_t i = 0; i < out.size(); ++i) {
      out[i] = static_cast<std::uint8_t>(words_[i / 8] >> (56 - 8 * (i % 8)));
    }
    return out;
  }

  // Inverse of to_bytes(): read `nbits` bits from a packed byte buffer
  // (which must hold at least ceil(nbits/8) bytes). Padding bits past
  // `nbits` in the final byte are ignored.
  static BitVec from_bytes(const std::uint8_t* data, std::size_t nbits) {
    BitVec v(nbits);
    const std::size_t n_bytes = (nbits + 7) / 8;
    for (std::size_t i = 0; i < n_bytes; ++i) {
      v.words_[i / 8] |= static_cast<std::uint64_t>(data[i])
                         << (56 - 8 * (i % 8));
    }
    v.clear_tail();
    return v;
  }

  bool operator==(const BitVec&) const = default;

 private:
  static constexpr std::uint64_t kTopBit = 1ULL << 63;

  // The top `len` bits set (len in [0, 64]).
  static constexpr std::uint64_t top_mask(std::size_t len) {
    return len == 0 ? 0 : ~0ULL << (64 - len);
  }

  void check_index(std::size_t i, const char* what) const {
    if (i >= n_) throw std::out_of_range(what);
  }
  // Written so pos + n cannot overflow.
  void check_range(std::size_t pos, std::size_t n, const char* what) const {
    if (pos > n_ || n > n_ - pos) throw std::out_of_range(what);
  }

  // The 64 bits starting at bit `pos` (pos < size()), MSB-first; positions
  // past size() read as zero.
  std::uint64_t window(std::size_t pos) const {
    const std::size_t w = pos / 64;
    const std::size_t s = pos % 64;
    if (s == 0) return words_[w];
    const std::uint64_t lo = w + 1 < words_.size() ? words_[w + 1] : 0;
    return (words_[w] << s) | (lo >> (64 - s));
  }

  // Append the top `len` bits of `v` (len in [1, 64]).
  void append_top(std::uint64_t v, std::size_t len) {
    v &= top_mask(len);
    const std::size_t s = n_ % 64;
    if (s == 0) {
      words_.push_back(v);
    } else {
      words_.back() |= v >> s;
      if (s + len > 64) words_.push_back(v << (64 - s));
    }
    n_ += len;
  }

  // Overwrite the `len` bits at `pos` with the top `len` bits of `v`
  // (len in [1, 64], range already checked).
  void write_top(std::size_t pos, std::uint64_t v, std::size_t len) {
    const std::uint64_t m = top_mask(len);
    v &= m;
    const std::size_t w = pos / 64;
    const std::size_t s = pos % 64;
    words_[w] = (words_[w] & ~(m >> s)) | (v >> s);
    if (s + len > 64) {
      words_[w + 1] = (words_[w + 1] & ~(m << (64 - s))) | (v << (64 - s));
    }
  }

  void clear_tail() {
    if (n_ % 64 != 0) words_.back() &= top_mask(n_ % 64);
  }

  std::vector<std::uint64_t> words_;
  std::size_t n_ = 0;
};

}  // namespace pbecc::util
