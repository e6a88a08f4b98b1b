#include "util/crc.h"

namespace pbecc::util {

namespace {

// CRC-16/CCITT-FALSE one byte at a time: t[b] is the register change from
// shifting byte b through the MSB-first bit loop.
struct Crc16Table {
  std::uint16_t t[256];
  Crc16Table() {
    for (std::uint32_t i = 0; i < 256; ++i) {
      std::uint16_t c = static_cast<std::uint16_t>(i << 8);
      for (int k = 0; k < 8; ++k) {
        c = static_cast<std::uint16_t>((c & 0x8000) ? (c << 1) ^ 0x1021 : c << 1);
      }
      t[i] = c;
    }
  }
};

struct Crc32Table {
  std::uint32_t t[256];
  Crc32Table() {
    for (std::uint32_t i = 0; i < 256; ++i) {
      std::uint32_t c = i;
      for (int k = 0; k < 8; ++k) {
        c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
      }
      t[i] = c;
    }
  }
};

}  // namespace

std::uint16_t crc16(const BitVec& bits) {
  return crc16_range(bits, 0, bits.size());
}

std::uint16_t crc16_range(const BitVec& bits, std::size_t pos,
                          std::size_t len) {
  static const Crc16Table table;
  std::uint16_t crc = 0xFFFF;
  auto feed_byte = [&](std::uint64_t byte) {
    crc = static_cast<std::uint16_t>((crc << 8) ^
                                     table.t[((crc >> 8) ^ byte) & 0xFF]);
  };
  // 64 bits per read_uint (which also bounds-checks), then the < 64-bit
  // rest: whole bytes through the table, the last < 8 bits one at a time.
  for (; len >= 64; pos += 64, len -= 64) {
    const std::uint64_t w = bits.read_uint(pos, 64);
    for (int b = 56; b >= 0; b -= 8) feed_byte(w >> b);
  }
  const std::uint64_t rest = bits.read_uint(pos, len);
  std::size_t left = len;
  for (; left >= 8; left -= 8) feed_byte(rest >> (left - 8));
  for (; left > 0; --left) {
    const bool msb = (crc & 0x8000) != 0;
    crc = static_cast<std::uint16_t>(crc << 1);
    if (msb != (((rest >> (left - 1)) & 1) != 0)) crc ^= 0x1021;
  }
  return crc;
}

std::uint32_t crc32(const void* data, std::size_t len, std::uint32_t seed) {
  static const Crc32Table table;
  const auto* p = static_cast<const unsigned char*>(data);
  std::uint32_t c = seed ^ 0xFFFFFFFFu;
  for (std::size_t i = 0; i < len; ++i) {
    c = table.t[(c ^ p[i]) & 0xFF] ^ (c >> 8);
  }
  return c ^ 0xFFFFFFFFu;
}

}  // namespace pbecc::util
