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

// CRC-32 slice-by-8: t[0] is the usual byte table, t[k][b] the register
// change from byte b followed by k zero bytes, so eight table reads fold in
// eight input bytes at once.
struct Crc32Tables {
  std::uint32_t t[8][256];
  Crc32Tables() {
    for (std::uint32_t i = 0; i < 256; ++i) {
      std::uint32_t c = i;
      for (int k = 0; k < 8; ++k) {
        c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
      }
      t[0][i] = c;
    }
    for (int k = 1; k < 8; ++k) {
      for (std::uint32_t i = 0; i < 256; ++i) {
        const std::uint32_t prev = t[k - 1][i];
        t[k][i] = (prev >> 8) ^ t[0][prev & 0xFF];
      }
    }
  }
};

// Little-endian 32-bit load, byte by byte (alignment- and host-order-free).
std::uint32_t load_le32(const unsigned char* p) {
  return static_cast<std::uint32_t>(p[0]) |
         (static_cast<std::uint32_t>(p[1]) << 8) |
         (static_cast<std::uint32_t>(p[2]) << 16) |
         (static_cast<std::uint32_t>(p[3]) << 24);
}

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
  static const Crc32Tables tables;
  const auto& t = tables.t;
  const auto* p = static_cast<const unsigned char*>(data);
  std::uint32_t c = seed ^ 0xFFFFFFFFu;
  for (; len >= 8; p += 8, len -= 8) {
    const std::uint32_t lo = load_le32(p) ^ c;
    const std::uint32_t hi = load_le32(p + 4);
    c = t[7][lo & 0xFF] ^ t[6][(lo >> 8) & 0xFF] ^ t[5][(lo >> 16) & 0xFF] ^
        t[4][lo >> 24] ^ t[3][hi & 0xFF] ^ t[2][(hi >> 8) & 0xFF] ^
        t[1][(hi >> 16) & 0xFF] ^ t[0][hi >> 24];
  }
  for (; len > 0; ++p, --len) c = t[0][(c ^ *p) & 0xFF] ^ (c >> 8);
  return c ^ 0xFFFFFFFFu;
}

}  // namespace pbecc::util
