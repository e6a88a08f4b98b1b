// Unit tests for src/phy: cell geometry, MCS tables, error models, DCI
// wire format, the synthetic PDCCH, and the wireless channel model.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "phy/cell_config.h"
#include "phy/channel.h"
#include "phy/dci.h"
#include "phy/error_model.h"
#include "phy/mcs.h"
#include "phy/pdcch.h"
#include "phy/transport_block.h"
#include "reference_decoders.h"
#include "util/crc.h"

namespace pbecc::phy {
namespace {

// ----------------------------------------------------------- cell config

TEST(CellConfig, PrbsPerBandwidth) {
  EXPECT_EQ(prbs_for_bandwidth_mhz(5.0), 25);
  EXPECT_EQ(prbs_for_bandwidth_mhz(10.0), 50);
  EXPECT_EQ(prbs_for_bandwidth_mhz(20.0), 100);
  EXPECT_EQ(prbs_for_bandwidth_mhz(1.4), 6);
  EXPECT_THROW(prbs_for_bandwidth_mhz(7.0), std::invalid_argument);
}

TEST(CellConfig, CceScalesWithBandwidth) {
  CellConfig c10{1, 10.0};
  CellConfig c20{2, 20.0};
  EXPECT_EQ(c10.n_cces() * 2, c20.n_cces());
  EXPECT_GT(c10.n_cces(), 0);
}

// ------------------------------------------------------------------- mcs

TEST(Mcs, TableShape) {
  EXPECT_EQ(cqi_entry(0).modulation_order, 0);
  EXPECT_EQ(cqi_entry(1).modulation_order, 2);   // QPSK
  EXPECT_EQ(cqi_entry(7).modulation_order, 4);   // 16QAM
  EXPECT_EQ(cqi_entry(15).modulation_order, 6);  // 64QAM
  EXPECT_THROW(cqi_entry(16), std::out_of_range);
  EXPECT_THROW(cqi_entry(-1), std::out_of_range);
}

TEST(Mcs, SpectralEfficiencyMonotonic) {
  for (int cqi = 2; cqi < kNumCqi; ++cqi) {
    EXPECT_GT(bits_per_prb(cqi, 1), bits_per_prb(cqi - 1, 1)) << "cqi " << cqi;
  }
}

TEST(Mcs, TwoStreamsDouble) {
  EXPECT_DOUBLE_EQ(bits_per_prb(10, 2), 2 * bits_per_prb(10, 1));
  // Stream counts clamp to [1, 2].
  EXPECT_DOUBLE_EQ(bits_per_prb(10, 5), bits_per_prb(10, 2));
  EXPECT_DOUBLE_EQ(bits_per_prb(10, 0), bits_per_prb(10, 1));
}

TEST(Mcs, PaperRateCeiling) {
  // Max ~1.8-1.9 kbit per PRB per subframe = 1.8-1.9 Mbit/s/PRB: the
  // paper's Fig 11(b) ceiling.
  const double peak = bits_per_prb(15, 2);
  EXPECT_GT(peak, 1700.0);
  EXPECT_LT(peak, 1950.0);
}

TEST(Mcs, CqiFromSinrMonotonicAndBounded) {
  int prev = 0;
  for (double s = -12; s <= 30; s += 0.5) {
    const int c = cqi_from_sinr_db(s);
    EXPECT_GE(c, prev);
    EXPECT_LE(c, 15);
    prev = c;
  }
  EXPECT_EQ(cqi_from_sinr_db(-20), 0);
  EXPECT_EQ(cqi_from_sinr_db(30), 15);
}

// ----------------------------------------------------------- error model

TEST(ErrorModel, TbErrorRateFormula) {
  // Matches 1-(1-p)^L computed directly.
  const double p = 1e-6, L = 40000;
  EXPECT_NEAR(tb_error_rate(p, L), 1.0 - std::pow(1.0 - p, L), 1e-10);
}

TEST(ErrorModel, TbErrorRateEdges) {
  EXPECT_DOUBLE_EQ(tb_error_rate(0.0, 1e5), 0.0);
  EXPECT_DOUBLE_EQ(tb_error_rate(1e-6, 0.0), 0.0);
  EXPECT_DOUBLE_EQ(tb_error_rate(1.0, 10), 1.0);
}

TEST(ErrorModel, TbErrorRateMonotonic) {
  double prev = 0;
  for (double L = 1e3; L <= 2e5; L += 1e3) {
    const double e = tb_error_rate(3e-6, L);
    EXPECT_GE(e, prev);
    EXPECT_LE(e, 1.0);
    prev = e;
  }
}

TEST(ErrorModel, ResidualBerPaperAnchors) {
  // The paper's measured anchors (Fig 6): p ~ 1e-6 at -98 dBm and
  // ~5e-6 at -113 dBm.
  EXPECT_NEAR(residual_ber_from_rssi(-98.0), 1e-6, 1e-8);
  EXPECT_NEAR(residual_ber_from_rssi(-113.0), 5e-6, 5e-8);
  // Monotonically worse with weaker signal.
  EXPECT_GT(residual_ber_from_rssi(-110), residual_ber_from_rssi(-100));
  // Clamped.
  EXPECT_LE(residual_ber_from_rssi(-200), 1e-3);
  EXPECT_GE(residual_ber_from_rssi(-10), 1e-8);
}

TEST(ErrorModel, QpskBer) {
  // ~0.5 at very low SINR, vanishing at high SINR, monotone.
  EXPECT_NEAR(qpsk_ber(-30), 0.5, 0.05);
  EXPECT_LT(qpsk_ber(10), 1e-5);
  EXPECT_GT(qpsk_ber(0), qpsk_ber(5));
}

// ------------------------------------------------------------------- dci

TEST(Dci, FormatLengthsDistinctAndSmall) {
  for (int a = 0; a < kNumDciFormats; ++a) {
    for (int b = a + 1; b < kNumDciFormats; ++b) {
      EXPECT_NE(dci_payload_bits(static_cast<DciFormat>(a)),
                dci_payload_bits(static_cast<DciFormat>(b)));
    }
    // Paper §7: control messages are less than 70 bits.
    EXPECT_LT(dci_payload_bits(static_cast<DciFormat>(a)) + 16, 70 + 16);
  }
}

TEST(Dci, EncodeDecodeRoundtrip) {
  Dci d;
  d.rnti = 0x1234;
  d.format = DciFormat::kFormat1;
  d.prb_start = 17;
  d.n_prbs = 33;
  d.mcs = {11, 1};
  d.harq_id = 5;
  d.new_data = false;
  const auto bits = encode_dci(d);
  EXPECT_EQ(bits.size(),
            static_cast<std::size_t>(dci_payload_bits(d.format)) + 16);
  const auto back = decode_dci(bits, DciFormat::kFormat1, 100);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(*back, d);
}

TEST(Dci, MimoRoundtrip) {
  Dci d;
  d.rnti = 0x0777;
  d.format = DciFormat::kFormat2;
  d.prb_start = 0;
  d.n_prbs = 100;
  d.mcs = {15, 2};
  d.harq_id = 7;
  const auto back = decode_dci(encode_dci(d), DciFormat::kFormat2, 100);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(*back, d);
}

TEST(Dci, TwoStreamsRequireMimoFormat) {
  Dci d;
  d.rnti = 0x200;
  d.format = DciFormat::kFormat1;
  d.n_prbs = 4;
  d.mcs = {9, 2};
  EXPECT_THROW(encode_dci(d), std::invalid_argument);
}

TEST(Dci, WrongFormatRejectedByTag) {
  Dci d;
  d.rnti = 0x1111;
  d.format = DciFormat::kFormat1;
  d.n_prbs = 10;
  d.mcs = {8, 1};
  const auto bits = encode_dci(d);
  // Same bit string deliberately parsed as every other format must fail
  // (length mismatch or tag mismatch) — this is what kills the phantom
  // decodes that plagued format-blind monitors.
  for (int f = 0; f < kNumDciFormats; ++f) {
    if (static_cast<DciFormat>(f) == d.format) continue;
    EXPECT_FALSE(decode_dci(bits, static_cast<DciFormat>(f), 100).has_value());
  }
}

TEST(Dci, CorruptionDetected) {
  Dci d;
  d.rnti = 0x0456;
  d.format = DciFormat::kFormat1A;
  d.n_prbs = 8;
  d.mcs = {6, 1};
  auto bits = encode_dci(d);
  int rejected = 0, accepted_wrong = 0;
  for (std::size_t i = 0; i < bits.size(); ++i) {
    auto c = bits;
    c.flip_bit(i);
    const auto back = decode_dci(c, d.format, 100);
    if (!back.has_value()) {
      ++rejected;
    } else if (!(*back == d)) {
      // A flipped CRC bit re-targets the message to rnti^mask — LTE
      // monitors accept it; it just belongs to another (phantom) user.
      ++accepted_wrong;
    }
  }
  // All corruptions are either rejected or at least never mistaken for the
  // original message.
  EXPECT_EQ(rejected + accepted_wrong, static_cast<int>(bits.size()));
  EXPECT_GT(rejected, 0);
}

TEST(Dci, StructuralValidation) {
  Dci d;
  d.rnti = 0x0456;
  d.format = DciFormat::kFormat1;
  d.prb_start = 40;
  d.n_prbs = 20;
  d.mcs = {6, 1};
  const auto bits = encode_dci(d);
  // Fits a 100-PRB cell, not a 50-PRB cell.
  EXPECT_TRUE(decode_dci(bits, d.format, 100).has_value());
  EXPECT_FALSE(decode_dci(bits, d.format, 50).has_value());
}

TEST(Dci, InvalidRntiRangeRejected) {
  Dci d;
  d.rnti = 0x0010;  // below the C-RNTI floor
  d.format = DciFormat::kFormat1A;
  d.n_prbs = 4;
  d.mcs = {5, 1};
  EXPECT_FALSE(decode_dci(encode_dci(d), d.format, 100).has_value());
}

// The CRC step (dci_crc_rnti) must be a sound filter for decode_dci: a
// rejected message can never have decoded, every accepted one yields the
// RNTI the CRC was masked with, and every genuine message passes it. The
// step is exactly "CRC residue lands in the C-RNTI window", so appending
// crc16(payload) ^ rnti to a random payload pins the residue to `rnti`
// and lets us probe both sides of every window boundary directly —
// random sampling would hit the narrow reject band (~0.1% of the 16-bit
// space) almost never. decode_dci is the CRC step plus parse_dci_fields.
TEST(Dci, CrcScreenNeverRejectsDecodable) {
  util::Rng rng{41};
  const Rnti out_of_range[] = {0x0000, 0x0001, 0x003C, 0xFFF4, 0xFFFE, 0xFFFF};
  const Rnti in_range[] = {kMinCRnti, 0x0456, 0x8A21, kMaxCRnti};
  for (int f = 0; f < kNumDciFormats; ++f) {
    const auto fmt = static_cast<DciFormat>(f);
    const auto payload_len = static_cast<std::size_t>(dci_payload_bits(fmt));
    for (int trial = 0; trial < 200; ++trial) {
      util::BitVec payload;
      for (std::size_t i = 0; i < payload_len; ++i) {
        payload.push_bit(rng.bernoulli(0.5));
      }
      const std::uint16_t residue = util::crc16(payload);
      for (const Rnti rnti : out_of_range) {
        util::BitVec bits = payload;
        bits.push_uint(static_cast<std::uint16_t>(residue ^ rnti), 16);
        EXPECT_FALSE(dci_crc_rnti(bits, fmt).has_value()) << "format " << f;
        EXPECT_FALSE(decode_dci(bits, fmt, 100).has_value()) << "format " << f;
      }
      for (const Rnti rnti : in_range) {
        util::BitVec bits = payload;
        bits.push_uint(static_cast<std::uint16_t>(residue ^ rnti), 16);
        const auto got = dci_crc_rnti(bits, fmt);
        ASSERT_TRUE(got.has_value()) << "format " << f;
        EXPECT_EQ(*got, rnti) << "format " << f;
        EXPECT_EQ(decode_dci(bits, fmt, 100),
                  parse_dci_fields(bits, fmt, rnti, 100))
            << "format " << f;
      }
    }
  }
  // Genuine messages always pass and parse back.
  Dci d;
  d.rnti = 0x0456;
  d.format = DciFormat::kFormat1;
  d.prb_start = 4;
  d.n_prbs = 20;
  d.mcs = {6, 1};
  EXPECT_EQ(dci_crc_rnti(encode_dci(d), d.format), d.rnti);
  EXPECT_EQ(parse_dci_fields(encode_dci(d), d.format, d.rnti, 100), d);
  // Wrong-length input is rejected by both steps, same as decode_dci.
  EXPECT_FALSE(dci_crc_rnti(encode_dci(d), DciFormat::kFormat2).has_value());
  EXPECT_FALSE(parse_dci_fields(encode_dci(d), DciFormat::kFormat2, d.rnti, 100)
                   .has_value());
}

// ----------------------------------------------------------------- pdcch

TEST(Pdcch, AggregationLevelFromSinr) {
  EXPECT_EQ(aggregation_level_for_sinr(15.0), 1);
  EXPECT_EQ(aggregation_level_for_sinr(10.0), 2);
  EXPECT_EQ(aggregation_level_for_sinr(4.0), 4);
  EXPECT_EQ(aggregation_level_for_sinr(0.0), 8);
}

TEST(Pdcch, RepetitionsThatFit) {
  EXPECT_EQ(repetitions_that_fit(72, 1), 1);
  EXPECT_EQ(repetitions_that_fit(73, 1), 0);
  EXPECT_EQ(repetitions_that_fit(60, 4), 4);
  EXPECT_EQ(repetitions_that_fit(0, 4), 0);
}

TEST(Pdcch, PlacementConsumesCces) {
  CellConfig cell{1, 10.0};
  PdcchBuilder b(cell, 5);
  const int total = cell.n_cces();
  EXPECT_EQ(b.cces_free(), total);

  Dci d;
  d.rnti = 0x300;
  d.format = DciFormat::kFormat1A;
  d.n_prbs = 4;
  d.mcs = {5, 1};
  ASSERT_TRUE(b.add(d, 4));
  EXPECT_EQ(b.cces_free(), total - 4);
  const auto sf = std::move(b).build();
  EXPECT_EQ(sf.sf_index, 5);
  EXPECT_EQ(sf.cell_id, 1u);
  int used = 0;
  for (bool u : sf.cce_used) used += u;
  EXPECT_EQ(used, 4);
}

TEST(Pdcch, RegionExhaustion) {
  CellConfig cell{1, 5.0};  // 21 CCEs
  PdcchBuilder b(cell, 0);
  Dci d;
  d.rnti = 0x300;
  d.format = DciFormat::kFormat1A;
  d.n_prbs = 1;
  d.mcs = {5, 1};
  int placed = 0;
  while (b.add(d, 8)) ++placed;
  EXPECT_EQ(placed, 2);  // 21 / 8 = 2 aligned slots
  // Smaller aggregation still fits in the leftovers.
  EXPECT_TRUE(b.add(d, 1));
}

TEST(Pdcch, InvalidAggregationThrows) {
  CellConfig cell{1, 10.0};
  PdcchBuilder b(cell, 0);
  Dci d;
  d.rnti = 0x300;
  d.format = DciFormat::kFormat1A;
  d.n_prbs = 1;
  d.mcs = {5, 1};
  EXPECT_THROW(b.add(d, 3), std::invalid_argument);
}

// A whole-CCE region of random bits with the given energy map.
PdcchSubframe noise_region(const std::vector<bool>& used, util::Rng& fill) {
  PdcchSubframe sf;
  sf.n_cces = static_cast<int>(used.size());
  sf.cce_used = used;
  sf.bits = util::BitVec(used.size() * kBitsPerCce);
  for (std::size_t w = 0; w < sf.bits.n_words(); ++w) {
    const std::size_t len = std::min<std::size_t>(64, sf.bits.size() - 64 * w);
    sf.bits.xor_word(w, len == 64 ? fill.next_u64()
                                  : fill.next_u64() & ~(~0ULL >> len));
  }
  return sf;
}

// Energy maps covering every run shape: all silent, all energised, one
// CCE, interior gaps, leading and trailing silent runs, alternation, and
// random maps at a few occupancies.
std::vector<std::vector<bool>> energy_maps(util::Rng& rng) {
  std::vector<std::vector<bool>> maps = {
      std::vector<bool>(84, false),
      std::vector<bool>(84, true),
      {true},
      {false},
      {true, true, false, false, false, true, true},
      {false, false, true, true, true, true},
      {true, true, true, false, false},
      {false, true, false, true, false, true, false, true, false}};
  for (const double p : {0.07, 0.5, 0.9}) {
    for (const std::size_t n : {21u, 84u, 135u, 300u}) {
      std::vector<bool> m(n);
      for (std::size_t c = 0; c < n; ++c) m[c] = rng.bernoulli(p);
      maps.push_back(m);
    }
  }
  return maps;
}

// Same seed, same region: same flips. Flips land only on energised CCEs,
// at about the BER.
TEST(Pdcch, NoiseFlipsBitsDeterministically) {
  util::Rng maps_rng{5};
  for (const auto& used : energy_maps(maps_rng)) {
    util::Rng fill{17};
    const PdcchSubframe clean = noise_region(used, fill);
    auto sf1 = clean, sf2 = clean;
    util::Rng r1{5}, r2{5};
    apply_bit_noise(sf1, 0.1, r1);
    apply_bit_noise(sf2, 0.1, r2);
    EXPECT_EQ(sf1.bits, sf2.bits);
    EXPECT_EQ(r1.next_u64(), r2.next_u64());
    std::size_t flips = 0, energised_bits = 0;
    for (std::size_t i = 0; i < clean.bits.size(); ++i) {
      const bool flipped = sf1.bits.bit(i) != clean.bits.bit(i);
      if (used[i / kBitsPerCce]) {
        flips += flipped;
        ++energised_bits;
      } else {
        EXPECT_FALSE(flipped) << "silent bit " << i;
      }
    }
    if (energised_bits >= 72 * 20) {
      EXPECT_NEAR(static_cast<double>(flips) / energised_bits, 0.1, 0.02);
    }
  }
}

// apply_bit_noise against the full-region per-bit rng.bernoulli(ber) loop
// (ref::reference_bit_noise): every energised bit equals the reference's,
// every silent bit stays as transmitted, and the RNG ends in the same state
// (the next draw agrees) — for every energy-map shape and BERs from
// denormal-small to beyond 1.
TEST(Pdcch, NoiseMatchesPerBitBernoulli) {
  const double bers[] = {1e-300, 1e-9, 1e-3, 0.05, 0.5, 1.0, 1.5};
  util::Rng maps_rng{11};
  const auto maps = energy_maps(maps_rng);
  std::uint64_t seed = 1;
  for (const double ber : bers) {
    for (std::size_t k = 0; k < maps.size(); ++k) {
      SCOPED_TRACE(testing::Message() << "ber " << ber << " map " << k);
      const auto& used = maps[k];
      util::Rng fill{seed};
      const PdcchSubframe clean = noise_region(used, fill);
      PdcchSubframe sf = clean, ref = clean;
      util::Rng r_new{++seed}, r_ref{seed};
      apply_bit_noise(sf, ber, r_new);
      ref::reference_bit_noise(ref, ber, r_ref);
      for (std::size_t i = 0; i < clean.bits.size(); ++i) {
        const bool want = used[i / kBitsPerCce] ? ref.bits.bit(i)
                                                : clean.bits.bit(i);
        ASSERT_EQ(sf.bits.bit(i), want) << "bit " << i;
      }
      EXPECT_EQ(r_new.next_u64(), r_ref.next_u64());
    }
  }
  // The integer threshold sits exactly on bernoulli's boundary: for a draw
  // x, a BER of (x >> 11) * 2^-53 does not flip it, the next double up
  // does, the next double down does not. Checked on the first bit of an
  // energised CCE behind a silent one, so the draw comes after a jump.
  for (std::uint64_t seed2 = 1; seed2 <= 50; ++seed2) {
    util::Rng peek{seed2};
    peek.discard(kBitsPerCce);
    const double at = static_cast<double>(peek.next_u64() >> 11) * 0x1p-53;
    for (const double ber : {at, std::nextafter(at, 2.0), std::nextafter(at, 0.0)}) {
      if (ber <= 0.0) continue;
      util::Rng r_new{seed2}, r_ref{seed2};
      PdcchSubframe sf;
      sf.cce_used = {false, true};
      sf.bits = util::BitVec(2 * kBitsPerCce);
      apply_bit_noise(sf, ber, r_new);
      r_ref.discard(kBitsPerCce);
      EXPECT_EQ(sf.bits.bit(kBitsPerCce), r_ref.bernoulli(ber))
          << seed2 << " " << ber;
    }
  }
}

// The energy map must cover the region exactly, whatever the BER: a short
// or long map, or a region that is not whole CCEs, throws.
TEST(Pdcch, NoiseRejectsMismatchedEnergyMap) {
  util::Rng rng{3};
  for (const double ber : {0.0, 0.01}) {
    PdcchSubframe sf;
    sf.bits = util::BitVec(3 * kBitsPerCce);
    sf.cce_used = {true, false};
    EXPECT_THROW(apply_bit_noise(sf, ber, rng), std::invalid_argument);
    sf.cce_used = {true, false, true, true};
    EXPECT_THROW(apply_bit_noise(sf, ber, rng), std::invalid_argument);
    sf.bits = util::BitVec(4 * kBitsPerCce + 5);
    EXPECT_THROW(apply_bit_noise(sf, ber, rng), std::invalid_argument);
    sf.bits = util::BitVec(4 * kBitsPerCce);
    EXPECT_NO_THROW(apply_bit_noise(sf, ber, rng));
  }
}

// --------------------------------------------------------------- channel

TEST(Channel, MobilityTraceInterpolation) {
  MobilityTrace t({{0, -85}, {1000, -105}});
  EXPECT_DOUBLE_EQ(t.rssi_at(-5), -85);
  EXPECT_DOUBLE_EQ(t.rssi_at(0), -85);
  EXPECT_DOUBLE_EQ(t.rssi_at(500), -95);
  EXPECT_DOUBLE_EQ(t.rssi_at(1000), -105);
  EXPECT_DOUBLE_EQ(t.rssi_at(99999), -105);
}

TEST(Channel, TraceValidation) {
  EXPECT_THROW(MobilityTrace({}), std::invalid_argument);
  EXPECT_THROW(MobilityTrace({{10, -80}, {5, -90}}), std::invalid_argument);
}

TEST(Channel, StationarySampleBounded) {
  ChannelConfig cfg;
  cfg.trace = MobilityTrace::stationary(-92);
  cfg.seed = 3;
  ChannelModel m{cfg};
  for (util::Time t = 0; t < 2 * util::kSecond; t += util::kSubframe) {
    const auto s = m.sample(t);
    EXPECT_NEAR(s.rssi_dbm, -92, 8.0);
    EXPECT_GE(s.cqi, 1);
    EXPECT_LE(s.cqi, 15);
    EXPECT_GT(s.data_ber, 0);
    EXPECT_GE(s.control_ber, 0);
  }
}

TEST(Channel, MobilityDegradesCqi) {
  ChannelConfig cfg;
  cfg.trace = MobilityTrace({{0, -85}, {util::kSecond, -110}});
  cfg.seed = 9;
  ChannelModel m{cfg};
  const auto strong = m.sample(0);
  const auto weak = m.sample(util::kSecond);
  EXPECT_GT(strong.cqi, weak.cqi);
  EXPECT_LT(strong.data_ber, weak.data_ber);
}

TEST(Channel, Deterministic) {
  ChannelConfig cfg;
  cfg.seed = 77;
  ChannelModel a{cfg}, b{cfg};
  for (util::Time t = 0; t < 200 * util::kMillisecond; t += util::kSubframe) {
    EXPECT_DOUBLE_EQ(a.sample(t).sinr_db, b.sample(t).sinr_db);
  }
}

// --------------------------------------------------------- transport block

TEST(TransportBlock, Sizing) {
  const Mcs mcs{10, 1};
  EXPECT_DOUBLE_EQ(transport_block_bits(10, mcs), 10 * mcs.bits_per_prb());
  EXPECT_DOUBLE_EQ(transport_block_bits(0, mcs), 0.0);
  EXPECT_THROW(transport_block_bits(-1, mcs), std::invalid_argument);
}

TEST(TransportBlock, FromDci) {
  Dci d;
  d.format = DciFormat::kFormat1;
  d.n_prbs = 25;
  d.mcs = {9, 1};
  EXPECT_DOUBLE_EQ(transport_block_bits(d), 25 * d.mcs.bits_per_prb());
  d.format = DciFormat::kFormat0;  // uplink grant
  EXPECT_THROW(transport_block_bits(d), std::invalid_argument);
}

}  // namespace
}  // namespace pbecc::phy
