// Unit tests for src/decoder: blind decoding, message fusion, user
// tracking, and the assembled monitor pipeline.
#include <gtest/gtest.h>

#include <algorithm>
#include <iterator>
#include <vector>

#include "decoder/blind_decoder.h"
#include "decoder/message_fusion.h"
#include "decoder/monitor.h"
#include "decoder/user_tracker.h"
#include "nr/numerology.h"
#include "nr/polar.h"
#include "phy/convolutional.h"
#include "phy/pdcch.h"
#include "reference_decoders.h"
#include "util/rng.h"

namespace pbecc::decoder {
namespace {

phy::Dci make_dci(phy::Rnti rnti, int n_prbs, int prb_start = 0,
                  phy::DciFormat fmt = phy::DciFormat::kFormat1, int cqi = 10) {
  phy::Dci d;
  d.rnti = rnti;
  d.format = fmt;
  d.prb_start = static_cast<std::uint16_t>(prb_start);
  d.n_prbs = static_cast<std::uint16_t>(n_prbs);
  d.mcs = {cqi, phy::format_is_mimo(fmt) ? 2 : 1};
  return d;
}

// ---------------------------------------------------------- blind decoder

TEST(BlindDecoder, DecodesCleanSubframe) {
  phy::CellConfig cell{1, 20.0};
  phy::PdcchBuilder b(cell, 3);
  ASSERT_TRUE(b.add(make_dci(0x100, 30, 0), 1));
  ASSERT_TRUE(b.add(make_dci(0x200, 20, 30, phy::DciFormat::kFormat2), 2));
  ASSERT_TRUE(b.add(make_dci(0x300, 4, 50, phy::DciFormat::kFormat1A, 3), 4));
  const auto sf = std::move(b).build();

  BlindDecoder dec{cell};
  const auto msgs = dec.decode(sf);
  ASSERT_EQ(msgs.size(), 3u);
  int prbs_by_rnti[4] = {};
  for (const auto& m : msgs) {
    if (m.rnti == 0x100) prbs_by_rnti[1] = m.n_prbs;
    if (m.rnti == 0x200) prbs_by_rnti[2] = m.n_prbs;
    if (m.rnti == 0x300) prbs_by_rnti[3] = m.n_prbs;
  }
  EXPECT_EQ(prbs_by_rnti[1], 30);
  EXPECT_EQ(prbs_by_rnti[2], 20);
  EXPECT_EQ(prbs_by_rnti[3], 4);
  EXPECT_EQ(dec.stats().messages_decoded, 3u);
}

TEST(BlindDecoder, NoMessagesNoDecodes) {
  phy::CellConfig cell{1, 10.0};
  phy::PdcchBuilder b(cell, 0);
  const auto sf = std::move(b).build();
  BlindDecoder dec{cell};
  EXPECT_TRUE(dec.decode(sf).empty());
}

TEST(BlindDecoder, NoDuplicatesFromNestedCandidates) {
  // A message at AL4 is self-similar at the nested AL2/AL1 candidates;
  // the claimed-CCE rule must report it exactly once.
  phy::CellConfig cell{1, 10.0};
  phy::PdcchBuilder b(cell, 0);
  ASSERT_TRUE(b.add(make_dci(0x150, 10), 4));
  const auto sf = std::move(b).build();
  BlindDecoder dec{cell};
  const auto msgs = dec.decode(sf);
  ASSERT_EQ(msgs.size(), 1u);
  EXPECT_EQ(msgs[0].rnti, 0x150);
}

TEST(BlindDecoder, HighAggregationSurvivesNoise) {
  phy::CellConfig cell{1, 20.0};
  util::Rng rng{5};
  int decoded_al8 = 0, decoded_al1 = 0;
  const int trials = 50;
  for (int t = 0; t < trials; ++t) {
    for (int al : {1, 8}) {
      phy::PdcchBuilder b(cell, t);
      ASSERT_TRUE(b.add(make_dci(0x100, 30), al));
      auto sf = std::move(b).build();
      phy::apply_bit_noise(sf, 0.04, rng);
      BlindDecoder dec{cell};
      const auto msgs = dec.decode(sf);
      const bool ok = msgs.size() == 1 && msgs[0].rnti == 0x100 &&
                      msgs[0].n_prbs == 30;
      (al == 8 ? decoded_al8 : decoded_al1) += ok ? 1 : 0;
    }
  }
  // 4% BER: a single 66-bit copy usually breaks, 8 repetitions majority-
  // vote it back out.
  EXPECT_GT(decoded_al8, decoded_al1);
  EXPECT_GT(decoded_al8, trials / 2);
}

TEST(BlindDecoder, NoFalsePositivesOnNoise) {
  // Pure-noise regions marked "energized" must (essentially) never decode.
  phy::CellConfig cell{1, 20.0};
  util::Rng rng{7};
  BlindDecoder dec{cell};
  int phantom = 0;
  for (int t = 0; t < 200; ++t) {
    phy::PdcchBuilder b(cell, t);
    auto sf = std::move(b).build();
    std::fill(sf.cce_used.begin(), sf.cce_used.end(), true);
    phy::apply_bit_noise(sf, 0.5, rng);  // random bits
    phantom += static_cast<int>(dec.decode(sf).size());
  }
  EXPECT_LE(phantom, 1);
}

TEST(BlindDecoder, WrongFormatNeverWins) {
  // Exhaustive: place every format of each RAT at every AL it fits and
  // verify the decode returns exactly the placed message with its own
  // format.
  phy::CellConfig cell{1, 20.0};
  for (const auto fmt : phy::kLteDciFormats) {
    for (int al : {1, 2, 4, 8}) {
      phy::PdcchBuilder b(cell, 0);
      auto d = make_dci(0x123, fmt == phy::DciFormat::kFormat0 ? 4 : 25, 0,
                        fmt);
      ASSERT_TRUE(b.add(d, al));
      const auto sf = std::move(b).build();
      BlindDecoder dec{cell};
      const auto msgs = dec.decode(sf);
      ASSERT_EQ(msgs.size(), 1u) << "format " << static_cast<int>(fmt)
                                 << " AL " << al;
      EXPECT_EQ(msgs[0].format, fmt);
      EXPECT_EQ(msgs[0].rnti, 0x123);
    }
  }
  phy::CellConfig nr_cell{2, 20.0};
  nr_cell.rat = phy::Rat::kNr;
  nr_cell.scs = nr::Scs::k30kHz;
  for (const auto fmt : phy::kNrDciFormats) {
    for (int al : {1, 2, 4, 8, 16}) {
      phy::PdcchBuilder b(nr_cell, 0);
      auto d = make_dci(0x123,
                        fmt == phy::DciFormat::kNrFormat0_0 ? 4 : 25, 0, fmt);
      ASSERT_TRUE(b.add(d, al));
      const auto sf = std::move(b).build();
      BlindDecoder dec{nr_cell};
      const auto msgs = dec.decode(sf);
      ASSERT_EQ(msgs.size(), 1u) << "format " << static_cast<int>(fmt)
                                 << " AL " << al;
      EXPECT_EQ(msgs[0].format, fmt);
      EXPECT_EQ(msgs[0].rnti, 0x123);
    }
  }
}

// Per-bit reference loops for the word-wise majority vote and agreement
// check, as the decoder ran them before the control region was packed.
util::BitVec reference_majority(const phy::PdcchSubframe& sf, int first_cce,
                                int n_cces, int msg_bits) {
  const int reps = phy::repetitions_that_fit(msg_bits, n_cces);
  util::BitVec out(static_cast<std::size_t>(msg_bits));
  const auto base = static_cast<std::size_t>(first_cce) * phy::kBitsPerCce;
  for (int b = 0; b < msg_bits; ++b) {
    int votes = 0;
    for (int r = 0; r < reps; ++r) {
      const auto idx = base + static_cast<std::size_t>(r * msg_bits + b);
      votes += sf.bits.bit(idx) ? 1 : -1;
    }
    out.set_bit(static_cast<std::size_t>(b), votes > 0);
  }
  return out;
}

bool reference_agrees(const phy::PdcchSubframe& sf, int first_cce, int n_cces,
                      const util::BitVec& msg) {
  const auto base = static_cast<std::size_t>(first_cce) * phy::kBitsPerCce;
  const auto region_bits = static_cast<std::size_t>(n_cces) * phy::kBitsPerCce;
  if (sf.coding != phy::PdcchCoding::kRepetition) {
    const util::BitVec re =
        sf.coding == phy::PdcchCoding::kPolar
            ? nr::polar_rate_match(nr::polar_encode(msg), region_bits)
            : phy::rate_match(phy::conv_encode(msg), region_bits);
    std::size_t matches = 0;
    for (std::size_t i = 0; i < re.size(); ++i) {
      matches += sf.bits.bit(base + i) == re.bit(i) ? 1 : 0;
    }
    return static_cast<double>(matches) >= 0.85 * static_cast<double>(re.size());
  }
  const int reps = phy::repetitions_that_fit(static_cast<int>(msg.size()), n_cces);
  const auto rep_bits = static_cast<std::size_t>(reps) * msg.size();
  std::size_t matches = 0;
  for (std::size_t i = 0; i < rep_bits; ++i) {
    matches += sf.bits.bit(base + i) == msg.bit(i % msg.size()) ? 1 : 0;
  }
  if (static_cast<double>(matches) < 0.93 * static_cast<double>(rep_bits)) {
    return false;
  }
  std::size_t filler_zeros = 0;
  for (std::size_t i = rep_bits; i < region_bits; ++i) {
    filler_zeros += sf.bits.bit(base + i) ? 0 : 1;
  }
  const auto filler_total = region_bits - rep_bits;
  return filler_total == 0 || static_cast<double>(filler_zeros) >=
                                  0.9 * static_cast<double>(filler_total);
}

// Every AL (LTE's four and NR's AL16) at every CCE offset of a 32-CCE
// region, every LTE and NR message length, all three codings: a true
// message written at the offset (then channel noise) and random
// neighbours, checked with the true message, the majority and a random
// message.
TEST(BlindDecoder, WordWiseVoteAndAgreementMatchPerBitReference) {
  constexpr int kCces = 32;
  std::vector<int> lengths;
  for (const auto f : phy::kLteDciFormats) {
    lengths.push_back(phy::dci_payload_bits(f) + 16);
  }
  for (const auto f : phy::kNrDciFormats) {
    lengths.push_back(phy::dci_payload_bits(f) + 16);
  }
  util::Rng rng{4242};
  auto random_bits = [&](std::size_t n) {
    util::BitVec v;
    for (std::size_t i = 0; i < n; ++i) v.push_bit((rng.next_u64() & 1) != 0);
    return v;
  };
  int agreed = 0, rejected = 0;
  for (const auto coding : {phy::PdcchCoding::kRepetition,
                            phy::PdcchCoding::kConvolutional,
                            phy::PdcchCoding::kPolar}) {
    for (const int al : kAggregationLevels) {
      const auto region_bits = static_cast<std::size_t>(al) * phy::kBitsPerCce;
      for (int first = 0; first + al <= kCces; ++first) {
        for (const int len : lengths) {
          const double ber = (first % 3) * 0.04;  // 0, 4 % and 8 %
          phy::PdcchSubframe sf;
          sf.coding = coding;
          sf.n_cces = kCces;
          sf.cce_used.assign(kCces, true);  // the whole region is noised
          sf.bits = random_bits(static_cast<std::size_t>(kCces) * phy::kBitsPerCce);
          const util::BitVec msg = random_bits(static_cast<std::size_t>(len));
          const auto base = static_cast<std::size_t>(first) * phy::kBitsPerCce;
          if (coding == phy::PdcchCoding::kRepetition) {
            sf.bits.write(base, util::BitVec(region_bits));  // zero filler
            const int reps = phy::repetitions_that_fit(len, al);
            for (int r = 0; r < reps; ++r) {
              sf.bits.write(base + static_cast<std::size_t>(r * len), msg);
            }
          } else {
            sf.bits.write(base, phy::rate_match(phy::conv_encode(msg), region_bits));
          }
          phy::apply_bit_noise(sf, ber, rng);

          SCOPED_TRACE(testing::Message() << "coding " << static_cast<int>(coding)
                                          << " AL " << al << " first " << first
                                          << " len " << len);
          const util::BitVec maj = majority_decode(sf, first, al, len);
          ASSERT_EQ(maj, reference_majority(sf, first, al, len));
          for (const util::BitVec* m : {&msg, &maj}) {
            const bool got = region_agrees(sf, first, al, *m);
            ASSERT_EQ(got, reference_agrees(sf, first, al, *m));
            (got ? agreed : rejected) += 1;
          }
          const util::BitVec other = random_bits(static_cast<std::size_t>(len));
          ASSERT_EQ(region_agrees(sf, first, al, other),
                    reference_agrees(sf, first, al, other));
        }
      }
    }
  }
  // Both outcomes are exercised.
  EXPECT_GT(agreed, 1000);
  EXPECT_GT(rejected, 1000);
}

// One cell per codec: LTE repetition, LTE convolutional, NR polar at µ=1.
std::vector<phy::CellConfig> oracle_cells() {
  phy::CellConfig rep_cell{1, 20.0};
  phy::CellConfig conv_cell{2, 10.0};
  conv_cell.pdcch_coding = phy::PdcchCoding::kConvolutional;
  phy::CellConfig nr_cell{3, 20.0};
  nr_cell.rat = phy::Rat::kNr;
  nr_cell.scs = nr::Scs::k30kHz;
  nr_cell.coreset.rbs = 48;
  nr_cell.coreset.symbols = 2;
  nr_cell.pdcch_coding = phy::PdcchCoding::kPolar;
  return {rep_cell, conv_cell, nr_cell};
}

// A random builder subframe: 0..6 messages of random formats at random
// aggregation levels (first fit), plus ~15 % of the remaining CCEs
// energised with random bits as interference, which leaves silent gaps
// between energised runs.
phy::PdcchSubframe random_subframe(const phy::CellConfig& cell, int t,
                                   util::Rng& rng) {
  const bool is_nr = cell.rat == phy::Rat::kNr;
  std::vector<phy::DciFormat> formats;
  if (is_nr) {
    formats.assign(std::begin(phy::kNrDciFormats), std::end(phy::kNrDciFormats));
  } else {
    formats.assign(std::begin(phy::kLteDciFormats), std::end(phy::kLteDciFormats));
  }
  phy::PdcchBuilder b(cell, t);
  const int n_msgs = static_cast<int>(rng.uniform_int(0, 6));
  for (int m = 0; m < n_msgs; ++m) {
    const auto fmt = formats[static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(formats.size()) - 1))];
    const int n_prbs = static_cast<int>(rng.uniform_int(1, cell.n_prbs() / 2));
    const int start = static_cast<int>(rng.uniform_int(0, cell.n_prbs() - n_prbs));
    auto d = make_dci(static_cast<phy::Rnti>(rng.uniform_int(0x100, 0x400)),
                      n_prbs, start, fmt,
                      static_cast<int>(rng.uniform_int(1, 15)));
    const int al = 1 << rng.uniform_int(0, is_nr ? 4 : 3);
    b.add_escalating(d, al);
  }
  auto sf = std::move(b).build();
  for (std::size_t c = 0; c < sf.cce_used.size(); ++c) {
    if (sf.cce_used[c] || rng.uniform() >= 0.15) continue;
    sf.cce_used[c] = true;  // interference: energy, random bits
    for (std::size_t i = 0; i < phy::kBitsPerCce; ++i) {
      sf.bits.set_bit(c * phy::kBitsPerCce + i, (rng.next_u64() & 1) != 0);
    }
  }
  return sf;
}

// The lockstep decoder against the per-candidate reference search
// (tests/reference_decoders.h): same found list (DCI, AL, order), same
// candidates_tried / crc_failures, same per-AL counts — on random
// builder subframes for each codec (LTE repetition, LTE convolutional, NR
// polar at µ=1) at three bit-error rates. Each subframe is decoded twice
// by the same decoder, so the second pass replays every outcome and
// counter from the span memo and must match the reference too. Extra
// energized CCEs carrying random bits stand in for interference, so
// CRC failures, screen rejects and early aborts all occur.
TEST(BlindDecoderOracle, LockstepMatchesReferenceSearch) {
  util::Rng rng{1313};
  for (const phy::CellConfig& cell : oracle_cells()) {
    std::uint64_t found = 0, failures = 0, memo_hits = 0, screened = 0,
                  aborted = 0;
    for (const double ber : {0.0, 1e-2, 4e-2}) {
      BlindDecoder dec{cell};
      for (int t = 0; t < 40; ++t) {
        auto sf = random_subframe(cell, t, rng);
        phy::apply_bit_noise(sf, ber, rng);

        const ref::SearchResult want = ref::reference_blind_search(cell, sf);
        for (int pass = 0; pass < 2; ++pass) {
          SCOPED_TRACE(testing::Message()
                       << "coding " << static_cast<int>(cell.pdcch_coding)
                       << " ber " << ber << " sf " << t << " pass " << pass);
          const DecodeRun run = dec.decode_compute(sf);
          ASSERT_EQ(run.found.size(), want.found.size());
          for (std::size_t i = 0; i < want.found.size(); ++i) {
            EXPECT_EQ(run.found[i].dci, want.found[i].dci) << i;
            EXPECT_EQ(run.found[i].al, want.found[i].al) << i;
          }
          EXPECT_EQ(run.delta.candidates_tried, want.candidates_tried);
          EXPECT_EQ(run.delta.crc_failures, want.crc_failures);
          EXPECT_EQ(run.delta.messages_decoded, want.found.size());
          EXPECT_EQ(run.delta.candidates_by_al, want.candidates_by_al);
          EXPECT_EQ(run.delta.crc_failures_by_al, want.crc_failures_by_al);
          EXPECT_EQ(run.delta.decoded_by_al, want.decoded_by_al);
          if (pass == 1) {
            memo_hits += run.delta.memo_hits;
          } else {
            found += run.found.size();
            failures += run.delta.crc_failures;
            screened += run.delta.screen_rejects;
            aborted += run.delta.early_aborts;
          }
          dec.decode_apply(run);
        }
      }
    }
    // Every path the comparison is meant to cover actually ran.
    SCOPED_TRACE(testing::Message()
                 << "coding " << static_cast<int>(cell.pdcch_coding));
    EXPECT_GT(found, 100u);
    EXPECT_GT(failures, 100u);
    EXPECT_GT(memo_hits, 100u);
    // Repetition cells reach the CRC-first screen on every attempt (few
    // fail it: the RNTI range is wide); trellis cells mostly stop earlier,
    // at the early abort or the metric floor.
    if (cell.pdcch_coding == phy::PdcchCoding::kRepetition) {
      EXPECT_GT(screened, 0u);
    } else {
      EXPECT_GT(aborted, 100u);
    }
  }
}

// The reception noise draws only on energised CCEs and jumps the RNG over
// silent ones. Against the full-region per-bit loop
// (ref::reference_bit_noise), which also flips silent bits, the decoder
// must see no difference: same found list (DCI, AL, order), same
// DecodeStats (every counter, memo and screen included), and the RNG ends
// in the same state — on random gapped subframes for each codec at three
// bit-error rates.
TEST(BlindDecoderOracle, EnergisedNoiseDecodesLikeFullRegionNoise) {
  util::Rng rng{1515};
  for (const phy::CellConfig& cell : oracle_cells()) {
    std::uint64_t found = 0, silent_flips_differ = 0, gapped = 0;
    for (const double ber : {1e-3, 1e-2, 4e-2}) {
      BlindDecoder dec_new{cell}, dec_ref{cell};
      for (int t = 0; t < 40; ++t) {
        SCOPED_TRACE(testing::Message()
                     << "coding " << static_cast<int>(cell.pdcch_coding)
                     << " ber " << ber << " sf " << t);
        const phy::PdcchSubframe clean = random_subframe(cell, t, rng);
        const auto& used = clean.cce_used;
        for (std::size_t c = 1; c + 1 < used.size(); ++c) {
          if (used[c - 1] && !used[c] &&
              std::find(used.begin() + static_cast<std::ptrdiff_t>(c),
                        used.end(), true) != used.end()) {
            ++gapped;  // a silent run with energy on both sides
            break;
          }
        }
        phy::PdcchSubframe sf_new = clean, sf_ref = clean;
        util::Rng r_new{rng.next_u64()};
        util::Rng r_ref = r_new;
        phy::apply_bit_noise(sf_new, ber, r_new);
        ref::reference_bit_noise(sf_ref, ber, r_ref);
        ASSERT_EQ(r_new.next_u64(), r_ref.next_u64());
        silent_flips_differ += sf_new.bits != sf_ref.bits ? 1 : 0;

        const DecodeRun got = dec_new.decode_compute(sf_new);
        const DecodeRun want = dec_ref.decode_compute(sf_ref);
        ASSERT_EQ(got.found.size(), want.found.size());
        for (std::size_t i = 0; i < want.found.size(); ++i) {
          EXPECT_EQ(got.found[i].dci, want.found[i].dci) << i;
          EXPECT_EQ(got.found[i].al, want.found[i].al) << i;
        }
        EXPECT_EQ(got.delta, want.delta);
        found += got.found.size();
        dec_new.decode_apply(got);
        dec_ref.decode_apply(want);
      }
    }
    SCOPED_TRACE(testing::Message()
                 << "coding " << static_cast<int>(cell.pdcch_coding));
    EXPECT_GT(found, 100u);
    EXPECT_GT(gapped, 60u);
    // The reference really flipped silent bits the decoder never read.
    EXPECT_GT(silent_flips_differ, 60u);
  }
}

// ---------------------------------------------------------------- fusion

TEST(MessageFusion, AlignsBySubframe) {
  std::vector<FusedSubframe> out;
  MessageFusion fusion([&](const FusedSubframe& f) { out.push_back(f); });
  fusion.register_cell(1);
  fusion.register_cell(2);

  fusion.on_decoded(1, 100, {make_dci(0x100, 5)});
  EXPECT_TRUE(out.empty());  // waiting for cell 2
  fusion.on_decoded(2, 100, {make_dci(0x200, 7)});
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].time, 100 * util::kSubframe);
  ASSERT_EQ(out[0].cells.size(), 2u);
  EXPECT_EQ(out[0].cells[0].cell, 1u);
  EXPECT_EQ(out[0].cells[1].cell, 2u);
  EXPECT_EQ(out[0].cells[0].messages[0].rnti, 0x100);
}

TEST(MessageFusion, MissingCellFlushedByNextSubframe) {
  std::vector<FusedSubframe> out;
  MessageFusion fusion([&](const FusedSubframe& f) { out.push_back(f); });
  fusion.register_cell(1);
  fusion.register_cell(2);

  fusion.on_decoded(1, 100, {});     // cell 2 never reports sf 100
  fusion.on_decoded(1, 101, {});
  EXPECT_EQ(out.size(), 1u);         // sf 100 flushed incomplete
  fusion.on_decoded(2, 101, {});
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[0].time, 100 * util::kSubframe);
  EXPECT_EQ(out[0].cells[0].sf_index, 100);
  EXPECT_TRUE(out[0].cells[1].messages.empty());
  EXPECT_EQ(out[1].time, 101 * util::kSubframe);
}

TEST(MessageFusion, SingleCellImmediate) {
  int n = 0;
  MessageFusion fusion([&](const FusedSubframe&) { ++n; });
  fusion.register_cell(9);
  for (int sf = 0; sf < 5; ++sf) fusion.on_decoded(9, sf, {});
  EXPECT_EQ(n, 5);
}

// ------------------------------------------------------------ user tracker

TEST(UserTracker, TracksOwnAllocationAndIdle) {
  UserTracker tr{50};
  const auto s =
      tr.on_subframe(0, {make_dci(0x100, 20), make_dci(0x200, 10)}, 0x100);
  EXPECT_EQ(s.own_prbs, 20);
  EXPECT_GT(s.own_bits_per_prb, 0);
  EXPECT_EQ(s.allocated_prbs, 30);
  EXPECT_EQ(s.idle_prbs, 20);
  EXPECT_EQ(s.raw_active_users, 2);
}

TEST(UserTracker, UplinkGrantsIgnoredForPrbs) {
  UserTracker tr{50};
  const auto s =
      tr.on_subframe(0, {make_dci(0x300, 4, 0, phy::DciFormat::kFormat0)}, 0x100);
  EXPECT_EQ(s.allocated_prbs, 0);
  EXPECT_EQ(s.idle_prbs, 50);
}

TEST(UserTracker, ControlTrafficFiltered) {
  UserTracker tr{50};
  // A one-subframe, 4-PRB user: the paper's canonical parameter-update
  // pattern; must not count as a data user.
  tr.on_subframe(0, {make_dci(0x100, 20), make_dci(0x900, 4)}, 0x100);
  const auto s = tr.on_subframe(1, {make_dci(0x100, 20)}, 0x100);
  EXPECT_EQ(s.raw_active_users, 2);
  EXPECT_EQ(s.data_users, 1);  // just us
}

TEST(UserTracker, PersistentWideUserCounts) {
  UserTracker tr{50};
  UserTracker::SubframeSummary s;
  for (int sf = 0; sf < 10; ++sf) {
    s = tr.on_subframe(sf, {make_dci(0x100, 20), make_dci(0x777, 12)}, 0x100);
  }
  EXPECT_EQ(s.data_users, 2);
}

TEST(UserTracker, SelfAlwaysCounted) {
  UserTracker tr{50};
  const auto s = tr.on_subframe(0, {}, 0x100);
  EXPECT_EQ(s.data_users, 1);
}

TEST(UserTracker, WindowExpiry) {
  UserTrackerConfig cfg;
  cfg.window = 10 * util::kMillisecond;
  UserTracker tr{50, cfg};
  tr.on_subframe(0, {make_dci(0x777, 12)}, 0x100);
  tr.on_subframe(1, {make_dci(0x777, 12)}, 0x100);
  EXPECT_EQ(tr.raw_users(), 1);
  tr.on_subframe(30, {}, 0x100);  // far beyond the window
  EXPECT_EQ(tr.raw_users(), 0);
}

TEST(UserTracker, ActivitySnapshot) {
  UserTracker tr{50};
  tr.on_subframe(0, {make_dci(0x777, 10)}, 0x100);
  tr.on_subframe(1, {make_dci(0x777, 20)}, 0x100);
  const auto acts = tr.activity();
  ASSERT_EQ(acts.size(), 1u);
  EXPECT_EQ(acts[0].rnti, 0x777);
  EXPECT_EQ(acts[0].active_subframes, 2);
  EXPECT_DOUBLE_EQ(acts[0].average_prbs, 15.0);
}

// ----------------------------------------------------------------- monitor

TEST(Monitor, EndToEndPipeline) {
  phy::CellConfig c1{1, 10.0};
  phy::CellConfig c2{2, 10.0};
  std::vector<std::vector<CellObservation>> outputs;
  Monitor mon(0x100, {c1, c2},
              [&](const std::vector<CellObservation>& obs) {
                outputs.push_back(obs);
              });

  for (int sf = 0; sf < 5; ++sf) {
    phy::PdcchBuilder b1(c1, sf);
    ASSERT_TRUE(b1.add(make_dci(0x100, 30), 1));
    mon.on_pdcch(std::move(b1).build());
    phy::PdcchBuilder b2(c2, sf);
    ASSERT_TRUE(b2.add(make_dci(0x200, 10), 1));
    mon.on_pdcch(std::move(b2).build());
  }
  ASSERT_EQ(outputs.size(), 5u);
  ASSERT_EQ(outputs[0].size(), 2u);
  EXPECT_EQ(outputs[0][0].cell, 1u);
  EXPECT_EQ(outputs[0][0].summary.own_prbs, 30);
  EXPECT_EQ(outputs[0][1].cell, 2u);
  EXPECT_EQ(outputs[0][1].summary.own_prbs, 0);
  EXPECT_EQ(outputs[0][1].summary.allocated_prbs, 10);
}

TEST(Monitor, IgnoresForeignCells) {
  phy::CellConfig c1{1, 10.0};
  phy::CellConfig c9{9, 10.0};
  int outputs = 0;
  Monitor mon(0x100, {c1}, [&](const auto&) { ++outputs; });
  phy::PdcchBuilder b(c9, 0);
  mon.on_pdcch(std::move(b).build());
  EXPECT_EQ(outputs, 0);
  EXPECT_FALSE(mon.has_cell(9));
  EXPECT_TRUE(mon.has_cell(1));
}

TEST(Monitor, NoisyChannelLosesSomeMessages) {
  phy::CellConfig c1{1, 10.0};
  int own_seen = 0, sfs = 0;
  Monitor mon(0x100, {c1},
              [&](const std::vector<CellObservation>& obs) {
                ++sfs;
                own_seen += obs[0].summary.own_prbs > 0 ? 1 : 0;
              },
              [](phy::CellId) { return 0.02; });  // lossy control channel
  for (int sf = 0; sf < 100; ++sf) {
    phy::PdcchBuilder b(c1, sf);
    ASSERT_TRUE(b.add(make_dci(0x100, 30), 1));  // AL1: fragile
    mon.on_pdcch(std::move(b).build());
  }
  EXPECT_EQ(sfs, 100);
  EXPECT_LT(own_seen, 100);  // some messages genuinely lost
  EXPECT_GT(own_seen, 0);    // but not all
}

}  // namespace
}  // namespace pbecc::decoder
