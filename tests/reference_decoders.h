// Test-only oracles for the blind-decode path.
//
// reference_bit_noise is the reception noise as a plain per-bit loop over
// the whole control region: one rng.bernoulli(ber) per bit in bit order,
// silent CCEs included. phy::apply_bit_noise must flip the same energised
// bits, leave the silent ones alone and leave the RNG in the same state.
//
// conv_decode_reference is the textbook hard-decision Viterbi decoder for
// the 36.212 rate-1/3, K=7 code: its own generator table, a full trellis
// per call, no pruning, no batching. phy::conv_decode_batch must match it
// bit for bit on every non-aborted lane.
//
// reference_blind_search is the per-candidate blind search the lockstep
// BlindDecoder::decode_compute replaced: for every aggregation level
// (largest first), every candidate position that carries energy and is not
// yet claimed, and every DCI format in order — decode (reference Viterbi
// for convolutional/polar cells, majority vote for repetition cells), parse
// with decode_dci, check region_agrees, and take the first format that
// passes. Positions of one AL are searched against the claims of the larger
// ALs only, exactly as the production decoder fans them out. No memo, no
// CRC-first screen, no early abort: the production decoder's outcomes and
// counters must not depend on any of them.
#pragma once

#include <algorithm>
#include <array>
#include <cstdint>
#include <iterator>
#include <limits>
#include <vector>

#include "decoder/blind_decoder.h"
#include "nr/coreset.h"
#include "phy/convolutional.h"
#include "phy/dci.h"
#include "phy/pdcch.h"
#include "util/bitvec.h"
#include "util/rng.h"

namespace pbecc::ref {

inline void reference_bit_noise(phy::PdcchSubframe& sf, double ber,
                                util::Rng& rng) {
  if (ber <= 0.0) return;
  for (std::size_t i = 0; i < sf.bits.size(); ++i) {
    if (rng.bernoulli(ber)) sf.bits.flip_bit(i);
  }
}

inline util::BitVec conv_decode_reference(const util::BitVec& received,
                                          std::size_t payload_bits) {
  // Generators 133 / 171 / 165 octal over a register whose bit 6 is the
  // current input and bits 5..0 the previous six inputs (newest at bit 5).
  constexpr std::uint32_t kGenerators[phy::kConvRateInv] = {0b1011011,
                                                            0b1111001,
                                                            0b1110101};
  constexpr int kNumStates = 1 << (phy::kConvConstraint - 1);
  const std::size_t steps = payload_bits + phy::kConvTailBits;
  const std::size_t coded_bits = phy::kConvRateInv * steps;

  // Per-mother-bit log-likelihood: +1 per received 1, -1 per received 0,
  // 0 for a punctured position.
  std::vector<int> llr(coded_bits, 0);
  const auto counts = phy::rate_match_counts(coded_bits, received.size());
  std::size_t j = 0;
  for (std::size_t i = 0; i < coded_bits; ++i) {
    for (int c = 0; c < counts[i]; ++c) llr[i] += received.bit(j++) ? 1 : -1;
  }

  constexpr std::int32_t kNegInf = std::numeric_limits<std::int32_t>::min() / 4;
  std::vector<std::int32_t> metric(kNumStates, kNegInf);
  metric[0] = 0;  // the encoder starts zeroed
  std::vector<std::int32_t> next_metric(kNumStates);
  std::vector<std::array<std::uint8_t, kNumStates>> survivor(steps);
  std::vector<std::array<std::uint8_t, kNumStates>> prev_state(steps);

  for (std::size_t t = 0; t < steps; ++t) {
    std::fill(next_metric.begin(), next_metric.end(), kNegInf);
    const int max_input = t < payload_bits ? 1 : 0;  // the tail forces zeros
    for (int s = 0; s < kNumStates; ++s) {
      if (metric[static_cast<std::size_t>(s)] == kNegInf) continue;
      for (int u = 0; u <= max_input; ++u) {
        const auto reg = (static_cast<std::uint32_t>(u) << 6) |
                         static_cast<std::uint32_t>(s);
        std::int32_t gain = 0;
        for (int k = 0; k < phy::kConvRateInv; ++k) {
          const int v = llr[phy::kConvRateInv * t + static_cast<std::size_t>(k)];
          gain += (__builtin_popcount(reg & kGenerators[k]) & 1) != 0 ? v : -v;
        }
        const auto ns = static_cast<std::size_t>(reg >> 1);
        const std::int32_t cand = metric[static_cast<std::size_t>(s)] + gain;
        if (cand > next_metric[ns]) {  // ties keep the lower source state
          next_metric[ns] = cand;
          survivor[t][ns] = static_cast<std::uint8_t>(u);
          prev_state[t][ns] = static_cast<std::uint8_t>(s);
        }
      }
    }
    metric.swap(next_metric);
  }

  // The zero tail drives the encoder back to state 0: trace from there.
  util::BitVec decoded(payload_bits);
  std::size_t state = 0;
  for (std::size_t t = steps; t-- > 0;) {
    if (t < payload_bits) decoded.set_bit(t, survivor[t][state] != 0);
    state = prev_state[t][state];
  }
  return decoded;
}

struct SearchResult {
  std::vector<decoder::DecodeRun::Found> found;  // AL desc, position asc
  std::uint64_t candidates_tried = 0;
  std::uint64_t crc_failures = 0;
  std::array<std::uint64_t, decoder::kNumAlLanes> candidates_by_al{};
  std::array<std::uint64_t, decoder::kNumAlLanes> crc_failures_by_al{};
  std::array<std::uint64_t, decoder::kNumAlLanes> decoded_by_al{};
};

inline SearchResult reference_blind_search(const phy::CellConfig& cell,
                                           const phy::PdcchSubframe& sf) {
  const bool is_nr = cell.rat == phy::Rat::kNr;
  const std::vector<phy::DciFormat> formats =
      is_nr ? std::vector<phy::DciFormat>(std::begin(phy::kNrDciFormats),
                                          std::end(phy::kNrDciFormats))
            : std::vector<phy::DciFormat>(std::begin(phy::kLteDciFormats),
                                          std::end(phy::kLteDciFormats));
  const std::vector<int> ladder =
      is_nr ? std::vector<int>{16, 8, 4, 2, 1} : std::vector<int>{8, 4, 2, 1};

  SearchResult out;
  std::vector<bool> claimed(static_cast<std::size_t>(sf.n_cces), false);
  for (const int al : ladder) {
    std::vector<int> starts;
    if (is_nr) {
      starts = nr::candidate_starts(sf.n_cces, al,
                                    cell.search_space.candidates_for(al));
    } else {
      for (int s = 0; s + al <= sf.n_cces; s += al) starts.push_back(s);
    }
    std::vector<int> live;
    for (const int start : starts) {
      bool skip = false;
      for (int c = start; c < start + al; ++c) {
        const auto cc = static_cast<std::size_t>(c);
        skip = skip || claimed[cc] || !sf.cce_used[cc];
      }
      if (!skip) live.push_back(start);
    }

    const auto ai = static_cast<std::size_t>(decoder::al_index(al));
    const auto region_bits = static_cast<std::size_t>(al) * phy::kBitsPerCce;
    for (const int start : live) {
      for (const phy::DciFormat format : formats) {
        const int msg_bits = phy::dci_payload_bits(format) + 16;
        util::BitVec bits;
        if (sf.coding != phy::PdcchCoding::kRepetition) {
          const auto steps =
              static_cast<std::size_t>(msg_bits) + phy::kConvTailBits;
          if (region_bits < 2 * steps) continue;  // infeasible rate
          bits = conv_decode_reference(
              sf.bits.slice(static_cast<std::size_t>(start) * phy::kBitsPerCce,
                            region_bits),
              static_cast<std::size_t>(msg_bits));
        } else {
          if (phy::repetitions_that_fit(msg_bits, al) == 0) continue;
          bits = decoder::majority_decode(sf, start, al, msg_bits);
        }
        ++out.candidates_tried;
        ++out.candidates_by_al[ai];
        const auto dci = phy::decode_dci(bits, format, cell.n_prbs());
        if (!dci.has_value() || !decoder::region_agrees(sf, start, al, bits)) {
          ++out.crc_failures;
          ++out.crc_failures_by_al[ai];
          continue;
        }
        out.found.push_back({*dci, al});
        ++out.decoded_by_al[ai];
        for (int c = start; c < start + al; ++c) {
          claimed[static_cast<std::size_t>(c)] = true;
        }
        break;  // this candidate is consumed
      }
    }
  }
  return out;
}

}  // namespace pbecc::ref
