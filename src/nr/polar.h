// Polar-coding seam for the NR PDCCH (3GPP 38.212 §7.3).
//
// NR control channels are polar-coded where LTE's are convolutional. A
// real CRC-aided successive-cancellation-list decoder is out of scope for
// this reproduction; what the pipeline needs is (a) a coding mode whose
// blind-decode cost and robustness scale with aggregation level and (b) a
// single seam where a real polar codec can land later without touching the
// decoder's candidate-enumeration or batching machinery.
//
// This module is that seam: polar_* functions carry the NR decode path's
// entire dependence on the code, and today they delegate to the 36.212
// convolutional codec (src/phy/convolutional.h) as a documented stand-in.
// The encode side (phy::PdcchBuilder with PdcchCoding::kPolar) uses the
// same conv_encode + rate_match pair directly — tests/nr_test.cpp pins the
// two sides to identical bits so the seam cannot silently split. Swapping
// in a real polar codec means replacing both at once.
#pragma once

#include "phy/convolutional.h"
#include "util/bitvec.h"

namespace pbecc::nr {

// Encode `payload` for the NR PDCCH. Stand-in: the rate-1/3 convolutional
// mother code (output 3 * (payload.size() + kConvTailBits) bits).
util::BitVec polar_encode(const util::BitVec& payload);

// Rate-match the mother code block to `target_bits`.
util::BitVec polar_rate_match(const util::BitVec& coded,
                              std::size_t target_bits);

// Decode rate-matched blocks back to `payload_bits` information bits, in
// lockstep: same contract as phy::conv_decode_batch (1..kMaxDecodeLanes
// equally shaped lanes, exact-safe abort thresholds, per-lane metrics,
// std::invalid_argument on a broken contract). Best-effort like the
// Viterbi path: callers validate with the CRC. The NR blind decoder
// routes every kPolar candidate wave through here; a single block is a
// one-lane batch.
void polar_decode_batch(const phy::BatchDecodeJob* jobs, int n_jobs,
                        std::size_t payload_bits,
                        phy::BatchDecodeResult* results);

// Minimum control-region bits for a `msg_bits`-bit message to keep real
// redundancy after rate matching (the PdcchBuilder/BlindDecoder
// feasibility rule, identical on both sides of the seam).
constexpr std::size_t polar_min_region_bits(std::size_t msg_bits) {
  return 2 * (msg_bits + phy::kConvTailBits);
}

}  // namespace pbecc::nr
