#include "nr/polar.h"

namespace pbecc::nr {

util::BitVec polar_encode(const util::BitVec& payload) {
  return phy::conv_encode(payload);
}

util::BitVec polar_rate_match(const util::BitVec& coded,
                              std::size_t target_bits) {
  return phy::rate_match(coded, target_bits);
}

void polar_decode_batch(const phy::BatchDecodeJob* jobs, int n_jobs,
                        std::size_t payload_bits,
                        phy::BatchDecodeResult* results) {
  phy::conv_decode_batch(jobs, n_jobs, payload_bits, results);
}

}  // namespace pbecc::nr
