#include "cap/replay.h"

#include <algorithm>
#include <utility>

#include "util/time.h"

namespace pbecc::cap {

void PipelineDigest::on_observations(
    const std::vector<decoder::CellObservation>& obs) {
  std::uint64_t h = obs_digest_;
  for (const auto& o : obs) {
    h = util::fnv1a64_value(o.cell, h);
    h = util::fnv1a64_value(o.sf_index, h);
    // Fold the slot-clock period only when it deviates from the 1 ms
    // subframe: LTE-only streams keep their pre-NR digest values.
    if (o.tick != util::kSubframe) h = util::fnv1a64_value(o.tick, h);
    h = util::fnv1a64_value(o.cell_prbs, h);
    // SubframeSummary member-by-member: whole-struct hashing would fold
    // padding bytes in.
    h = util::fnv1a64_value(o.summary.own_prbs, h);
    h = util::fnv1a64_value(o.summary.own_bits_per_prb, h);
    h = util::fnv1a64_value(o.summary.allocated_prbs, h);
    h = util::fnv1a64_value(o.summary.idle_prbs, h);
    h = util::fnv1a64_value(o.summary.raw_active_users, h);
    h = util::fnv1a64_value(o.summary.data_users, h);
  }
  obs_digest_ = h;
  observations_ += obs.size();
}

void PipelineDigest::on_probe(double cf_bits_sf, double cp_bits_sf,
                              int active_cells) {
  std::uint64_t h = probe_digest_;
  h = util::fnv1a64_value(cf_bits_sf, h);
  h = util::fnv1a64_value(cp_bits_sf, h);
  h = util::fnv1a64_value(active_cells, h);
  probe_digest_ = h;
  ++probes_;
}

ReplayDriver::ReplayDriver(const TraceHeader& header, PipelineDigest* digest)
    : digest_(digest) {
  if (header.fault_active) {
    faults_ =
        std::make_unique<fault::FaultInjector>(header.fault, header.fault_seed);
  }
  // Mirrors PbeClient's construction exactly: primary cell, observation
  // routing into the estimator, and the same `now` convention (the tick
  // after the observed subframe).
  if (!header.cells.empty()) {
    estimator_.set_primary_cell(header.cells.front().id);
  }
  monitor_ = std::make_unique<decoder::Monitor>(
      header.own_rnti, header.cells,
      [this](const std::vector<decoder::CellObservation>& obs) {
        if (obs.empty()) return;
        if (digest_ != nullptr) digest_->on_observations(obs);
        // PbeClient's `now` formula, verbatim: end of the latest tick in
        // the fused emission — keep the two in lockstep.
        util::Time now = 0;
        for (const auto& o : obs) {
          now = std::max(now, (o.sf_index + 1) * o.tick);
        }
        estimator_.on_observations(now, obs, [this](phy::CellId c) {
          const auto it = cur_bpp_.find(c);
          return it != cur_bpp_.end() ? it->second : 0.0;
        });
      },
      [this](phy::CellId c) {
        const auto it = cur_ber_.find(c);
        return it != cur_ber_.end() ? it->second : 0.0;
      },
      header.tracker, header.monitor_seed, faults_.get());
}

void ReplayDriver::step(const Record& rec) {
  switch (rec.kind) {
    case Record::Kind::kBatch: {
      std::vector<phy::PdcchSubframe> sfs;
      sfs.reserve(rec.batch.cells.size());
      for (const auto& c : rec.batch.cells) {
        cur_ber_[c.cell] = c.control_ber;
        cur_bpp_[c.cell] = c.bits_per_prb;
        phy::PdcchSubframe sf;
        sf.cell_id = c.cell;
        sf.sf_index = c.sf_index;
        sf.tick = c.tick;
        sf.n_cces = c.n_cces;
        sf.coding = c.coding;
        sf.bits = c.bits;
        sf.cce_used = c.cce_used;
        sfs.push_back(std::move(sf));
      }
      monitor_->on_pdcch_batch(std::move(sfs));
      if (batch_end_) batch_end_(rec.batch.sf_index);
      ++stats_.batches;
      stats_.cell_subframes += rec.batch.cells.size();
      break;
    }
    case Record::Kind::kWindow:
      // Same pair of calls, in the same order, as the live client's
      // RTprop update in fill_feedback.
      estimator_.set_window(rec.window.window);
      monitor_->set_tracker_window(rec.window.window);
      ++stats_.window_sets;
      break;
    case Record::Kind::kProbe: {
      // The live client's estimator query sequence at an ACK, verbatim —
      // these calls expire window state, so order and time must match.
      const double cf = estimator_.fair_share_capacity(rec.probe.t);
      const double cp = estimator_.available_capacity(rec.probe.t);
      const int cells = estimator_.active_cell_count(rec.probe.t);
      if (digest_ != nullptr) digest_->on_probe(cf, cp, cells);
      ++stats_.probes;
      break;
    }
  }
}

ReplayStats ReplayDriver::run(TraceReader& reader) {
  Record rec;
  while (reader.next(rec)) step(rec);
  return stats_;
}

}  // namespace pbecc::cap
