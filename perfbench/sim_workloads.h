// The benchmark workloads (lte_mix, city) and the scenario
// plumbing they share.
//
// Every workload has two phases. The quality phase runs a fixed,
// seed-derived set of PBE flows and their BBR twins on up to four threads
// (untimed: it yields the deterministic congestion-control metrics and
// records the captures the timed phase replays). The timed phase then
// repeats the workload's timed units on one thread until the measurement
// window is used, and every repetition must reproduce the quality phase's
// results exactly.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "cap/replay.h"
#include "common.h"
#include "replay_layers.h"
#include "sim/location.h"
#include "sim/scenario.h"

namespace pbecc::cap {
class TraceWriter;
}  // namespace pbecc::cap

namespace perfbench {

// What one scenario run did and how long it took. The wall time covers
// only Scenario::run_until (and sampling, when on); construction is set-up.
struct ScenarioRun {
  double wall_s = 0;
  std::uint64_t cell_slots = 0;  // sum over cells of run length / cell tick
  std::uint64_t cells = 0;
  double air_ms = 0;             // simulated time
  // First flow's congestion-control result.
  double tput_mbps = 0;
  double p95_delay_ms = 0;
  double internet_frac = 0;      // PBE only
  // All flows.
  std::uint64_t flows_digest = 0;
  std::uint64_t packets = 0;
  std::uint64_t tbs = 0, tb_errors = 0, tb_abandoned = 0;
  std::uint64_t violations = 0;  // invariant violations during the run
  bool stats_ok = true;          // every flow delivered and has finite stats
  // Layer samples taken between 10 ms slices (sampling runs only).
  std::vector<double> queue_bytes, pending_events, est_rel_err, active_cells;
};

struct ScenarioOptions {
  bool sample = false;
  // Capture taps for the first PBE flow (unowned, may be null).
  pbecc::cap::TraceWriter* capture = nullptr;
  pbecc::cap::PipelineDigest* digest = nullptr;
};

// A constructed, not yet run scenario.
struct Built {
  std::unique_ptr<pbecc::sim::Scenario> s;
  std::vector<int> flows;
  std::vector<pbecc::mac::UeId> flow_ues;  // UE of each flow
  pbecc::util::Time stop = 0;              // flows' stop time
  pbecc::util::Time end = 0;               // run_until target
};

// Builds one flow of `algo` in some scenario layout.
using ScenarioBuilder =
    std::function<Built(const std::string& algo, const ScenarioOptions& opt)>;

// Run a built scenario to its end in 10 ms slices.
ScenarioRun drive(Built& b, const ScenarioOptions& opt);

// A location laid out as sim::run_location does (flow from 100 ms for
// `flow_len`, then 500 ms drain), seeded from the run seed and `sub`.
ScenarioBuilder location_builder(int index, std::uint64_t seed, std::uint64_t sub,
                                 pbecc::util::Duration flow_len, int nr_mu);

// A PBE flow and its BBR twin in one layout.
struct TwinUnit {
  std::string label;
  ScenarioBuilder build;
};

struct TwinResult {
  ScenarioRun pbe, bbr;
  pbecc::cap::PipelineDigest live;  // PBE pipeline outputs (captured units)
  std::string capture;              // capture path, "" when not recorded
};

// Threads the quality phase uses: nproc, at most 4.
int quality_threads();

// The quality phase: both flows of every unit, the first `n_capture`
// units' PBE flows recorded into `dir`. Each run is one operation in
// `out`. `sample` turns on layer sampling.
std::vector<TwinResult> run_twins(const std::vector<TwinUnit>& units,
                                  std::size_t n_capture, const std::string& dir,
                                  bool sample, Outcome& out);

// Set-up, timed several times: read the first `n_capture` twins' captures
// into `caps` and run `build` (constructing the timed scenarios). Returns
// the median time.
double timed_setup(const std::vector<TwinResult>& twins, std::size_t n_capture,
                   std::vector<Capture>& caps, const std::function<void()>& build,
                   Outcome& out);

// One repetition's replays of the pre-read captures `caps` (twins[i]'s
// recording). Untimed-inside passes, or timed-layer replays added to
// `traced` when it is not null. Each record is one operation; a replay
// whose PipelineDigest differs from the live recording fails all of its
// records.
struct ReplayRound {
  std::vector<double> walls;  // per capture (traced: the loop minus reads)
  double cell_ms = 0;  // monitored cells x 1 ms batches
  std::uint64_t cell_slots = 0, candidates = 0, records = 0;
};
ReplayRound replay_captures(const std::vector<Capture>& caps,
                            const std::vector<TwinResult>& twins, LayerTimes* traced,
                            Outcome& out);

// Digest over every twin's FlowStats digests.
std::uint64_t quality_digest(const std::vector<TwinResult>& twins);

// The four congestion-control quality metrics over twin results (Table 1
// style: ratios are means of per-unit ratios).
void add_cc_quality(Outcome& out, const std::vector<TwinResult>& twins);

// pbe.* layer values from the sampled PBE runs of the quality phase.
void add_pbe_layers(LayerValues& lv, const std::vector<TwinResult>& twins);

// Remove the quality phase's capture files.
void remove_captures(const std::vector<TwinResult>& twins);

Outcome run_lte_mix(const RunSpec& spec);
Outcome run_city(const RunSpec& spec);

}  // namespace perfbench
