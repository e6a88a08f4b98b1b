#include "common.h"

#include <algorithm>
#include <cmath>
#include <fstream>

#include "util/digest.h"

namespace perfbench {

const std::vector<LayerMetric> kPerLayerCatalog = {
    {"sim.ns_per_cell_slot", "ns"},
    {"sim.bbr_twin_share", "ratio"},
    {"sim.pipeline_share", "ratio"},
    {"sim.shard_speedup", "ratio"},
    {"sim.unattributed_frac", "ratio"},
    {"net.event_queue_depth_p95", "count"},
    {"mac.tbs_per_cell_slot", "count"},
    {"mac.tb_error_frac", "ratio"},
    {"mac.tb_abandon_frac", "ratio"},
    {"mac.queue_bytes_p95", "bytes"},
    {"decoder.blind.ns_per_cell_slot", "ns"},
    {"decoder.blind.ns_per_candidate", "ns"},
    {"decoder.candidates_per_cell_slot", "count"},
    {"decoder.decoded_per_candidate", "ratio"},
    {"decoder.crc_fail_frac", "ratio"},
    {"decoder.memo_hit_frac", "ratio"},
    {"decoder.early_abort_frac", "ratio"},
    {"decoder.screen_reject_frac", "ratio"},
    {"decoder.lane_fill", "ratio"},
    {"decoder.monitor.self_ns_per_batch", "ns"},
    {"replay.layer_coverage_frac", "ratio"},
    {"pbe.estimator.ns_per_probe", "ns"},
    {"pbe.est_rel_err_p50", "ratio"},
    {"pbe.est_rel_err_p95", "ratio"},
    {"pbe.active_cells_mean", "count"},
    {"pbe.internet_state_frac", "ratio"},
    {"cap.read.ns_per_record", "ns"},
    {"cap.write.overhead_frac", "ratio"},
    {"cap.bytes_per_cell_slot", "bytes"},
    {"nr.slots_per_cell_ms", "1/ms"},
    {"nr.tput_ratio_pbe_bbr", "ratio"},
    {"nr.pbe.est_rel_err_p50", "ratio"},
    {"nr.pbe.active_cells_mean", "count"},
    {"op_fail_frac", "ratio"},
    {"trace_overhead_frac", "ratio"},
};

void emit_per_layer(Outcome& out) {
  for (const auto& m : kPerLayerCatalog) {
    const auto it = out.layers.find(m.name);
    out.add(m.name, m.unit, it == out.layers.end() ? 0.0 : it->second);
  }
  for (const auto& [name, value] : out.layers) {
    const bool known =
        std::any_of(kPerLayerCatalog.begin(), kPerLayerCatalog.end(),
                    [&](const LayerMetric& m) { return name == m.name; });
    if (!known) out.fail(1, "per-layer value '" + name + "' is not in the catalogue");
  }
}

std::uint64_t flowstats_digest(const pbecc::sim::FlowStats& st) {
  using pbecc::util::fnv1a64_value;
  std::uint64_t h = fnv1a64_value(st.packets());
  h = fnv1a64_value(st.bytes(), h);
  h = fnv1a64_value(st.first_delivery(), h);
  h = fnv1a64_value(st.last_delivery(), h);
  // SampleSet sorts lazily in place; hash order-independent content by
  // hashing a sorted copy so a percentile query cannot change the digest.
  for (const auto* set : {&st.delays_ms(), &st.window_tputs_mbps()}) {
    std::vector<double> v(set->samples().begin(), set->samples().end());
    std::sort(v.begin(), v.end());
    h = fnv1a64_value(v.size(), h);
    for (const double x : v) h = fnv1a64_value(x, h);
  }
  return h;
}

std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t item) {
  std::uint64_t z = seed * 0x9e3779b97f4a7c15ull + item + 1;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

namespace {

double peak_rss_mb() {
  // VmHWM is this address space's high-water mark. getrusage's ru_maxrss
  // is not used: Linux carries it across exec, so a process started from a
  // larger parent process would report the parent's peak.
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::stod(line.substr(6)) / 1024.0;
  }
  return 0;
}

}  // namespace

void add_peak_rss(Outcome& out) {
  const double mb = peak_rss_mb();
  if (mb <= 0) out.fail(1, "peak_rss_mb: VmHWM not readable from /proc/self/status");
  out.add("peak_rss_mb", "MiB", mb);
}

bool reset_peak_rss() {
  // Writing 5 to clear_refs resets VmHWM to the current RSS.
  std::ofstream f("/proc/self/clear_refs");
  f << "5";
  f.close();
  return !f.fail();
}

double sum_of_medians(const std::vector<std::vector<double>>& walls) {
  double sum = 0;
  for (std::size_t u = 0; !walls.empty() && u < walls.front().size(); ++u) {
    std::vector<double> samples;
    for (const auto& rep : walls) samples.push_back(rep.at(u));
    sum += median(std::move(samples));
  }
  return sum;
}

double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double rank = p / 100.0 * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(rank));
  const auto hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (rank - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

double median(std::vector<double> v) { return percentile(std::move(v), 50); }

}  // namespace perfbench
