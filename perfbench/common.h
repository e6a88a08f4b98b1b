// Shared plumbing for the benchmark workloads: wall timers, the result a
// workload hands back to main, the work fingerprint, and small statistics.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "sim/metrics.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

// Per-layer values by metric name (see kPerLayerCatalog).
using LayerValues = std::map<std::string, double>;

struct Metric {
  std::string name;
  std::string unit;
  double value = 0;
};

// What one workload run reports. Untraced runs fill `metrics` with the
// end-to-end metrics, traced runs with the per-layer ones.
struct Outcome {
  std::vector<Metric> metrics;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> errors;  // one line per failure cause
  // Work fingerprint: counts of work done by one repetition of the
  // workload, plus digests of its outputs. Identical for every repetition
  // of one build and seed.
  std::map<std::string, std::uint64_t> work;
  // Per-layer values (traced runs only).
  LayerValues layers;

  void add(const std::string& name, const std::string& unit, double value) {
    metrics.push_back({name, unit, value});
  }
  void fail(std::uint64_t ops, const std::string& why) {
    failed += ops;
    errors.push_back(why);
  }
};

// Context a workload runs in.
struct RunSpec {
  std::uint64_t seed = 1;
  double seconds = 10;  // measurement window
  bool trace = false;
  // Scratch directory inside the working tree for capture files.
  std::string work_dir;
};

// Every per-layer metric, in report order, with its unit. A traced run
// reports all of them; a layer the workload does not exercise reads 0.
struct LayerMetric {
  const char* name;
  const char* unit;
};
extern const std::vector<LayerMetric> kPerLayerCatalog;

// Append every catalogue metric to out.metrics, taking values from
// out.layers. A value under a name missing from the catalogue is a bug in
// the workload and is reported as a failed operation.
void emit_per_layer(Outcome& out);

// Order-sensitive FNV-1a digest over everything a FlowStats reports.
std::uint64_t flowstats_digest(const pbecc::sim::FlowStats& st);

// Mix the run seed into a per-item seed (splitmix64 finaliser).
std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t item);

// Report peak_rss_mb, the peak resident set size of this process since
// start or the last reset_peak_rss(), MiB; an unknown peak is a failed
// operation.
void add_peak_rss(Outcome& out);
// Restart the peak-RSS high-water mark; false when the kernel refuses.
bool reset_peak_rss();

double median(std::vector<double> v);
// Linear-interpolated percentile, p in [0, 100]; 0 for an empty vector.
double percentile(std::vector<double> v, double p);
// Sum over units of each unit's median wall across repetitions, where
// walls[r][u] is unit u's wall in repetition r. Medians per unit filter a
// disturbed sample of one unit without discarding the whole repetition.
double sum_of_medians(const std::vector<std::vector<double>>& walls);
// sum_of_medians over repetitions `reps`, with `f(rep)` giving the walls.
template <typename R, typename F>
double unit_medians(const std::vector<R>& reps, F f) {
  std::vector<std::vector<double>> walls;
  for (const auto& r : reps) walls.push_back(f(r));
  return sum_of_medians(walls);
}
inline double ratio(double num, double den) { return den != 0 ? num / den : 0; }

}  // namespace perfbench
