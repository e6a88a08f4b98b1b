// Benchmark binary: runs one workload for a fixed wall window and prints
// the environment, the work fingerprint and the metrics as JSON lines
// (perfbench/run.py builds this program, checks the lines and formats the
// final result). See perfbench/README.md for the workloads and metrics.
//
//   pbecc_perfbench --workload NAME --seed N --seconds N --trace 0|1
//   pbecc_perfbench --self-test
#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "args.h"
#include "check/check.h"
#include "common.h"
#include "decoder/blind_decoder.h"
#include "par/thread_pool.h"
#include "sim_workloads.h"

namespace perfbench {
namespace {

std::string json_string(const std::string& s) {
  std::string o = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      o += '\\';
      o += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      o += ' ';
    } else {
      o += c;
    }
  }
  return o + "\"";
}

std::string json_number(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

// Build and run configuration, so results from different configurations
// are never compared unknowingly.
std::string env_json(const Args& a) {
  std::string simd;
  const auto flag = [&](const char* name, bool on) {
    if (on) simd += std::string(simd.empty() ? "" : ",") + json_string(name);
  };
#if defined(__SSE2__)
  flag("sse2", true);
#endif
#if defined(__SSE4_2__)
  flag("sse4.2", true);
#endif
#if defined(__AVX__)
  flag("avx", true);
#endif
#if defined(__AVX2__)
  flag("avx2", true);
#endif
#if defined(__AVX512F__)
  flag("avx512f", true);
#endif
#if defined(__ARM_NEON)
  flag("neon", true);
#endif
  bool optimized = false, ndebug = false, trace_gate = false, tel_gate = false;
#if defined(__OPTIMIZE__)
  optimized = true;
#endif
#if defined(NDEBUG)
  ndebug = true;
#endif
#if defined(PBECC_TRACE_ENABLED)
  trace_gate = true;
#endif
#if defined(PBECC_TEL_ENABLED)
  tel_gate = true;
#endif
  std::string j = "{";
  j += "\"build_type\":" + json_string(PBECC_BUILD_TYPE);
  j += ",\"optimized\":" + std::string(optimized ? "true" : "false");
  j += ",\"ndebug\":" + std::string(ndebug ? "true" : "false");
  j += ",\"simd\":[" + simd + "]";
  j += ",\"pbecc_trace\":" + std::string(trace_gate ? "true" : "false");
  j += ",\"pbecc_tel\":" + std::string(tel_gate ? "true" : "false");
  j += ",\"pbecc_check\":" + std::string(pbecc::check::kDeep ? "true" : "false");
  j += ",\"nproc\":" + std::to_string(std::thread::hardware_concurrency());
  j += ",\"pool_threads\":" + std::to_string(pbecc::par::default_threads());
  j += ",\"quality_threads\":" + std::to_string(quality_threads());
  j += ",\"shards\":1";  // the timed phase steps every scenario serially
  j += ",\"decode_lanes\":" + std::to_string(pbecc::decoder::decode_lanes());
  j += ",\"workload\":" + json_string(a.workload);
  j += ",\"seed\":" + std::to_string(a.seed);
  j += ",\"seconds\":" + std::to_string(a.seconds);
  j += ",\"trace\":" + std::to_string(a.trace ? 1 : 0);
  return j + "}";
}

Outcome run_workload(const Args& a) {
  RunSpec spec;
  spec.seed = a.seed;
  spec.seconds = a.seconds;
  spec.trace = a.trace;
  // Per-process capture directory: concurrent runs in one tree never share
  // capture files.
  spec.work_dir = ".bench_work/" + std::to_string(::getpid());
  Outcome out;
  if (a.workload == "lte_mix") out = run_lte_mix(spec);
  if (a.workload == "city") out = run_city(spec);
  std::error_code ec;
  std::filesystem::remove_all(spec.work_dir, ec);
  for (auto& m : out.metrics) {
    if (!std::isfinite(m.value)) {
      out.fail(1, "metric " + m.name + " is not finite");
      m.value = 0;
    }
  }
  for (auto& [name, value] : out.layers) {
    if (!std::isfinite(value)) {
      out.fail(1, "per-layer value " + name + " is not finite");
      value = 0;
    }
  }
  if (out.attempted == 0) out.fail(1, "no operation was attempted");
  if (a.trace) {
    out.layers["op_fail_frac"] = ratio(out.failed, out.attempted);
    emit_per_layer(out);
  }
  return out;
}

void print_outcome(const Args& a, const Outcome& out) {
  for (const auto& e : out.errors) std::fprintf(stderr, "FAILED: %s\n", e.c_str());
  std::printf("env %s\n", env_json(a).c_str());
  std::string work = "{";
  for (const auto& [k, v] : out.work) {
    work += (work.size() > 1 ? "," : "") + json_string(k) + ":" + std::to_string(v);
  }
  std::printf("work %s}\n", work.c_str());
  std::string metrics;
  for (const auto& m : out.metrics) {
    if (!metrics.empty()) metrics += ",";
    metrics += json_string(m.name) + ":{\"value\":" + json_number(m.value) +
               ",\"unit\":" + json_string(m.unit) + "}";
  }
  std::printf("RESULT {\"correct\":%s,\"attempted\":%llu,\"failed\":%llu,\"metrics\":{%s}}\n",
              out.failed == 0 ? "true" : "false",
              static_cast<unsigned long long>(out.attempted),
              static_cast<unsigned long long>(out.failed), metrics.c_str());
  std::fflush(stdout);
}

double metric(const Outcome& out, const std::string& name) {
  for (const auto& m : out.metrics) {
    if (m.name == name) return m.value;
  }
  return std::nan("");
}

// Argument strictness, plus the layer accounting on a short traced run.
int self_test() {
  int failures = 0;
  const auto expect = [&](bool ok, const std::string& what) {
    std::printf("self-test %-58s %s\n", what.c_str(), ok ? "ok" : "FAIL");
    if (!ok) ++failures;
  };
  const std::vector<std::vector<std::string>> bad = {
      {"--workload", "lte_mix", "--seconds", "abc"},
      {"--workload", "lte_mix", "--seconds", "0"},
      {"--workload", "lte_mix", "--seconds", "5s"},
      {"--workload", "lte_mix", "--seconds", ""},
      {"--workload", "lte_mix", "--seed", "-1"},
      {"--workload", "lte_mix", "--seed", "1e3"},
      {"--workload", "lte_mix", "--seed", "99999999999999999999999"},
      {"--workload", "lte_mix", "--trace", "2"},
      {"--workload", "lte_mix", "--trace"},
      {"--workload", "lte_mix", "--threads", "4"},
      {"--workload", "lte_mix", "--seconds=5"},
      {"--workload", "lte_mix", "--seed", "1", "--seed", "2"},
      {"--workload", "nope"},
      {"--seed", "1"},
  };
  for (const auto& argv : bad) {
    std::string err, joined;
    for (const auto& s : argv) joined += s + " ";
    expect(!parse_args(argv, err).has_value() && !err.empty(), "rejects " + joined);
  }
  {
    std::string err;
    const auto a = parse_args({"--workload", "city", "--seed", "18446744073709551615",
                               "--seconds", "7", "--trace", "1"},
                              err);
    expect(a && a->workload == "city" && a->seed == 18446744073709551615ull &&
               a->seconds == 7 && a->trace,
           "accepts a full valid command line");
  }

  Args a;
  a.seed = 7;
  a.seconds = 6;
  a.trace = true;
  a.workload = "lte_mix";
  const Outcome lte = run_workload(a);
  for (const auto& e : lte.errors) std::printf("  %s\n", e.c_str());
  std::printf("  lte_mix replay layer coverage %.2f%%\n",
              100 * metric(lte, "replay.layer_coverage_frac"));
  expect(lte.failed == 0, "lte_mix traced run has no failed operation");
  expect(metric(lte, "replay.layer_coverage_frac") >= 0.95,
         "lte_mix replay layers explain >= 95% of the untraced wall");
  expect(metric(lte, "decoder.monitor.self_ns_per_batch") >= 0,
         "lte_mix monitor self time is not negative");
  const double twin = metric(lte, "sim.bbr_twin_share");
  const double pipe = metric(lte, "sim.pipeline_share");
  const double rest = metric(lte, "sim.unattributed_frac");
  std::printf("  lte_mix PBE run = twin %.3f + pipeline %.3f + unattributed %.3f\n",
              twin, pipe, rest);
  expect(twin > 0 && twin < 1 && pipe > 0 && pipe < 1,
         "lte_mix twin and pipeline shares lie in (0, 1)");
  expect(std::fabs(rest) <= 0.25,
         "lte_mix BBR twin + pipeline explain the PBE run within 25%");
  expect(metric(lte, "nr.slots_per_cell_ms") > 1 && metric(lte, "decoder.lane_fill") > 0,
         "lte_mix NR probe ran the NR slot clocks and the trellis");
  std::printf("self-test: %s\n", failures == 0 ? "PASS" : "FAIL");
  return failures == 0 ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  std::string err;
  const auto args = parse_args(std::vector<std::string>(argv + 1, argv + argc), err);
  if (!args) {
    std::fprintf(stderr, "pbecc_perfbench: %s\n", err.c_str());
    return 2;
  }
  // One pool thread for the timed phase; the quality phase uses its own
  // pool, and the traced city's 2-shard run the scenario's shard pool.
  pbecc::par::set_default_threads(1);
  if (args->self_test) return self_test();
  const Outcome out = run_workload(*args);
  print_outcome(*args, out);
  return out.failed == 0 ? 0 : 1;
}
