#include "sim_workloads.h"

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <thread>

#include "cap/trace_writer.h"
#include "check/check.h"
#include "par/thread_pool.h"
#include "replay_layers.h"
#include "util/digest.h"

namespace perfbench {

using namespace pbecc;

namespace {

constexpr util::Duration kSlice = 10 * util::kMillisecond;

// The city of the shard-scaling study: 4-cell clusters, one flow per
// cluster on the first two cells, an aggregate background population on
// the third. With one cluster and a PBE or BBR flow it is a city cluster
// in isolation (the city workload's congestion-control twins).
Built build_city(std::uint64_t seed, int clusters, const std::string& algo,
                 int shards, util::Duration len, const ScenarioOptions& opt) {
  constexpr int kCellsPerCluster = 4;
  sim::ScenarioConfig cfg;
  cfg.seed = seed;
  cfg.shards = shards;
  cfg.capture = opt.capture;
  cfg.digest = opt.digest;
  cfg.cells.clear();
  for (int c = 0; c < clusters * kCellsPerCluster; ++c) {
    sim::CellSpec cell;
    cell.control_users_per_subframe = 0.2;
    cell.cluster = c / kCellsPerCluster;
    cfg.cells.push_back(cell);
  }
  Built b;
  b.s = std::make_unique<sim::Scenario>(cfg);
  for (int cl = 0; cl < clusters; ++cl) {
    const auto first = static_cast<std::size_t>(cl * kCellsPerCluster);
    sim::UeSpec ue;
    ue.id = static_cast<mac::UeId>(cl + 1);
    ue.cell_indices = {first, first + 1};
    b.s->add_ue(ue);
    sim::FlowSpec fs;
    fs.algo = algo;
    fs.ue = ue.id;
    fs.stop = len;
    b.flows.push_back(b.s->add_flow(fs));
    b.flow_ues.push_back(ue.id);
    sim::AggregateBackgroundSpec agg;
    agg.cell_index = first + 2;
    agg.traffic.sessions_per_sec = 40;
    b.s->add_background_aggregate(agg);
  }
  b.stop = len;
  b.end = len;
  return b;
}

// One operation per scenario run, failed on invariant violations or
// missing/NaN flow statistics.
void account(Outcome& out, const ScenarioRun& r, const std::string& what) {
  ++out.attempted;
  if (r.violations > 0) {
    out.fail(1, what + ": " + std::to_string(r.violations) +
                    " invariant violations (" + check::describe_violations() + ")");
  } else if (!r.stats_ok) {
    out.fail(1, what + ": a flow delivered nothing or has NaN statistics");
  }
}

// A timed run must reproduce the quality phase's run of the same unit.
void expect_same(Outcome& out, const ScenarioRun& timed, const ScenarioRun& quality,
                 const std::string& what) {
  if (timed.flows_digest != quality.flows_digest ||
      timed.cell_slots != quality.cell_slots || timed.tbs != quality.tbs) {
    out.fail(1, what + ": FlowStats digest or work counts differ from the "
                       "quality-phase run of the same unit");
  }
}

std::vector<double> concat(const std::vector<const ScenarioRun*>& runs,
                           std::vector<double> ScenarioRun::*field) {
  std::vector<double> v;
  for (const auto* r : runs) v.insert(v.end(), (r->*field).begin(), (r->*field).end());
  return v;
}

double mean(const std::vector<double>& v) {
  double s = 0;
  for (const double x : v) s += x;
  return v.empty() ? 0 : s / static_cast<double>(v.size());
}

// Layer accounting of a traced run's replays: read + blind decode + monitor
// self + estimator must explain at least 95 % of the untraced replay wall of
// the same captures (median over passes), and the standalone blind decode
// may not take longer than the batch steps that contain it.
void check_coverage(Outcome& out, const LayerTimes& lt, const std::string& name) {
  if (lt.coverage() < 0.95 || lt.monitor_self_s() < 0) {
    out.fail(1, name + ": replay layer self times cover " +
                    std::to_string(100 * lt.coverage()) +
                    "% of the untraced replay wall (monitor self " +
                    std::to_string(lt.monitor_self_s()) + " s); need >= 95% and >= 0");
  }
}

// MAC counters and slot shape of one repetition's live runs.
void add_mac_shape(LayerValues& lv, const std::vector<const ScenarioRun*>& runs) {
  double slots = 0, cell_ms = 0, tbs = 0, err = 0, abandoned = 0;
  for (const auto* r : runs) {
    slots += static_cast<double>(r->cell_slots);
    cell_ms += static_cast<double>(r->cells) * r->air_ms;
    tbs += static_cast<double>(r->tbs);
    err += static_cast<double>(r->tb_errors);
    abandoned += static_cast<double>(r->tb_abandoned);
  }
  lv["mac.tbs_per_cell_slot"] = ratio(tbs, slots);
  lv["mac.tb_error_frac"] = ratio(err, tbs);
  lv["mac.tb_abandon_frac"] = ratio(abandoned, tbs);
  lv["nr.slots_per_cell_ms"] = ratio(slots, cell_ms);
}

// ---------------------------------------------------------------------
// lte_mix: PBE flows and their BBR twins at fixed locations.

struct LocationRound {
  std::vector<ScenarioRun> pbe, bbr;  // timed units' live runs
  ReplayRound replay;                 // their captures, replayed

  static std::vector<double> walls(const std::vector<ScenarioRun>& runs) {
    std::vector<double> w;
    for (const auto& r : runs) w.push_back(r.wall_s);
    return w;
  }
  std::vector<const ScenarioRun*> runs() const {
    std::vector<const ScenarioRun*> v;
    for (const auto& r : pbe) v.push_back(&r);
    for (const auto& r : bbr) v.push_back(&r);
    return v;
  }
  std::vector<double> live_walls() const {
    std::vector<double> w;
    for (const auto* r : runs()) w.push_back(r->wall_s);
    return w;
  }
};

// The NR probe of lte_mix's traced run: busy 3-carrier location 26 with NR
// mu=3 (120 kHz, 125 us slots) secondaries, as PBE/BBR twins of 1 s flows,
// sampled and captured, their captures replayed through the timed layers
// into `lt`. Its host time is not gated (see README: measured as a
// workload of its own, its run-to-run spread exceeded the bound). It gives
// the layers only NR cells exercise: the slot clocks, the trellis decode of
// the polar-coded secondaries, and the PBE-on-NR throughput gap.
void add_nr_probe(const RunSpec& spec, LayerValues& lv, LayerTimes& lt, Outcome& out) {
  constexpr int kSeeds = 3;
  std::vector<TwinUnit> units;
  for (int sub = 0; sub < kSeeds; ++sub) {
    units.push_back({"nr_probe_loc26_s" + std::to_string(sub),
                     location_builder(26, spec.seed, static_cast<std::uint64_t>(sub),
                                      util::kSecond, 3)});
  }
  const auto twins = run_twins(units, units.size(), spec.work_dir, true, out);
  std::vector<Capture> caps(twins.size());
  for (std::size_t i = 0; i < twins.size() && out.failed == 0; ++i) {
    std::string err;
    if (!read_capture(twins[i].capture, caps[i], err)) out.fail(1, "NR probe: " + err);
  }
  if (out.failed == 0) replay_captures(caps, twins, &lt, out);
  remove_captures(twins);

  std::vector<const ScenarioRun*> runs, pbe;
  std::vector<double> tput_ratio;
  for (const auto& t : twins) {
    runs.push_back(&t.pbe);
    runs.push_back(&t.bbr);
    pbe.push_back(&t.pbe);
    tput_ratio.push_back(t.pbe.tput_mbps / t.bbr.tput_mbps);
  }
  lv["nr.tput_ratio_pbe_bbr"] = mean(tput_ratio);
  lv["nr.pbe.est_rel_err_p50"] = percentile(concat(pbe, &ScenarioRun::est_rel_err), 50);
  lv["nr.pbe.active_cells_mean"] = mean(concat(pbe, &ScenarioRun::active_cells));
  LayerValues nr;
  add_mac_shape(nr, runs);
  fill_decoder_layers(nr, lt);
  for (const char* k : {"nr.slots_per_cell_ms", "decoder.lane_fill", "decoder.early_abort_frac",
                        "decoder.screen_reject_frac"}) {
    lv[k] = nr[k];
  }
}

Outcome run_location_workload(const RunSpec& spec, const std::string& name,
                              const std::vector<int>& indices, util::Duration len,
                              int quality_subs, int timed_subs) {
  Outcome out;
  std::filesystem::create_directories(spec.work_dir);

  // Units sub-seed-major, so the first `timed_subs` sub-seeds of every
  // location (the timed units) come first.
  std::vector<TwinUnit> units;
  for (int sub = 0; sub < quality_subs; ++sub) {
    for (const int idx : indices) {
      units.push_back({name + "_loc" + std::to_string(idx) + "_s" + std::to_string(sub),
                       location_builder(idx, spec.seed, static_cast<std::uint64_t>(sub),
                                        len, -1)});
    }
  }
  const std::size_t n_timed = indices.size() * static_cast<std::size_t>(timed_subs);
  const auto twins = run_twins(units, n_timed, spec.work_dir, spec.trace, out);
  std::vector<Capture> caps;
  const double setup_s = out.failed > 0 ? 0 : timed_setup(twins, n_timed, caps, [&] {
    for (std::size_t i = 0; i < n_timed; ++i) {
      units[i].build("pbe", {});
      units[i].build("bbr", {});
    }
  }, out);
  if (out.failed > 0) {
    remove_captures(twins);
    return out;
  }

  LayerTimes lt;
  const auto run_round = [&](bool traced) {
    LocationRound r;
    for (std::size_t i = 0; i < n_timed; ++i) {
      ScenarioOptions opt;
      opt.sample = traced;
      // Traced: the PBE flow records its capture again, which must match.
      const std::string path = spec.work_dir + "/" + units[i].label + "_traced.pbt";
      std::unique_ptr<cap::TraceWriter> writer;
      cap::PipelineDigest digest;
      if (traced) {
        writer = std::make_unique<cap::TraceWriter>(path);
        opt.capture = writer.get();
        opt.digest = &digest;
      }
      Built b = units[i].build("pbe", opt);
      r.pbe.push_back(drive(b, opt));
      if (writer) {
        if (!writer->close() || !(digest == twins[i].live)) {
          out.fail(1, units[i].label + ": traced re-recording differs from the quality capture");
        }
        std::filesystem::remove(path);
      }
      opt.capture = nullptr;
      opt.digest = nullptr;
      Built t = units[i].build("bbr", opt);
      r.bbr.push_back(drive(t, opt));
      account(out, r.pbe.back(), units[i].label + " pbe");
      account(out, r.bbr.back(), units[i].label + " bbr");
      expect_same(out, r.pbe.back(), twins[i].pbe, units[i].label + " pbe");
      expect_same(out, r.bbr.back(), twins[i].bbr, units[i].label + " bbr");
    }
    r.replay = replay_captures(caps, twins, traced ? &lt : nullptr, out);
    return r;
  };

  // Untraced repetitions fill the window (half of it when traced).
  const double window = spec.trace ? spec.seconds / 2.0 : spec.seconds;
  std::vector<LocationRound> rounds;
  const auto t0 = Clock::now();
  while (rounds.size() < 3 || seconds_since(t0) < window) rounds.push_back(run_round(false));

  const LocationRound& first = rounds.front();
  out.work = {{"cell_slots", 0}, {"tbs_sent", 0}, {"packets", 0}};
  for (const auto* r : first.runs()) {
    out.work["cell_slots"] += r->cell_slots;
    out.work["tbs_sent"] += r->tbs;
    out.work["packets"] += r->packets;
  }
  out.work["decode_candidates"] = first.replay.candidates;
  out.work["capture_records"] = first.replay.records;
  out.work["replay_cell_slots"] = first.replay.cell_slots;
  out.work["quality_flowstats_digest"] = quality_digest(twins);
  const auto live = [](const LocationRound& r) { return r.live_walls(); };
  const auto pbe = [](const LocationRound& r) { return LocationRound::walls(r.pbe); };
  const auto bbr = [](const LocationRound& r) { return LocationRound::walls(r.bbr); };
  const auto replay = [](const LocationRound& r) { return r.replay.walls; };
  const double live_wall = unit_medians(rounds, live);
  const double replay_wall = unit_medians(rounds, replay);
  const double rate = static_cast<double>(out.work["cell_slots"]) / live_wall;

  if (!spec.trace) {
    out.add("sim_cell_slots_per_s", "1/s", rate);
    out.add("decode_rtf_us_per_cell_ms", "us", replay_wall * 1e6 / first.replay.cell_ms);
    out.add("setup_s", "s", setup_s);
    add_peak_rss(out);
    add_cc_quality(out, twins);
    remove_captures(twins);
    return out;
  }

  // Traced repetitions: sampled live runs that record their captures, and
  // timed-layer replays. Their results must equal the untraced ones.
  std::vector<LocationRound> traced;
  const auto t1 = Clock::now();
  while (traced.empty() || seconds_since(t1) < spec.seconds - window) {
    traced.push_back(run_round(true));
  }
  remove_captures(twins);

  const double pbe_wall = unit_medians(rounds, pbe);
  LayerValues& lv = out.layers;
  lv["sim.ns_per_cell_slot"] = 1e9 / rate;
  lv["sim.bbr_twin_share"] = unit_medians(rounds, bbr) / pbe_wall;
  lv["sim.pipeline_share"] = replay_wall / pbe_wall;
  lv["sim.unattributed_frac"] = 1 - lv["sim.bbr_twin_share"] - lv["sim.pipeline_share"];
  lv["net.event_queue_depth_p95"] =
      percentile(concat(traced.front().runs(), &ScenarioRun::pending_events), 95);
  add_mac_shape(lv, first.runs());
  fill_decoder_layers(lv, lt);
  add_pbe_layers(lv, twins);
  LayerTimes nr_lt;
  add_nr_probe(spec, lv, nr_lt, out);
  // One accounting check over the LTE and NR replays together: the probe
  // alone has too few replays for a steady median.
  lt.add(nr_lt);
  check_coverage(out, lt, name);
  lv["replay.layer_coverage_frac"] = lt.coverage();
  lv["cap.write.overhead_frac"] = unit_medians(traced, pbe) / pbe_wall - 1;
  lv["trace_overhead_frac"] =
      (unit_medians(traced, live) + unit_medians(traced, replay)) / (live_wall + replay_wall) - 1;
  return out;
}

}  // namespace

ScenarioRun drive(Built& b, const ScenarioOptions& opt) {
  ScenarioRun r;
  sim::Scenario& s = *b.s;
  const std::uint64_t violations_before = check::violations();
  const auto t0 = Clock::now();
  for (util::Time t = kSlice;; t += kSlice) {
    const util::Time until = std::min(t, b.end);
    s.run_until(until);
    if (opt.sample) {
      double pending = 0;
      for (std::size_t d = 0; d < s.num_domains(); ++d) {
        pending += static_cast<double>(s.domain_loop(d).pending());
      }
      r.pending_events.push_back(pending);
      for (std::size_t i = 0; i < b.flows.size(); ++i) {
        const mac::UeId ue = b.flow_ues[i];
        const auto& bs = s.domain_bs(static_cast<std::size_t>(s.ue_domain(ue)));
        r.queue_bytes.push_back(static_cast<double>(bs.queue_bytes(ue)));
        const pbe::PbeClient* client = s.pbe_client(b.flows[i]);
        if (client == nullptr) continue;
        // cell_snapshots only expires window state the next query would
        // expire anyway, so sampling leaves the run unchanged.
        double est = 0;
        int active = 0;
        for (const auto& c : client->estimator().cell_snapshots(until)) {
          if (!c.active) continue;
          est += c.cp_bits_sf;
          ++active;
        }
        double truth = 0;
        for (const auto& g : bs.ground_truth(ue)) truth += g.avail_bits_sf;
        r.active_cells.push_back(active);
        if (truth > 0) r.est_rel_err.push_back(std::fabs(est - truth) / truth);
      }
    }
    if (until == b.end) break;
  }
  r.wall_s = seconds_since(t0);
  r.violations = check::violations() - violations_before;
  r.air_ms = static_cast<double>(b.end) / util::kMillisecond;

  for (std::size_t d = 0; d < s.num_domains(); ++d) {
    const auto& bs = s.domain_bs(d);
    for (const auto& cell : bs.cells()) {
      r.cell_slots += static_cast<std::uint64_t>(b.end / cell.tick());
      ++r.cells;
    }
    r.tbs += bs.total_tbs_sent();
    r.tb_errors += bs.total_tb_errors();
    r.tb_abandoned += bs.total_tbs_abandoned();
  }
  r.flows_digest = util::kFnv1aOffset;
  for (std::size_t i = 0; i < b.flows.size(); ++i) {
    sim::FlowStats& st = s.stats(b.flows[i]);
    st.finish(b.stop);
    r.flows_digest = util::fnv1a64_value(flowstats_digest(st), r.flows_digest);
    r.packets += st.packets();
    if (st.packets() == 0 || !std::isfinite(st.avg_tput_mbps()) ||
        !std::isfinite(st.p95_delay_ms())) {
      r.stats_ok = false;
    }
    if (i == 0) {
      r.tput_mbps = st.avg_tput_mbps();
      r.p95_delay_ms = st.p95_delay_ms();
      if (const pbe::PbeClient* c = s.pbe_client(b.flows[i])) {
        r.internet_frac = c->internet_state_fraction();
      }
    }
  }
  return r;
}

ScenarioBuilder location_builder(int index, std::uint64_t seed, std::uint64_t sub,
                                 util::Duration flow_len, int nr_mu) {
  auto loc = sim::location(index);
  loc.seed = derive_seed(seed, static_cast<std::uint64_t>(index) * 1000 + sub);
  loc.nr_numerology = nr_mu;
  return [loc, flow_len](const std::string& algo, const ScenarioOptions& opt) {
    sim::ScenarioConfig cfg = sim::scenario_config_for(loc);
    cfg.capture = opt.capture;
    cfg.digest = opt.digest;
    Built b;
    b.s = std::make_unique<sim::Scenario>(std::move(cfg));
    const sim::UeSpec ue = sim::ue_spec_for(loc);
    b.s->add_ue(ue);
    sim::add_location_background(*b.s, loc);
    sim::FlowSpec flow;
    flow.algo = algo;
    flow.ue = ue.id;
    flow.path.one_way_delay = loc.one_way_delay;
    flow.start = 100 * util::kMillisecond;
    flow.stop = flow.start + flow_len;
    b.flows.push_back(b.s->add_flow(flow));
    b.flow_ues.push_back(ue.id);
    b.stop = flow.stop;
    b.end = flow.stop + 500 * util::kMillisecond;
    return b;
  };
}

int quality_threads() {
  const int hw = static_cast<int>(std::thread::hardware_concurrency());
  return std::clamp(hw, 1, 4);
}

std::vector<TwinResult> run_twins(const std::vector<TwinUnit>& units,
                                  std::size_t n_capture, const std::string& dir,
                                  bool sample, Outcome& out) {
  std::vector<TwinResult> res(units.size());
  std::vector<std::string> capture_errors(units.size());
  par::ThreadPool pool(quality_threads());
  pool.parallel_for(units.size(), [&](std::size_t i) {
    TwinResult& r = res[i];
    ScenarioOptions opt;
    opt.sample = sample;
    std::unique_ptr<cap::TraceWriter> writer;
    if (i < n_capture) {
      r.capture = dir + "/" + units[i].label + ".pbt";
      writer = std::make_unique<cap::TraceWriter>(r.capture);
      opt.capture = writer.get();
      opt.digest = &r.live;
    }
    Built pbe = units[i].build("pbe", opt);
    r.pbe = drive(pbe, opt);
    if (writer && !writer->close()) capture_errors[i] = writer->error();
    ScenarioOptions twin_opt;
    twin_opt.sample = sample;
    Built bbr = units[i].build("bbr", twin_opt);
    r.bbr = drive(bbr, twin_opt);
  });
  for (std::size_t i = 0; i < units.size(); ++i) {
    account(out, res[i].pbe, units[i].label + " pbe");
    account(out, res[i].bbr, units[i].label + " bbr");
    if (!capture_errors[i].empty()) {
      out.fail(1, units[i].label + " capture: " + capture_errors[i]);
    }
  }
  // The parallel quality phase is not part of the measured workload:
  // peak_rss_mb covers set-up and the timed phase.
  if (!reset_peak_rss()) out.fail(1, "peak_rss_mb: cannot reset VmHWM via /proc/self/clear_refs");
  return res;
}

std::uint64_t quality_digest(const std::vector<TwinResult>& twins) {
  std::uint64_t h = util::kFnv1aOffset;
  for (const auto& t : twins) {
    h = util::fnv1a64_value(t.pbe.flows_digest, h);
    h = util::fnv1a64_value(t.bbr.flows_digest, h);
  }
  return h;
}

ReplayRound replay_captures(const std::vector<Capture>& caps,
                            const std::vector<TwinResult>& twins, LayerTimes* traced,
                            Outcome& out) {
  ReplayRound rr;
  for (std::size_t i = 0; i < caps.size(); ++i) {
    const auto records = static_cast<std::uint64_t>(caps[i].records.size());
    const auto cells = static_cast<double>(caps[i].header.cells.size());
    out.attempted += records;
    rr.records += records;
    bool same = false;
    if (traced == nullptr) {
      const ReplayPass p = replay_pass(caps[i]);
      rr.walls.push_back(p.wall_s);
      rr.cell_ms += cells * static_cast<double>(p.batches);
      rr.cell_slots += p.cell_slots;
      rr.candidates += p.candidates;
      same = p.digest == twins[i].live;
    } else {
      // Untraced streamed passes just before and just after the traced one
      // give the wall the layer times are checked against, under the same
      // host conditions.
      double before_s = 0, after_s = 0;
      LayerTimes one;
      cap::PipelineDigest before, digest, after;
      std::string err;
      if (!stream_pass(twins[i].capture, before_s, &before, err) ||
          !analyze_capture(twins[i].capture, one, &digest, err) ||
          !stream_pass(twins[i].capture, after_s, &after, err)) {
        out.fail(records, err);
        rr.walls.push_back(0);
        continue;
      }
      one.pass_coverage = {ratio(one.layer_sum_s(), (before_s + after_s) / 2)};
      traced->add(one);
      rr.walls.push_back(one.loop_s - one.read_s);
      rr.cell_ms += cells * static_cast<double>(one.batches);
      rr.cell_slots += one.cell_slots;
      rr.candidates += one.dec.candidates_tried;
      same = digest == twins[i].live && before == twins[i].live && after == twins[i].live;
    }
    if (!same) {
      out.fail(records, twins[i].capture + ": replay PipelineDigest differs from the live recording");
    }
  }
  return rr;
}

double timed_setup(const std::vector<TwinResult>& twins, std::size_t n_capture,
                   std::vector<Capture>& caps, const std::function<void()>& build,
                   Outcome& out) {
  constexpr int kSetups = 5;
  std::vector<double> times;
  for (int k = 0; k < kSetups; ++k) {
    const auto t0 = Clock::now();
    caps.assign(n_capture, Capture{});
    for (std::size_t i = 0; i < n_capture; ++i) {
      std::string err;
      if (!read_capture(twins[i].capture, caps[i], err)) {
        out.fail(1, "set-up: " + err);
        return 0;
      }
    }
    build();
    times.push_back(seconds_since(t0));
  }
  return median(times);
}

void add_cc_quality(Outcome& out, const std::vector<TwinResult>& twins) {
  std::vector<double> tput, p95, tput_ratio, delay_ratio;
  for (const auto& t : twins) {
    tput.push_back(t.pbe.tput_mbps);
    p95.push_back(t.pbe.p95_delay_ms);
    tput_ratio.push_back(t.pbe.tput_mbps / t.bbr.tput_mbps);
    delay_ratio.push_back(t.bbr.p95_delay_ms / t.pbe.p95_delay_ms);
  }
  out.add("pbe_tput_mbps", "Mbit/s", mean(tput));
  out.add("pbe_p95_delay_ms", "ms", mean(p95));
  out.add("tput_ratio_pbe_bbr", "ratio", mean(tput_ratio));
  out.add("p95_delay_ratio_bbr_pbe", "ratio", mean(delay_ratio));
}

void add_pbe_layers(LayerValues& lv, const std::vector<TwinResult>& twins) {
  std::vector<const ScenarioRun*> pbe;
  std::vector<double> internet;
  for (const auto& t : twins) {
    pbe.push_back(&t.pbe);
    internet.push_back(t.pbe.internet_frac);
  }
  lv["pbe.est_rel_err_p50"] = percentile(concat(pbe, &ScenarioRun::est_rel_err), 50);
  lv["pbe.est_rel_err_p95"] = percentile(concat(pbe, &ScenarioRun::est_rel_err), 95);
  lv["pbe.active_cells_mean"] = mean(concat(pbe, &ScenarioRun::active_cells));
  lv["pbe.internet_state_frac"] = mean(internet);
  lv["mac.queue_bytes_p95"] = percentile(concat(pbe, &ScenarioRun::queue_bytes), 95);
}

void remove_captures(const std::vector<TwinResult>& twins) {
  for (const auto& t : twins) {
    if (!t.capture.empty()) std::filesystem::remove(t.capture);
  }
}

// Busy/idle x 1/2/3 carriers: 0 busy 1CC, 5 idle 1CC, 10 busy 2CC,
// 13 idle 2CC, 26 busy 3CC, 29 idle 3CC; 8 seeds each.
Outcome run_lte_mix(const RunSpec& spec) {
  return run_location_workload(spec, "lte_mix", {0, 5, 10, 13, 26, 29},
                               2 * util::kSecond, 8, 1);
}

// Stepped serially: on a shared 4-vCPU host the 2-shard wall time of this
// city swung 2x within minutes (barrier waits on a descheduled vCPU), too
// much for a gated metric. The 16 domains still step through the barrier
// protocol; the traced run measures the 2-shard scaling.
Outcome run_city(const RunSpec& spec) {
  constexpr int kClusters = 16;
  constexpr int kScaledShards = 2;  // traced scaling check
  constexpr int kTwins = 16;            // cluster twins in the quality phase
  constexpr std::size_t kReplayed = 4;  // of which captured and replayed
  const util::Duration city_len = 2 * util::kSecond;
  const util::Duration twin_len = 2 * util::kSecond;
  Outcome out;
  std::filesystem::create_directories(spec.work_dir);
  const std::uint64_t city_seed = derive_seed(spec.seed, 999);

  std::vector<TwinUnit> units;
  for (int sub = 0; sub < kTwins; ++sub) {
    const std::uint64_t s = derive_seed(spec.seed, 1'000'000 + static_cast<std::uint64_t>(sub));
    units.push_back({"city_cluster_s" + std::to_string(sub),
                     [s, twin_len](const std::string& algo, const ScenarioOptions& opt) {
                       return build_city(s, 1, algo, 1, twin_len, opt);
                     }});
  }
  const auto twins = run_twins(units, kReplayed, spec.work_dir, spec.trace, out);
  std::vector<Capture> caps;
  const double setup_s = out.failed > 0 ? 0 : timed_setup(twins, kReplayed, caps, [&] {
    build_city(city_seed, kClusters, "cubic", 1, city_len, {});
  }, out);
  if (out.failed > 0) {
    remove_captures(twins);
    return out;
  }

  struct Round {
    ScenarioRun city;
    ReplayRound replay;
  };
  LayerTimes lt;
  std::uint64_t city_digest = 0;
  const auto run_round = [&](bool traced) {
    ScenarioOptions opt;
    opt.sample = traced;
    Round r;
    Built b = build_city(city_seed, kClusters, "cubic", 1, city_len, opt);
    r.city = drive(b, opt);
    account(out, r.city, "city");
    if (city_digest == 0) city_digest = r.city.flows_digest;
    if (r.city.flows_digest != city_digest) {
      out.fail(1, "city: FlowStats digest differs between repetitions");
    }
    r.replay = replay_captures(caps, twins, traced ? &lt : nullptr, out);
    return r;
  };

  const double window = spec.trace ? spec.seconds / 2.0 : spec.seconds;
  std::vector<Round> rounds;
  const auto t0 = Clock::now();
  while (rounds.size() < 3 || seconds_since(t0) < window) rounds.push_back(run_round(false));
  const Round& first = rounds.front();
  out.work = {{"cell_slots", first.city.cell_slots},
              {"tbs_sent", first.city.tbs},
              {"packets", first.city.packets},
              {"city_flowstats_digest", first.city.flows_digest},
              {"decode_candidates", first.replay.candidates},
              {"capture_records", first.replay.records},
              {"replay_cell_slots", first.replay.cell_slots},
              {"quality_flowstats_digest", quality_digest(twins)}};
  const auto city = [](const Round& r) { return std::vector<double>{r.city.wall_s}; };
  const auto replay = [](const Round& r) { return r.replay.walls; };
  const double city_wall = unit_medians(rounds, city);
  const double replay_wall = unit_medians(rounds, replay);
  const double rate = static_cast<double>(first.city.cell_slots) / city_wall;

  if (!spec.trace) {
    out.add("sim_cell_slots_per_s", "1/s", rate);
    out.add("decode_rtf_us_per_cell_ms", "us", replay_wall * 1e6 / first.replay.cell_ms);
    out.add("setup_s", "s", setup_s);
    add_peak_rss(out);
    add_cc_quality(out, twins);
    remove_captures(twins);
    return out;
  }

  // Traced: the same city at 2 shards for the scaling ratio, then sampled
  // repetitions with timed-layer replays.
  Built scaled_city = build_city(city_seed, kClusters, "cubic", kScaledShards, city_len, {});
  const ScenarioRun scaled = drive(scaled_city, {});
  account(out, scaled, "city at 2 shards");
  if (scaled.flows_digest != city_digest) out.fail(1, "city: 1-shard and 2-shard runs differ");
  std::vector<Round> traced;
  const auto t1 = Clock::now();
  while (traced.empty() || seconds_since(t1) < spec.seconds - window) {
    traced.push_back(run_round(true));
  }
  remove_captures(twins);
  check_coverage(out, lt, "city");

  LayerValues& lv = out.layers;
  lv["sim.ns_per_cell_slot"] = 1e9 / rate;
  lv["sim.shard_speedup"] = city_wall / scaled.wall_s;
  lv["net.event_queue_depth_p95"] = percentile(traced.front().city.pending_events, 95);
  add_mac_shape(lv, {&first.city});
  fill_decoder_layers(lv, lt);
  add_pbe_layers(lv, twins);
  lv["mac.queue_bytes_p95"] = percentile(traced.front().city.queue_bytes, 95);
  lv["trace_overhead_frac"] =
      (unit_medians(traced, city) + unit_medians(traced, replay)) / (city_wall + replay_wall) - 1;
  return out;
}

}  // namespace perfbench
