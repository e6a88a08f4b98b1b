#include "replay_layers.h"

#include <filesystem>
#include <map>
#include <memory>

#include "cap/trace_reader.h"
#include "phy/convolutional.h"
#include "phy/pdcch.h"
#include "util/rng.h"

namespace perfbench {

using namespace pbecc;

namespace {

phy::PdcchSubframe to_subframe(const cap::CellCapture& c) {
  phy::PdcchSubframe sf;
  sf.cell_id = c.cell;
  sf.sf_index = c.sf_index;
  sf.tick = c.tick;
  sf.n_cces = c.n_cces;
  sf.coding = c.coding;
  sf.bits = c.bits;
  sf.cce_used = c.cce_used;
  return sf;
}

void add_stats(decoder::DecodeStats& acc, const decoder::DecodeStats& s) {
  acc.candidates_tried += s.candidates_tried;
  acc.crc_failures += s.crc_failures;
  acc.messages_decoded += s.messages_decoded;
  acc.subframes += s.subframes;
  acc.memo_hits += s.memo_hits;
  acc.lane_batches += s.lane_batches;
  acc.early_aborts += s.early_aborts;
  acc.screen_rejects += s.screen_rejects;
}

bool same_work(const decoder::DecodeStats& a, const decoder::DecodeStats& b) {
  return a.candidates_tried == b.candidates_tried &&
         a.crc_failures == b.crc_failures &&
         a.messages_decoded == b.messages_decoded &&
         a.subframes == b.subframes && a.memo_hits == b.memo_hits;
}

}  // namespace

ReplayPass replay_pass(const Capture& c) {
  ReplayPass p;
  cap::ReplayDriver driver(c.header, &p.digest);
  const auto t0 = Clock::now();
  for (const auto& rec : c.records) driver.step(rec);
  p.wall_s = seconds_since(t0);
  p.cell_slots = driver.stats().cell_subframes;
  p.batches = driver.stats().batches;
  p.candidates = driver.monitor().total_candidates_tried();
  return p;
}

bool stream_pass(const std::string& path, double& wall_s, cap::PipelineDigest* digest,
                 std::string& err) {
  cap::TraceReader reader(path);
  if (!reader.ok()) {
    err = path + ": " + reader.error();
    return false;
  }
  cap::ReplayDriver driver(reader.header(), digest);
  cap::Record rec;
  const auto t0 = Clock::now();
  while (reader.next(rec)) driver.step(rec);
  wall_s = seconds_since(t0);
  if (!reader.ok()) {
    err = path + ": " + reader.error();
    return false;
  }
  return true;
}

bool read_capture(const std::string& path, Capture& out, std::string& err) {
  cap::TraceReader reader(path);
  out.records.clear();
  cap::Record rec;
  while (reader.next(rec)) out.records.push_back(std::move(rec));
  if (!reader.ok()) {
    err = path + ": " + reader.error();
    return false;
  }
  out.header = reader.header();
  return true;
}

double LayerTimes::coverage() const {
  return median(pass_coverage);
}

void LayerTimes::add(const LayerTimes& o) {
  loop_s += o.loop_s;
  read_s += o.read_s;
  batch_s += o.batch_s;
  probe_s += o.probe_s;
  window_s += o.window_s;
  records += o.records;
  batches += o.batches;
  probes += o.probes;
  windows += o.windows;
  blind_s += o.blind_s;
  cell_slots += o.cell_slots;
  bytes += o.bytes;
  add_stats(dec, o.dec);
  batch_coded_candidates += o.batch_coded_candidates;
  pass_coverage.insert(pass_coverage.end(), o.pass_coverage.begin(), o.pass_coverage.end());
}

bool analyze_capture(const std::string& path, LayerTimes& lt,
                     cap::PipelineDigest* digest, std::string& err) {
  lt = LayerTimes{};
  cap::TraceReader reader(path);
  if (!reader.ok()) {
    err = path + ": " + reader.error();
    return false;
  }
  if (reader.header().fault_active) {
    err = path + ": fault-injected captures are not supported";
    return false;
  }
  cap::ReplayDriver driver(reader.header(), digest);
  // Blind decode alone, interleaved record by record so that both timings
  // see the same host conditions: the monitor's decoders see each cell's
  // control region after its reception noise, drawn from one generator
  // seeded with the monitor seed in batch/cell order. The stats comparison
  // below proves the standalone decoders did the same work.
  std::map<phy::CellId, std::unique_ptr<decoder::BlindDecoder>> decoders;
  for (const auto& cell : reader.header().cells) {
    decoders.emplace(cell.id, std::make_unique<decoder::BlindDecoder>(cell));
  }
  util::Rng rng(reader.header().monitor_seed);
  double standalone_s = 0;  // the whole standalone pass, outside the replay
  cap::Record rec;
  const auto t0 = Clock::now();
  for (;;) {
    const auto ta = Clock::now();
    const bool more = reader.next(rec);
    const auto tb = Clock::now();
    lt.read_s += std::chrono::duration<double>(tb - ta).count();
    if (!more) break;
    driver.step(rec);
    const auto tc = Clock::now();
    const double step = std::chrono::duration<double>(tc - tb).count();
    ++lt.records;
    switch (rec.kind) {
      case cap::Record::Kind::kBatch:
        lt.batch_s += step;
        ++lt.batches;
        break;
      case cap::Record::Kind::kProbe:
        lt.probe_s += step;
        ++lt.probes;
        continue;
      case cap::Record::Kind::kWindow:
        lt.window_s += step;
        ++lt.windows;
        continue;
    }
    for (const auto& c : rec.batch.cells) {
      const auto it = decoders.find(c.cell);
      if (it == decoders.end()) continue;
      phy::PdcchSubframe sf = to_subframe(c);
      if (c.control_ber > 0) phy::apply_bit_noise(sf, c.control_ber, rng);
      const auto td = Clock::now();
      it->second->decode(sf);
      lt.blind_s += seconds_since(td);
    }
    standalone_s += seconds_since(tc);
  }
  lt.loop_s = seconds_since(t0) - standalone_s;
  if (!reader.ok()) {
    err = path + ": " + reader.error();
    return false;
  }
  lt.cell_slots = driver.stats().cell_subframes;
  for (const auto& cell : reader.header().cells) {
    const auto& s = driver.monitor().decoder(cell.id).stats();
    if (!same_work(decoders.at(cell.id)->stats(), s)) {
      err = path + ": standalone blind decode of cell " + std::to_string(cell.id) +
            " did different work from the replay monitor";
      return false;
    }
    add_stats(lt.dec, s);
    if (cell.pdcch_coding != phy::PdcchCoding::kRepetition) {
      lt.batch_coded_candidates += s.candidates_tried;
    }
  }
  std::error_code ec;
  lt.bytes = std::filesystem::file_size(path, ec);
  return true;
}

void fill_decoder_layers(LayerValues& lv, const LayerTimes& lt) {
  const auto cand = static_cast<double>(lt.dec.candidates_tried);
  const auto slots = static_cast<double>(lt.cell_slots);
  lv["decoder.blind.ns_per_cell_slot"] = ratio(lt.blind_s * 1e9, slots);
  lv["decoder.blind.ns_per_candidate"] = ratio(lt.blind_s * 1e9, cand);
  lv["decoder.candidates_per_cell_slot"] = ratio(cand, slots);
  lv["decoder.decoded_per_candidate"] = ratio(lt.dec.messages_decoded, cand);
  lv["decoder.crc_fail_frac"] = ratio(lt.dec.crc_failures, cand);
  lv["decoder.memo_hit_frac"] = ratio(lt.dec.memo_hits, cand);
  lv["decoder.early_abort_frac"] = ratio(lt.dec.early_aborts, cand);
  lv["decoder.screen_reject_frac"] = ratio(lt.dec.screen_rejects, cand);
  lv["decoder.lane_fill"] =
      ratio(lt.batch_coded_candidates,
            static_cast<double>(lt.dec.lane_batches) * phy::kMaxDecodeLanes);
  lv["decoder.monitor.self_ns_per_batch"] = ratio(lt.monitor_self_s() * 1e9, lt.batches);
  lv["replay.layer_coverage_frac"] = lt.coverage();
  lv["pbe.estimator.ns_per_probe"] = ratio(lt.probe_s * 1e9, lt.probes);
  lv["cap.read.ns_per_record"] = ratio(lt.read_s * 1e9, lt.records);
  lv["cap.bytes_per_cell_slot"] = ratio(lt.bytes, slots);
}

}  // namespace perfbench
