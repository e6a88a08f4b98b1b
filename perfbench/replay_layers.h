// Capture replay: pre-read passes through cap::ReplayDriver, and the timed
// replay that splits the decode pipeline into layers in traced runs.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "cap/format.h"
#include "cap/replay.h"
#include "common.h"
#include "decoder/blind_decoder.h"

namespace perfbench {

// A capture read fully into memory.
struct Capture {
  pbecc::cap::TraceHeader header;
  std::vector<pbecc::cap::Record> records;
};

// Reads every record of `path`; false with `err` set on a reader error.
bool read_capture(const std::string& path, Capture& out, std::string& err);

// One pass of pre-read records through a fresh ReplayDriver; only the
// whole pass is timed.
struct ReplayPass {
  double wall_s = 0;
  std::uint64_t cell_slots = 0;
  std::uint64_t batches = 0;
  std::uint64_t candidates = 0;
  pbecc::cap::PipelineDigest digest;
};
ReplayPass replay_pass(const Capture& c);

// Wall of one untimed-inside replay streamed from `path`: the
// TraceReader::next + ReplayDriver::step loop of analyze_capture without its
// per-record clocks and standalone decode. False with `err` set on a reader
// error.
bool stream_pass(const std::string& path, double& wall_s,
                 pbecc::cap::PipelineDigest* digest, std::string& err);

// Self times of the replayed pipeline's layers, summed over captures.
struct LayerTimes {
  double loop_s = 0;  // wall of the read + ReplayDriver::step loop
  double read_s = 0;  // TraceReader::next
  double batch_s = 0, probe_s = 0, window_s = 0;  // step() by record kind
  std::uint64_t records = 0, batches = 0, probes = 0, windows = 0;
  // Standalone blind decode of the same control regions with the same
  // noise, interleaved with the replay but excluded from loop_s:
  // BlindDecoder::decode only.
  double blind_s = 0;
  std::uint64_t cell_slots = 0;
  std::uint64_t bytes = 0;  // capture file size
  pbecc::decoder::DecodeStats dec;  // the replay monitor's decoders, summed
  std::uint64_t batch_coded_candidates = 0;  // on convolutional/polar cells
  // Per traced replay: the share of the untraced wall of the same capture
  // (the mean of a stream_pass just before and one just after it) that
  // read + blind decode + monitor self + estimator explain.
  std::vector<double> pass_coverage;

  double monitor_self_s() const { return batch_s - blind_s; }
  // read + blind decode + monitor self (with blind decode, the batch steps)
  // + estimator (probe and window steps).
  double layer_sum_s() const { return read_s + blind_s + monitor_self_s() + probe_s + window_s; }
  // Median of pass_coverage: robust to a pass disturbed by the host.
  double coverage() const;
  void add(const LayerTimes& o);
};

// Replays `path` once through timed layers into `lt` (overwritten). The
// replay's pipeline outputs go to `digest`. Fails when the reader reports
// an error or the standalone decode did different work from the replay
// monitor's decoders.
bool analyze_capture(const std::string& path, LayerTimes& lt,
                     pbecc::cap::PipelineDigest* digest, std::string& err);

// decoder.*, pbe.estimator.*, cap.read/bytes and the replay coverage
// values from `lt`.
void fill_decoder_layers(LayerValues& lv, const LayerTimes& lt);

}  // namespace perfbench
