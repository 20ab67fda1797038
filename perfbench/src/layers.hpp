// Per-layer attribution for the traced run.
//
// Spans come from two places: the library's own (batch.*, litho.*,
// window.*, kernels.*, shard.*, train.*) and, on via-camo, the benchmark's
// mirrored CAMO loop (pb.core.*). summarize_trace() nests them per thread,
// so every span's self time is its duration minus its children's. Worker
// time is the summed duration of the batch.clip spans; a layer's share is
// the self time of its spans inside clips over that sum, and
// trace.coverage is the part of worker time that some span inside a clip
// accounts for. The rest, "batch.clip minus its child spans", is the
// engine loop (opc) plus the scheduler's per-clip bookkeeping.
//
// What spans cannot split is measured by probes: the layer's public
// function timed per call on the workload's own inputs, outside any round.
#pragma once

#include <map>
#include <string>
#include <vector>

#include "bench.hpp"
#include "core/camo.hpp"
#include "litho/process_window.hpp"
#include "litho/simulator.hpp"

namespace perfbench {

struct SpanStats {
    long long count = 0;
    double total_s = 0.0;

    [[nodiscard]] double mean_ms() const { return count > 0 ? 1e3 * total_s / count : 0.0; }
};

struct TraceSummary {
    std::map<std::string, SpanStats> spans;  ///< by span name
    double worker_s = 0.0;                   ///< summed batch.clip time
    double covered_s = 0.0;                  ///< part of worker_s inside child spans
    std::map<std::string, double> layer_self_s;  ///< by layer, inside clips, clip spans excluded
    double eval_full_s = 0.0;    ///< litho.evaluate* spans that rebuilt the cache
    long long eval_full_count = 0;
    double straggler_s = 0.0;    ///< last batch.clip end minus first worker idle
    long long dropped = 0;       ///< events lost to ring overflow

    [[nodiscard]] const SpanStats& get(const std::string& name) const;
    [[nodiscard]] double coverage() const { return worker_s > 0.0 ? covered_s / worker_s : 0.0; }
};

/// Summarize every buffered trace event (call with tracing disabled).
TraceSummary summarize_trace();

/// Per-layer metric names and units, the set a traced run always reports.
const std::vector<std::pair<std::string, std::string>>& per_layer_metrics();

/// Set every per-layer metric to 0, to be overwritten where it applies.
void zero_per_layer(Outcome& out);

/// Time the stages of a dense evaluation — rasterize, forward FFT, one
/// aerial image per focus plane, EPE/PV-band metrics — on the sampled clips
/// at their final offsets, and check that the stages reassemble
/// LithoSim::evaluate bit for bit. Sets litho.{rasterize,fft,aerial,metrics}_ms.
void probe_litho(Outcome& out, const camo::litho::LithoSim& sim,
                 const std::vector<camo::geo::SegmentedLayout>& layouts,
                 const std::vector<camo::runtime::ClipResult>& clips);

/// Per-sample PolicyNetwork::forward / backward on squish features of the
/// given clips (a fresh network of the engine's architecture, so the
/// trained weights are untouched). Sets nn.forward_ms and nn.backward_ms.
void probe_nn(Outcome& out, const camo::core::CamoEngine& engine,
              const std::vector<camo::geo::SegmentedLayout>& layouts, int initial_bias_nm);

/// Re-evaluate a sample of clips at their final offsets on the dense path
/// (evaluate, or evaluate_window under a window objective) and check the
/// engine-reported EPE and PV band against it, within the incremental
/// path's documented tolerances. `opc` is the objective the engine ran.
void check_dense(Outcome& out, const camo::litho::LithoSim& sim, const camo::opc::OpcOptions& opc,
                 const std::vector<camo::geo::SegmentedLayout>& layouts,
                 const std::vector<camo::runtime::ClipResult>& clips);

/// Indices of up to `count` clips spread evenly over [0, n).
std::vector<std::size_t> sample_indices(std::size_t n, std::size_t count);

}  // namespace perfbench
