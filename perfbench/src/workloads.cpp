// The workloads. Each builds its inputs from the run's seed, times several
// set-ups against a cold in-process kernel registry, then measures whole
// rounds until the requested seconds have passed, and checks its outputs.
//
// Cache state is explicit: every workload loads its kernels from the
// benchmark's own disk cache, which `perfbench --prepare` fills in a process
// of its own; a measured run refuses to start without the cache entry.
#include <sched.h>

#include <algorithm>
#include <filesystem>
#include <limits>
#include <memory>
#include <optional>
#include <stdexcept>
#include <thread>

#include "bench.hpp"
#include "common/rng.hpp"
#include "common/timer.hpp"
#include "core/experiment.hpp"
#include "layers.hpp"
#include "layout/shard.hpp"
#include "litho/kernel_cache.hpp"
#include "litho/kernel_registry.hpp"
#include "mirror.hpp"
#include "obs/trace.hpp"
#include "opc/rule_engine.hpp"
#include "scenario/scenario.hpp"

namespace perfbench {
namespace {

using namespace camo;

// setup_s is a median of means. A run does a fixed number of timed set-ups
// per workload (about three seconds of work on a 4-core x86 VM, twelve on
// via-camo), deals them in turn into kSetupGroups groups and reports the
// median of the group means. On a shared host one core's speed drifts by 20-40% over seconds,
// and differently from the next core's, so set-up i runs pinned to core
// i mod (cores): each group's mean then spans every core and the whole
// set-up phase, where a short burst on one core sees only one state.
// The median of the groups drops a group that a stall hit.
constexpr int kSetupGroups = 3;
constexpr int kViaCamoSetups = 6;      // about 2 s each: trains the policy
constexpr int kViaWorstSetups = 1024;  // about 2.7 ms each
constexpr int kMetalSetups = 256;      // about 12 ms each
// At least 100 clips per run, so 10 samples lie beyond the 90th percentile.
constexpr int kViaClips = 100;
// metal-shard: kChips chips of kChipCells x kChipCells metal24 cells per round
// (about 150 tiles each). Per-tile EPE is heavy-tailed, so a round needs
// many distinct chips for its mean to be steady from seed to seed.
constexpr int kChips = 6;
constexpr int kChipCells = 8;

int bench_threads() {
    const unsigned hw = std::thread::hardware_concurrency();
    return std::clamp(static_cast<int>(hw), 1, 4);
}

litho::LithoConfig via_litho(const std::string& cache_dir) {
    litho::LithoConfig cfg = core::Experiment::litho_config();
    cfg.cache_dir = cache_dir;
    return cfg;
}

runtime::BatchOptions batch_options(const Args& args, opc::OpcOptions opc) {
    runtime::BatchOptions b;
    b.threads = bench_threads();
    b.seed = args.seed;
    b.opc = std::move(opc);
    return b;
}

std::vector<std::string> clip_names(const std::vector<layout::Clip>& clips) {
    std::vector<std::string> names;
    for (const layout::Clip& c : clips) names.push_back(c.name);
    return names;
}

// ---- set-up -------------------------------------------------------------------

struct SetupTimes {
    std::vector<double> total;  ///< mean set-up time of each group
    std::vector<double> kernel;
    std::vector<double> fragment;
    std::vector<double> shard;
    std::vector<double> train;
    bool kernels_from_disk = false;  ///< the last set-up found a disk cache entry
};

/// Cold-registry kernel acquisition, timed; notes whether the disk cache
/// already held the entry (a load) or not (a build).
void acquire_kernels_timed(const litho::LithoConfig& cfg, SetupTimes& times) {
    times.kernels_from_disk =
        !cfg.cache_dir.empty() && std::filesystem::exists(litho::kernel_cache_path(cfg));
    Timer t;
    (void)litho::acquire_kernels(cfg);
    times.kernel.push_back(t.seconds());
}

/// A measured run loads its kernels from the disk cache that a separate
/// `perfbench --prepare` process filled; it never builds them itself.
void require_disk_cache(const litho::LithoConfig& cfg) {
    const std::string path = litho::kernel_cache_path(cfg);
    if (!std::filesystem::exists(path)) {
        throw std::runtime_error("kernel cache entry " + path +
                                 " is missing; run perfbench --prepare 1 first");
    }
}

void set_tracing(bool on) {
    obs::set_tracing_enabled(on);
    obs::set_metrics_enabled(on);
}

/// Pins the calling thread to one core, or back to `mask`.
void pin_to(const cpu_set_t& mask) { (void)sched_setaffinity(0, sizeof mask, &mask); }

/// Runs `setup` `count` times untraced, each from a cold in-process kernel
/// registry and each timed on its own (tearing the product down is not
/// timed); set-up i runs with the calling thread pinned to allowed core
/// i mod (cores). times.total gets the mean set-up time of each of the
/// kSetupGroups groups (set-up i is in group i mod kSetupGroups). Then,
/// with the thread's own affinity back, runs `setup` once more, untimed, so
/// the scheduler threads of the product it returns are not pinned; with
/// `trace` that set-up is traced, and the trace and metrics hold it alone.
template <class Setup>
auto timed_setups(SetupTimes& times, int count, bool trace, Setup&& setup) {
    set_tracing(false);
    cpu_set_t own;
    CPU_ZERO(&own);
    std::vector<int> cpus;
    if (sched_getaffinity(0, sizeof own, &own) == 0) {
        for (int c = 0; c < CPU_SETSIZE; ++c) {
            if (CPU_ISSET(c, &own)) cpus.push_back(c);
        }
    }
    std::vector<double> spent(kSetupGroups, 0.0);
    for (int i = 0; i < count; ++i) {
        if (!cpus.empty()) {
            cpu_set_t one;
            CPU_ZERO(&one);
            CPU_SET(cpus[static_cast<std::size_t>(i) % cpus.size()], &one);
            pin_to(one);
        }
        litho::clear_kernel_registry();
        Timer t;
        {
            const auto product = setup(times);
            spent[static_cast<std::size_t>(i % kSetupGroups)] += t.seconds();
        }
    }
    if (!cpus.empty()) pin_to(own);
    for (int g = 0; g < kSetupGroups; ++g) {
        const int members = count / kSetupGroups + (g < count % kSetupGroups ? 1 : 0);
        times.total.push_back(spent[static_cast<std::size_t>(g)] / members);
    }

    litho::clear_kernel_registry();
    obs::reset_trace();
    obs::reset_metrics();
    set_tracing(trace);
    return setup(times);
}

// ---- measured rounds ------------------------------------------------------------

struct Rounds {
    std::vector<double> clips_per_s;
    std::vector<double> latency_s;  ///< per clip; a failed clip counts as infinite
    std::vector<std::string> hashes;
    runtime::BatchResult first;
    long long attempted = 0;
    long long failed = 0;
};

void add_round(Rounds& r, runtime::BatchResult&& b, const std::string& hash) {
    r.clips_per_s.push_back(b.wall_s > 0.0 ? b.ok() / b.wall_s : 0.0);
    for (const runtime::ClipResult& c : b.clips) {
        r.latency_s.push_back(c.error.empty() ? c.runtime_s
                                              : std::numeric_limits<double>::infinity());
    }
    r.hashes.push_back(hash);
    r.attempted += static_cast<long long>(b.clips.size());
    r.failed += b.failed;
    if (r.hashes.size() == 1) r.first = std::move(b);
}

/// Whole rounds until `seconds` have passed (at least one).
template <class RunOnce>
Rounds measure_rounds(double seconds, RunOnce&& once) {
    Rounds r;
    Timer t;
    do {
        runtime::BatchResult b = once();
        const std::string h = hash_clips(b.clips);
        add_round(r, std::move(b), h);
    } while (t.seconds() < seconds);
    return r;
}

void check_clips(Outcome& out, const runtime::BatchResult& b, const std::string& what) {
    for (const runtime::ClipResult& c : b.clips) {
        if (!c.error.empty()) out.fail(what + ": clip " + c.name + " failed: " + c.error);
    }
}

/// End-to-end metrics of an untraced run.
void report_e2e(Outcome& out, const Rounds& r, const SetupTimes& setup) {
    out.attempted += r.attempted;
    out.failed += r.failed;
    out.check(r.failed == 0, "clips failed");
    for (const std::string& h : r.hashes) {
        out.check(h == r.hashes.front(), "round outputs differ: " + h + " vs " + r.hashes.front());
    }
    check_clips(out, r.first, "round 1");

    double epe = 0.0;
    double pvb = 0.0;
    int ok = 0;
    for (const runtime::ClipResult& c : r.first.clips) {
        if (!c.error.empty()) continue;
        epe += c.final_epe;
        pvb += c.pvband_nm2;
        ++ok;
    }
    out.set("setup_s", median(setup.total), "s");
    out.set("clips_per_s", median(r.clips_per_s), "clips/s");
    out.set("clip_p50_ms", 1e3 * percentile(r.latency_s, 0.5), "ms");
    out.set("clip_p90_ms", 1e3 * percentile(r.latency_s, 0.9), "ms");
    out.set("epe_nm", ok > 0 ? epe / ok : 0.0, "nm");
    out.set("pvb_nm2", ok > 0 ? pvb / ok : 0.0, "nm2");
    out.set("peak_rss_mb", peak_rss_mb(), "MB");
    out.info["rounds"] = std::to_string(r.hashes.size());
    out.info["latency_samples"] = std::to_string(r.latency_s.size());
    out.info["outputs_hash"] = r.hashes.front();
}

// ---- traced run -------------------------------------------------------------------

long long counter(const std::vector<obs::MetricSnapshot>& snap, const char* name) {
    const obs::MetricSnapshot* m = obs::find_metric(snap, name);
    return m == nullptr ? 0 : m->counter;
}

/// Kernel build versus disk load, from outside: a kernels.build span means
/// the registry missed; the disk entry's presence beforehand says which.
void set_setup_metrics(Outcome& out, const SetupTimes& setup, const TraceSummary& setup_trace) {
    const double acquisitions = static_cast<double>(setup_trace.get("kernels.build").count);
    out.set("litho.kernel_acquire_s", median(setup.kernel), "s");
    out.set("litho.kernel_builds", setup.kernels_from_disk ? 0.0 : acquisitions, "count");
    out.set("litho.kernel_cache_loads", setup.kernels_from_disk ? acquisitions : 0.0, "count");
    out.set("geometry.fragment_ms", 1e3 * median(setup.fragment), "ms");
    if (!setup.shard.empty()) out.set("layout.shard_ms", 1e3 * median(setup.shard), "ms");
}

/// Trainer spans and outcome of the set-up training.
void set_train_metrics(Outcome& out, const TraceSummary& trace, double train_s,
                       const core::TrainStats& stats) {
    const SpanStats& p1 = trace.get("train.phase1.epoch");
    out.set("core.collect_s", trace.get("train.collect").total_s, "s");
    out.set("core.phase1_epoch_s", p1.count > 0 ? p1.total_s / p1.count : 0.0, "s");
    out.set("core.reduce_s", trace.get("train.reduce").total_s, "s");
    out.set("train_s", train_s, "s");
    out.set("phase1_nll", stats.phase1_loss.empty() ? 0.0 : stats.phase1_loss.back(), "nats");
}

/// Per-layer metrics of a traced measured phase.
void set_trace_metrics(Outcome& out, const TraceSummary& trace) {
    const std::vector<obs::MetricSnapshot> snap = obs::snapshot_metrics();
    const obs::MetricSnapshot* delta = obs::find_metric(snap, "litho.delta_dft.ns");
    const long long sparse = delta == nullptr ? 0 : delta->hist_count;
    const long long hits = counter(snap, "litho.incremental.hits");
    out.set("litho.evals", static_cast<double>(counter(snap, "litho.evaluations")), "count");
    out.set("litho.full_evals", static_cast<double>(counter(snap, "litho.incremental.fulls")),
            "count");
    out.set("litho.sparse_evals", static_cast<double>(sparse), "count");
    out.set("litho.unchanged_evals", static_cast<double>(hits - sparse), "count");
    out.set("litho.eval_full_ms",
            trace.eval_full_count > 0 ? 1e3 * trace.eval_full_s / trace.eval_full_count : 0.0,
            "ms");
    out.set("litho.rebuild_ms", trace.get("litho.incremental.rebuild").mean_ms(), "ms");
    out.set("litho.delta_dft_ms", trace.get("litho.delta_dft").mean_ms(), "ms");
    out.set("litho.window_planes", static_cast<double>(trace.get("window.focus_plane").count),
            "count");
    out.set("litho.window_plane_ms", trace.get("window.focus_plane").mean_ms(), "ms");

    const double worker = trace.worker_s > 0.0 ? trace.worker_s : 1.0;
    double eval_s = 0.0;
    for (const char* name :
         {"litho.evaluate", "litho.evaluate_incremental", "litho.evaluate_window"}) {
        eval_s += trace.get(name).total_s;
    }
    const auto share = [&](const char* layer) {
        const auto it = trace.layer_self_s.find(layer);
        return it == trace.layer_self_s.end() ? 0.0 : it->second / worker;
    };
    out.set("litho.eval_share", eval_s / worker, "ratio");
    out.set("litho.self_share", share("litho"), "ratio");
    out.set("core.self_share", share("core"), "ratio");
    // The engine loop has no spans of its own: its time is the named
    // remainder "batch.clip minus its child spans".
    out.set("opc.self_share", (trace.worker_s - trace.covered_s) / worker, "ratio");

    out.set("core.graph_build_ms", trace.get("pb.core.graph_build").mean_ms(), "ms");
    out.set("core.squish_encode_ms", trace.get("pb.core.squish_encode").mean_ms(), "ms");
    out.set("core.policy_forward_ms", trace.get("pb.core.policy_forward").mean_ms(), "ms");
    out.set("core.policy_calls", static_cast<double>(trace.get("pb.core.policy_forward").count),
            "count");
    out.set("core.modulator_us", 1e3 * trace.get("pb.core.modulator").mean_ms(), "us");
    out.set("runtime.straggler_s", trace.straggler_s, "s");
    out.set("trace.coverage", trace.coverage(), "ratio");

    out.check(trace.dropped == 0, "trace ring overflowed: " + std::to_string(trace.dropped) +
                                      " events lost");
    out.check(trace.coverage() >= 0.95,
              "trace.coverage " + std::to_string(trace.coverage()) + " is below 0.95");
    out.info["worker_s"] = std::to_string(trace.worker_s);
}

/// Metrics of an untraced reference round that the traced run reports.
void set_round_metrics(Outcome& out, const runtime::BatchResult& base, int threads) {
    double iterations = 0.0;
    double clip_s = 0.0;
    for (const runtime::ClipResult& c : base.clips) {
        iterations += c.iterations;
        clip_s += c.runtime_s;
    }
    const double n = base.clips.empty() ? 1.0 : static_cast<double>(base.clips.size());
    out.set("opc.iterations_per_clip", iterations / n, "count");
    out.set("runtime.busy_share", base.wall_s > 0.0 ? clip_s / (base.wall_s * threads) : 0.0,
            "ratio");
}

/// Traced run of a batch workload: `round` runs once untraced and once with
/// tracing on. The outputs must match, and the ratio of the two throughputs
/// is the tracing overhead. Returns the untraced round.
template <class Round>
runtime::BatchResult traced_batch(Outcome& out, Round&& round) {
    runtime::BatchResult base = round();
    obs::reset_trace();
    obs::reset_metrics();
    set_tracing(true);
    const runtime::BatchResult tr = round();
    set_tracing(false);
    const TraceSummary trace = summarize_trace();

    out.attempted += static_cast<long long>(base.clips.size() + tr.clips.size());
    out.failed += base.failed + tr.failed;
    check_clips(out, base, "untraced round");
    check_clips(out, tr, "traced round");
    const std::string base_hash = hash_clips(base.clips);
    out.check(hash_clips(tr.clips) == base_hash, "traced round outputs differ from untraced");
    out.info["outputs_hash"] = base_hash;

    set_trace_metrics(out, trace);
    out.set("obs.trace_overhead",
            tr.throughput_cps > 0.0 ? base.throughput_cps / tr.throughput_cps - 1.0 : 0.0,
            "ratio");
    return base;
}

std::string hash_weights(core::CamoEngine& engine, const core::TrainStats& stats) {
    Hash h;
    for (nn::Parameter* p : engine.policy().params()) h.add(p->value.data());
    h.add(std::span<const double>(stats.phase1_loss));
    h.add(std::span<const double>(stats.phase2_reward));
    return h.hex();
}

// ---- via-camo -------------------------------------------------------------------------

/// The fixed imitation-only warm-up recipe `camo_cli shard` and `serve`
/// train with: two clips, teacher biases {3, 0}, three teacher steps, four
/// phase-1 epochs, no phase 2.
core::CamoConfig warm_recipe() {
    core::CamoConfig cfg = core::Experiment::via_camo_config();
    cfg.teacher_biases = {3, 0};
    cfg.teacher_steps = 3;
    cfg.phase1_epochs = 4;
    cfg.phase2_episodes = 0;
    cfg.train_workers = 1;
    return cfg;
}

struct ViaCamoSetup {
    std::vector<geo::SegmentedLayout> layouts;
    std::vector<std::string> names;
    std::vector<geo::SegmentedLayout> train_layouts;
    std::unique_ptr<core::CamoEngine> engine;
    core::TrainStats stats;
    std::unique_ptr<runtime::BatchScheduler> sched;
};

}  // namespace

Outcome run_via_camo(const Args& args) {
    Outcome out;
    out.info["threads"] = std::to_string(bench_threads());
    const litho::LithoConfig cfg = via_litho(args.cache_dir);
    const runtime::BatchOptions bopt = batch_options(args, core::Experiment::via_options());
    require_disk_cache(cfg);

    std::vector<std::string> weight_hashes;
    SetupTimes times;
    ViaCamoSetup s = timed_setups(times, kViaCamoSetups, args.trace, [&](SetupTimes& t) {
        ViaCamoSetup r;
        acquire_kernels_timed(cfg, t);
        const std::vector<layout::Clip> raw = layout::via_batch_set(args.seed, kViaClips);
        std::vector<layout::Clip> train_raw =
            layout::via_training_set(core::Experiment::kDatasetSeed);
        train_raw.resize(2);
        Timer frag;
        r.layouts = core::fragment_via_clips(raw);
        r.train_layouts = core::fragment_via_clips(train_raw);
        t.fragment.push_back(frag.seconds());
        r.names = clip_names(raw);
        r.engine = std::make_unique<core::CamoEngine>(warm_recipe());
        litho::LithoSim sim(cfg);
        Timer train;
        r.stats = r.engine->train(r.train_layouts, sim, bopt.opc);
        t.train.push_back(train.seconds());
        weight_hashes.push_back(hash_weights(*r.engine, r.stats));
        r.sched = std::make_unique<runtime::BatchScheduler>(cfg, bopt);
        return r;
    });
    for (const std::string& h : weight_hashes) {
        out.check(h == weight_hashes.front(), "set-up trainings produced different weights");
    }
    out.info["weights_hash"] = weight_hashes.front();

    const auto untraced = [&] { return s.sched->run_camo(s.layouts, *s.engine, s.names); };
    if (!args.trace) {
        const Rounds rounds = measure_rounds(args.seconds, untraced);
        report_e2e(out, rounds, times);
        check_dense(out, litho::LithoSim(cfg), s.sched->options().opc, s.layouts,
                    rounds.first.clips);
        return out;
    }

    set_tracing(false);
    const TraceSummary setup_trace = summarize_trace();
    zero_per_layer(out);
    set_setup_metrics(out, times, setup_trace);
    set_train_metrics(out, setup_trace, median(times.train), s.stats);
    // The core steps have no spans of their own, so the traced round runs
    // the CAMO loop rebuilt from public calls (mirror.hpp). It must give
    // the engine's outputs bit for bit; the engine's own round is the one
    // the round metrics come from.
    const runtime::BatchResult engine_round = untraced();
    out.attempted += static_cast<long long>(engine_round.clips.size());
    out.failed += engine_round.failed;
    check_clips(out, engine_round, "engine round");
    const runtime::BatchResult base = traced_batch(out, [&] {
        return s.sched->run(
            s.layouts,
            [&](const geo::SegmentedLayout& layout, litho::LithoSim& sim,
                const opc::OpcOptions& o,
                std::uint64_t) { return traced_camo_infer(*s.engine, layout, sim, o); },
            s.names);
    });
    out.check(hash_clips(engine_round.clips) == hash_clips(base.clips),
              "mirrored CAMO loop differs from CamoEngine::infer");
    set_round_metrics(out, engine_round, s.sched->threads());
    probe_litho(out, litho::LithoSim(cfg), s.layouts, base.clips);
    probe_nn(out, *s.engine, s.train_layouts, bopt.opc.initial_bias_nm);
    return out;
}

// ---- via-worst ----------------------------------------------------------------------

namespace {

struct ViaBatchSetup {
    std::vector<geo::SegmentedLayout> layouts;
    std::vector<std::string> names;
    std::unique_ptr<runtime::BatchScheduler> sched;
};

}  // namespace

Outcome run_via_worst(const Args& args) {
    Outcome out;
    out.info["threads"] = std::to_string(bench_threads());
    const litho::LithoConfig cfg = via_litho(args.cache_dir);
    opc::OpcOptions opc = core::Experiment::via_options();
    opc.objective = rl::RewardMode::kWorstCorner;
    const runtime::BatchOptions bopt = batch_options(args, opc);
    require_disk_cache(cfg);

    SetupTimes times;
    ViaBatchSetup s = timed_setups(times, kViaWorstSetups, args.trace, [&](SetupTimes& t) {
        ViaBatchSetup r;
        acquire_kernels_timed(cfg, t);
        const std::vector<layout::Clip> raw = layout::via_batch_set(args.seed, kViaClips);
        Timer frag;
        r.layouts = core::fragment_via_clips(raw);
        t.fragment.push_back(frag.seconds());
        r.names = clip_names(raw);
        r.sched = std::make_unique<runtime::BatchScheduler>(cfg, bopt);
        return r;
    });
    const auto untraced = [&] { return s.sched->run_rule(s.layouts, {}, s.names); };
    if (!args.trace) {
        const Rounds rounds = measure_rounds(args.seconds, untraced);
        report_e2e(out, rounds, times);
        check_dense(out, litho::LithoSim(cfg), s.sched->options().opc, s.layouts,
                    rounds.first.clips);
        return out;
    }

    set_tracing(false);
    zero_per_layer(out);
    set_setup_metrics(out, times, summarize_trace());
    const runtime::BatchResult base = traced_batch(out, untraced);
    set_round_metrics(out, base, s.sched->threads());
    probe_litho(out, litho::LithoSim(cfg), s.layouts, base.clips);
    return out;
}

// ---- metal-shard ----------------------------------------------------------------------

namespace {

struct Chip {
    std::unique_ptr<layout::TileSharder> sharder;
    std::vector<geo::SegmentedLayout> layouts;
    std::vector<std::string> names;
    std::unique_ptr<geo::SegmentedLayout> chip_layout;
};

struct MetalSetup {
    std::vector<Chip> chips;
    std::vector<geo::SegmentedLayout> tiles;  ///< every chip's tiles, in round order
    std::unique_ptr<runtime::BatchScheduler> sched;
};

/// One round: each chip streamed through run_streaming and stitched, one
/// chip after another. The wall runs from the first tile submitted to the
/// last chip stitched; tile results are numbered across the round.
struct ChipRound {
    runtime::BatchResult tiles;
    std::vector<layout::StitchResult> chips;
    double stitch_s = 0.0;  ///< per chip
    std::string hash;       ///< tile results plus the stitched chips
};

ChipRound stream_chips(const MetalSetup& s, const runtime::ClipOptimizer& optimize) {
    ChipRound r;
    Hash chips_hash;
    Timer wall;
    for (const Chip& c : s.chips) {
        const int base = static_cast<int>(r.tiles.clips.size());
        r.tiles.clips.resize(r.tiles.clips.size() + c.layouts.size());
        std::vector<std::vector<int>> offsets(c.layouts.size());
        const runtime::StreamStats stats = s.sched->run_streaming(
            c.layouts, optimize,
            [&](runtime::ClipResult&& tile) {
                const auto i = static_cast<std::size_t>(tile.index);
                if (tile.error.empty()) offsets[i] = tile.offsets;
                tile.index += base;
                r.tiles.clips[static_cast<std::size_t>(tile.index)] = std::move(tile);
            },
            c.names);
        r.tiles.failed += stats.failed;
        Timer stitch;
        r.chips.push_back(layout::stitch(*c.sharder, *c.chip_layout, offsets));
        r.stitch_s += stitch.seconds();
        chips_hash.add(std::span<const int>(r.chips.back().offsets));
        for (const geo::Polygon& p : r.chips.back().mask) {
            for (const geo::Point& v : p.vertices()) {
                chips_hash.add(static_cast<std::uint64_t>(static_cast<std::int64_t>(v.x)));
                chips_hash.add(static_cast<std::uint64_t>(static_cast<std::int64_t>(v.y)));
            }
        }
    }
    r.tiles.wall_s = wall.seconds();
    r.tiles.throughput_cps = r.tiles.ok() / r.tiles.wall_s;
    r.stitch_s /= static_cast<double>(s.chips.size());
    r.hash = hash_clips(r.tiles.clips) + chips_hash.hex();
    return r;
}

runtime::ClipOptimizer rule_optimizer() {
    return [](const geo::SegmentedLayout& layout, litho::LithoSim& sim, const opc::OpcOptions& o,
              std::uint64_t) {
        opc::RuleEngine engine;
        return engine.optimize(layout, sim, o);
    };
}

/// camo_cli shard --scenario metal24 runs on the scenario's 256 grid.
scenario::Scenario metal_scenario(const Args& args) {
    scenario::Scenario sc = scenario::Registry::instance().get("metal24");
    sc.seed = args.seed;
    sc.litho.cache_dir = args.cache_dir;
    return sc;
}

}  // namespace

Outcome run_metal_shard(const Args& args) {
    Outcome out;
    out.info["threads"] = std::to_string(bench_threads());
    // camo_cli shard --scenario metal24: a 512 nm tile with a 256 nm halo,
    // the scenario OPC protocol (5 iterations, unbiased start) and the rule
    // engine. Chip k's cells come from the scenario stream reseeded with
    // derive_seed(run seed, k).
    const scenario::Scenario sc = metal_scenario(args);
    opc::OpcOptions opc;
    opc.max_iterations = 5;
    opc.initial_bias_nm = 0;
    const runtime::BatchOptions bopt = batch_options(args, opc);
    layout::ShardOptions sopt;
    sopt.tile_nm = 512;
    sopt.halo_nm = 256;
    sopt.fragment = {geo::FragmentStyle::kMetal, 60};
    require_disk_cache(sc.litho);

    SetupTimes times;
    MetalSetup s = timed_setups(times, kMetalSetups, args.trace, [&](SetupTimes& t) {
        MetalSetup r;
        acquire_kernels_timed(sc.litho, t);
        double cut_s = 0.0;
        double frag_s = 0.0;
        for (int k = 0; k < kChips; ++k) {
            scenario::Scenario chip_sc = sc;
            chip_sc.seed = derive_seed(sc.seed, static_cast<std::uint64_t>(k));
            std::vector<geo::Polygon> chip =
                scenario::chip_polygons(chip_sc, kChipCells, kChipCells);
            Chip c;
            Timer cut;
            c.sharder = std::make_unique<layout::TileSharder>(std::move(chip), sopt, sc.litho);
            cut_s += cut.seconds();
            Timer frag;
            c.layouts = c.sharder->tile_layouts();
            c.chip_layout = std::make_unique<geo::SegmentedLayout>(c.sharder->chip_layout());
            frag_s += frag.seconds();
            c.names = c.sharder->tile_names();
            r.tiles.insert(r.tiles.end(), c.layouts.begin(), c.layouts.end());
            r.chips.push_back(std::move(c));
        }
        t.shard.push_back(cut_s);
        t.fragment.push_back(frag_s);
        r.sched = std::make_unique<runtime::BatchScheduler>(sc.litho, bopt);
        return r;
    });
    const runtime::ClipOptimizer optimize = rule_optimizer();
    out.info["tiles"] = std::to_string(s.tiles.size());

    // The barrier path (BatchScheduler::run, as --verify-monolithic runs it)
    // must stitch the first chip exactly as the stream did.
    const auto check_barrier = [&](const ChipRound& streamed) {
        const Chip& c = s.chips.front();
        const runtime::BatchResult ref = s.sched->run(c.layouts, optimize, c.names);
        std::vector<std::vector<int>> offsets(c.layouts.size());
        for (const runtime::ClipResult& tile : ref.clips) {
            if (tile.error.empty()) offsets[static_cast<std::size_t>(tile.index)] = tile.offsets;
        }
        const layout::StitchResult chip = layout::stitch(*c.sharder, *c.chip_layout, offsets);
        out.check(chip.offsets == streamed.chips.front().offsets &&
                      chip.mask == streamed.chips.front().mask,
                  "streamed stitch differs from the barrier stitch");
    };

    if (!args.trace) {
        Rounds rounds;
        std::optional<ChipRound> first;
        Timer t;
        do {
            ChipRound r = stream_chips(s, optimize);
            const std::string hash = r.hash;
            add_round(rounds, std::move(r.tiles), hash);
            if (!first) first = std::move(r);
        } while (t.seconds() < args.seconds);
        report_e2e(out, rounds, times);
        check_barrier(*first);
        check_dense(out, litho::LithoSim(sc.litho), bopt.opc, s.tiles, rounds.first.clips);
        return out;
    }

    set_tracing(false);
    zero_per_layer(out);
    set_setup_metrics(out, times, summarize_trace());
    std::vector<ChipRound> rounds;  // untraced, then traced
    const runtime::BatchResult base_tiles = traced_batch(out, [&] {
        rounds.push_back(stream_chips(s, optimize));
        return rounds.back().tiles;
    });
    const ChipRound& base = rounds.front();
    out.check(rounds.back().hash == base.hash, "traced chips differ from untraced");
    set_round_metrics(out, base_tiles, s.sched->threads());
    out.info["outputs_hash"] = base.hash;
    out.set("layout.stitch_ms", 1e3 * base.stitch_s, "ms");
    check_barrier(base);
    probe_litho(out, litho::LithoSim(sc.litho), s.tiles, base_tiles.clips);
    return out;
}

camo::litho::LithoConfig workload_litho(const Args& args) {
    if (args.workload == "metal-shard") return metal_scenario(args).litho;
    return via_litho(args.cache_dir);
}

}  // namespace perfbench
