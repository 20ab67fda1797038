#include "layers.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <future>

#include "common/timer.hpp"
#include "core/graph.hpp"
#include "litho/aerial.hpp"
#include "litho/incremental.hpp"
#include "litho/kernel_registry.hpp"
#include "litho/metrics.hpp"
#include "obs/trace.hpp"

namespace perfbench {
namespace {

using namespace camo;

bool starts_with(const char* s, const char* prefix) {
    return std::strncmp(s, prefix, std::strlen(prefix)) == 0;
}

std::string layer_of(const char* name) {
    if (starts_with(name, "litho.") || starts_with(name, "window.") ||
        starts_with(name, "kernels.")) {
        return "litho";
    }
    if (starts_with(name, "pb.core.") || starts_with(name, "train.")) return "core";
    if (starts_with(name, "batch.") || starts_with(name, "pool.")) return "runtime";
    if (starts_with(name, "shard.")) return "layout";
    return "other";
}

struct Event {
    const char* name = nullptr;
    long long start = 0;
    long long end = 0;
    int parent = -1;
    int root = -1;  ///< enclosing batch.clip span, or -1
    long long child_ns = 0;
    bool rebuilt = false;  ///< a litho.evaluate* span whose cache was rebuilt inside it
};

}  // namespace

const SpanStats& TraceSummary::get(const std::string& name) const {
    static const SpanStats kNone;
    const auto it = spans.find(name);
    return it == spans.end() ? kNone : it->second;
}

TraceSummary summarize_trace() {
    std::map<int, std::vector<Event>> by_tid;
    TraceSummary sum;
    sum.dropped = obs::detail::visit_trace_events(
        [&by_tid](int tid, const char* name, long long start, long long dur) {
            by_tid[tid].push_back(Event{name, start, start + dur});
        });

    std::vector<double> last_clip_end;
    for (auto& [tid, evs] : by_tid) {
        // Parents sort before the children they enclose.
        std::sort(evs.begin(), evs.end(), [](const Event& a, const Event& b) {
            return a.start != b.start ? a.start < b.start : a.end > b.end;
        });
        std::vector<int> stack;
        long long clip_end = -1;
        for (int i = 0; i < static_cast<int>(evs.size()); ++i) {
            Event& ev = evs[static_cast<std::size_t>(i)];
            while (!stack.empty() && (evs[static_cast<std::size_t>(stack.back())].end <= ev.start ||
                                      evs[static_cast<std::size_t>(stack.back())].end < ev.end)) {
                stack.pop_back();
            }
            ev.parent = stack.empty() ? -1 : stack.back();
            if (ev.parent >= 0) {
                Event& parent = evs[static_cast<std::size_t>(ev.parent)];
                parent.child_ns += ev.end - ev.start;
                ev.root = parent.root;
            }
            if (std::strcmp(ev.name, "batch.clip") == 0) {
                ev.root = i;
                clip_end = std::max(clip_end, ev.end);
            }
            if (std::strcmp(ev.name, "litho.incremental.rebuild") == 0) {
                for (int p = ev.parent; p >= 0; p = evs[static_cast<std::size_t>(p)].parent) {
                    if (starts_with(evs[static_cast<std::size_t>(p)].name, "litho.evaluate")) {
                        evs[static_cast<std::size_t>(p)].rebuilt = true;
                        break;
                    }
                }
            }
            if (std::strcmp(ev.name, "litho.evaluate") == 0) ev.rebuilt = true;  // dense path
            stack.push_back(i);
        }
        if (clip_end >= 0) last_clip_end.push_back(static_cast<double>(clip_end) * 1e-9);

        for (int i = 0; i < static_cast<int>(evs.size()); ++i) {
            const Event& ev = evs[static_cast<std::size_t>(i)];
            const double dur = static_cast<double>(ev.end - ev.start) * 1e-9;
            SpanStats& st = sum.spans[ev.name];
            ++st.count;
            st.total_s += dur;
            if (ev.rebuilt) {
                sum.eval_full_s += dur;
                ++sum.eval_full_count;
            }
            if (ev.root < 0) continue;
            if (ev.root == i) {
                sum.worker_s += dur;
                sum.covered_s += static_cast<double>(ev.child_ns) * 1e-9;
                continue;
            }
            sum.layer_self_s[layer_of(ev.name)] += dur - static_cast<double>(ev.child_ns) * 1e-9;
        }
    }
    if (!last_clip_end.empty()) {
        const auto [lo, hi] = std::minmax_element(last_clip_end.begin(), last_clip_end.end());
        sum.straggler_s = *hi - *lo;
    }
    return sum;
}

const std::vector<std::pair<std::string, std::string>>& per_layer_metrics() {
    static const std::vector<std::pair<std::string, std::string>> kMetrics = {
        {"litho.kernel_acquire_s", "s"},   {"litho.kernel_builds", "count"},
        {"litho.kernel_cache_loads", "count"},
        {"litho.evals", "count"},          {"litho.full_evals", "count"},
        {"litho.sparse_evals", "count"},   {"litho.unchanged_evals", "count"},
        {"litho.eval_full_ms", "ms"},      {"litho.rebuild_ms", "ms"},
        {"litho.delta_dft_ms", "ms"},      {"litho.window_planes", "count"},
        {"litho.window_plane_ms", "ms"},   {"litho.eval_share", "ratio"},
        {"litho.rasterize_ms", "ms"},      {"litho.fft_ms", "ms"},
        {"litho.aerial_ms", "ms"},         {"litho.metrics_ms", "ms"},
        {"litho.self_share", "ratio"},
        {"core.graph_build_ms", "ms"},     {"core.squish_encode_ms", "ms"},
        {"core.policy_forward_ms", "ms"},  {"core.policy_calls", "count"},
        {"core.modulator_us", "us"},       {"core.collect_s", "s"},
        {"core.phase1_epoch_s", "s"},      {"core.reduce_s", "s"},
        {"core.self_share", "ratio"},
        {"train_s", "s"},                  {"phase1_nll", "nats"},
        {"nn.forward_ms", "ms"},           {"nn.backward_ms", "ms"},
        {"opc.iterations_per_clip", "count"}, {"opc.self_share", "ratio"},
        {"runtime.busy_share", "ratio"},   {"runtime.straggler_s", "s"},
        {"layout.shard_ms", "ms"},         {"layout.stitch_ms", "ms"},
        {"geometry.fragment_ms", "ms"},
        {"obs.trace_overhead", "ratio"},   {"trace.coverage", "ratio"},
    };
    return kMetrics;
}

void zero_per_layer(Outcome& out) {
    for (const auto& [name, unit] : per_layer_metrics()) out.set(name, 0.0, unit);
}

std::vector<std::size_t> sample_indices(std::size_t n, std::size_t count) {
    std::vector<std::size_t> out;
    const std::size_t k = std::min(n, count);
    for (std::size_t i = 0; i < k; ++i) out.push_back(i * n / k);
    return out;
}

void probe_litho(Outcome& out, const litho::LithoSim& sim,
                 const std::vector<geo::SegmentedLayout>& layouts,
                 const std::vector<runtime::ClipResult>& clips) {
    const litho::LithoConfig& cfg = sim.config();
    const litho::SharedKernels kernels = litho::acquire_kernels(cfg);
    std::vector<double> raster_ms;
    std::vector<double> fft_ms;
    std::vector<double> aerial_ms;
    std::vector<double> metrics_ms;
    for (std::size_t i : sample_indices(clips.size(), 8)) {
        const runtime::ClipResult& c = clips[i];
        const geo::SegmentedLayout& layout = layouts[static_cast<std::size_t>(c.index)];
        Timer t;
        const std::vector<geo::Polygon> polys = layout.reconstruct_mask(c.offsets);
        const geo::Raster mask = sim.rasterize(polys, layout.srafs(), layout.clip_size_nm());
        raster_ms.push_back(1e3 * t.seconds());
        t.reset();
        const std::vector<litho::Complex> spectrum = litho::mask_spectrum(mask);
        fft_ms.push_back(1e3 * t.seconds());
        t.reset();
        const geo::Raster nom = kernels.nominal->apply(spectrum, cfg.pixel_nm);
        const geo::Raster def = kernels.defocus->apply(spectrum, cfg.pixel_nm);
        aerial_ms.push_back(0.5e3 * t.seconds());  // per focus plane
        t.reset();
        const litho::SimMetrics m = litho::compute_sim_metrics(
            layout, nom, def, sim.threshold(), sim.clip_offset_nm(layout.clip_size_nm()),
            cfg.epe_range_nm, cfg.dose_min, cfg.dose_max);
        metrics_ms.push_back(1e3 * t.seconds());

        const litho::SimMetrics ref = sim.evaluate(layout, c.offsets);
        out.check(m.epe == ref.epe && m.sum_abs_epe == ref.sum_abs_epe &&
                      m.pvband_nm2 == ref.pvband_nm2,
                  "litho probe stages do not reassemble LithoSim::evaluate on clip " + c.name);
    }
    out.set("litho.rasterize_ms", median(raster_ms), "ms");
    out.set("litho.fft_ms", median(fft_ms), "ms");
    out.set("litho.aerial_ms", median(aerial_ms), "ms");
    out.set("litho.metrics_ms", median(metrics_ms), "ms");
}

void probe_nn(Outcome& out, const core::CamoEngine& engine,
              const std::vector<geo::SegmentedLayout>& layouts, int initial_bias_nm) {
    const core::CamoConfig& cfg = engine.config();
    core::PolicyNetwork net(cfg.policy);
    std::vector<double> fwd_ms;
    std::vector<double> bwd_ms;
    for (int rep = 0; rep < 2; ++rep) {
        for (const geo::SegmentedLayout& layout : layouts) {
            if (layout.num_segments() == 0) continue;
            const std::vector<int> offsets(static_cast<std::size_t>(layout.num_segments()),
                                           initial_bias_nm);
            const std::vector<nn::Tensor> feats = engine.encode_state(layout, offsets);
            const core::Graph graph = core::build_segment_graph(layout, cfg.graph_threshold_nm);
            Timer t;
            const nn::Tensor logits = net.forward(feats, graph);
            fwd_ms.push_back(1e3 * t.seconds());
            nn::Tensor dlogits({logits.dim(0), logits.dim(1)});
            dlogits.fill(1e-3F);
            t.reset();
            net.backward(dlogits);
            bwd_ms.push_back(1e3 * t.seconds());
        }
    }
    out.set("nn.forward_ms", median(fwd_ms), "ms");
    out.set("nn.backward_ms", median(bwd_ms), "ms");
}

void check_dense(Outcome& out, const litho::LithoSim& sim, const opc::OpcOptions& opc,
                 const std::vector<geo::SegmentedLayout>& layouts,
                 const std::vector<runtime::ClipResult>& clips) {
    const bool worst = opc.objective == rl::RewardMode::kWorstCorner;
    if (!worst && opc.objective != rl::RewardMode::kNominal) {
        throw std::logic_error("check_dense: only nominal and worst-corner objectives");
    }
    const litho::WindowSpec spec = opc.window.doses.empty() && opc.window.defocus_nm.empty()
                                       ? litho::WindowSpec::standard(sim.config())
                                       : opc.window;
    const double pixel_area = sim.config().pixel_nm * sim.config().pixel_nm;
    // The incremental path's contract: EPE within kIncrementalEpeTolNm per
    // point, PV band within kIncrementalPvbPixelSlack pixels per image pair.
    const double pvb_tol = litho::kIncrementalPvbPixelSlack * pixel_area *
                           (worst ? std::max(1, spec.corner_count() / 2) : 1);

    std::vector<std::future<std::string>> jobs;
    for (std::size_t i : sample_indices(clips.size(), 8)) {
        jobs.push_back(std::async(std::launch::async, [&, i]() -> std::string {
            const runtime::ClipResult& c = clips[i];
            if (!c.error.empty()) return "";  // counted as failed already
            const geo::SegmentedLayout& layout = layouts[static_cast<std::size_t>(c.index)];
            double epe = 0.0;
            double pvb = 0.0;
            std::size_t points = 0;
            if (worst) {
                const litho::WindowMetrics wm = sim.evaluate_window(layout, c.offsets, spec);
                epe = wm.worst_epe;
                pvb = wm.pv_band_exact_nm2;
                points = wm.corners.empty() ? 0 : wm.corners.front().metrics.epe.size();
            } else {
                const litho::SimMetrics m = sim.evaluate(layout, c.offsets);
                epe = m.sum_abs_epe;
                pvb = m.pvband_nm2;
                points = m.epe.size();
            }
            const double epe_tol = litho::kIncrementalEpeTolNm * static_cast<double>(points) + 1e-9;
            if (std::abs(epe - c.final_epe) > epe_tol || std::abs(pvb - c.pvband_nm2) > pvb_tol ||
                !std::isfinite(c.final_epe) || !std::isfinite(c.pvband_nm2)) {
                char buf[256];
                std::snprintf(buf, sizeof buf,
                              "clip %s: engine EPE %.6f / PVB %.1f vs dense %.6f / %.1f",
                              c.name.c_str(), c.final_epe, c.pvband_nm2, epe, pvb);
                return buf;
            }
            return "";
        }));
    }
    for (auto& j : jobs) {
        const std::string err = j.get();
        if (!err.empty()) out.fail("dense re-evaluation mismatch: " + err);
    }
}

}  // namespace perfbench
