#include "mirror.hpp"

#include <algorithm>

#include "common/timer.hpp"
#include "core/graph.hpp"
#include "core/modulator.hpp"
#include "nn/softmax.hpp"
#include "obs/trace.hpp"
#include "opc/objective.hpp"

namespace perfbench {
namespace {

using namespace camo;

// Offsets move by `moves`, clamped to +/- bound; returns the indices that
// changed (the dirty set CamoEngine passes to the objective).
std::vector<int> apply_moves(std::vector<int>& offsets, const std::vector<int>& moves,
                             int bound) {
    std::vector<int> dirty;
    for (std::size_t i = 0; i < offsets.size(); ++i) {
        const int next = std::clamp(offsets[i] + moves[i], -bound, bound);
        if (next != offsets[i]) {
            offsets[i] = next;
            dirty.push_back(static_cast<int>(i));
        }
    }
    return dirty;
}

// Per-node softmax of the logits, modulated by the node's EPE, argmax.
// Returns the per-segment move (action - 2).
std::vector<int> modulated_argmax_moves(const nn::Tensor& logits,
                                        const std::vector<double>& epe_segment,
                                        const core::ModulatorConfig& mod) {
    const int n = logits.dim(0);
    std::vector<int> moves(static_cast<std::size_t>(n), 0);
    for (int i = 0; i < n; ++i) {
        std::array<float, rl::kNumActions> row{};
        for (std::size_t a = 0; a < row.size(); ++a) row[a] = logits.at(i, static_cast<int>(a));
        const std::vector<float> p = nn::softmax(std::span<const float>(row.data(), row.size()));
        std::array<double, rl::kNumActions> probs{};
        for (std::size_t a = 0; a < probs.size(); ++a) probs[a] = p[a];
        probs = core::modulate_probs(probs, epe_segment[static_cast<std::size_t>(i)], mod);
        const int action =
            static_cast<int>(std::max_element(probs.begin(), probs.end()) - probs.begin());
        moves[static_cast<std::size_t>(i)] = rl::action_to_move(action);
    }
    return moves;
}

}  // namespace

opc::EngineResult traced_camo_infer(core::CamoEngine& engine, const geo::SegmentedLayout& layout,
                                    litho::LithoSim& sim, const opc::OpcOptions& opt) {
    Timer timer;
    opc::EngineResult res;
    const core::CamoConfig& cfg = engine.config();
    const opc::WindowObjective objective(opt, sim.config(), cfg.reward);
    core::Graph graph;
    {
        const obs::Span span("pb.core.graph_build");
        graph = core::build_segment_graph(layout, cfg.graph_threshold_nm);
    }
    std::vector<int> offsets(static_cast<std::size_t>(layout.num_segments()), opt.initial_bias_nm);
    litho::SimMetrics m = objective.prime(sim, layout, offsets, &res.final_window);
    res.epe_history.push_back(m.sum_abs_epe);
    res.pvb_history.push_back(m.pvband_nm2);

    const int features = static_cast<int>(layout.targets().size());
    const int points = static_cast<int>(m.epe.size());
    const int steps = layout.num_segments() > 0 ? opt.max_iterations : 0;
    for (int it = 0; it < steps; ++it) {
        if (opc::should_exit_early(m.sum_abs_epe, features, points, opt)) break;
        std::vector<nn::Tensor> feats;
        {
            const obs::Span span("pb.core.squish_encode");
            feats = engine.encode_state(layout, offsets);
        }
        nn::Tensor logits;
        {
            const obs::Span span("pb.core.policy_forward");
            logits = engine.policy().infer(feats, graph);
        }
        std::vector<int> moves;
        {
            const obs::Span span("pb.core.modulator");
            moves = modulated_argmax_moves(logits, m.epe_segment, cfg.modulator);
        }
        const std::vector<int> dirty = apply_moves(offsets, moves, opt.max_total_offset_nm);
        m = objective.evaluate(sim, layout, offsets, dirty, &res.final_window);
        res.epe_history.push_back(m.sum_abs_epe);
        res.pvb_history.push_back(m.pvband_nm2);
        ++res.iterations;
    }
    res.final_offsets = std::move(offsets);
    res.final_metrics = std::move(m);
    res.runtime_s = timer.seconds();
    return res;
}

}  // namespace perfbench
