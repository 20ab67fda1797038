#include "core/policy.hpp"

#include <cmath>
#include <cstring>
#include <stdexcept>

#include "nn/activations.hpp"
#include "nn/backend.hpp"
#include "nn/serialize.hpp"
#include "rl/trajectory.hpp"

namespace camo::core {

/// Weights repacked for the inference backend (nn/backend.hpp). Rebuilt
/// whenever weights_version_ moves past the version it was packed at.
struct InferencePlan {
    std::uint64_t version = 0;
    nn::PackedConv2d conv1, conv2, conv3;
    nn::PackedLinear fc;    // flat -> embed
    nn::PackedLinear sage;  // 2*embed -> embed (use_gnn only)
    struct RnnCell {
        nn::PackedLinear u;  // carries the cell bias
        nn::PackedLinear w;  // hidden recurrence, bias-free (accumulate-only)
    };
    std::vector<RnnCell> rnn;
    nn::PackedLinear proj;  // embed -> hidden (no-RNN path only)
    nn::PackedLinear head;  // hidden -> 5
};

namespace {

int conv_out_size(int s) { return s / 8; }  // three stride-2 stages

// Same arithmetic as nn::ReLU::forward (max with +0.0F), applied in place.
void relu_inplace(float* p, std::size_t n) {
    for (std::size_t i = 0; i < n; ++i) p[i] = p[i] > 0.0F ? p[i] : 0.0F;
}

}  // namespace

PolicyNetwork::PolicyNetwork(const PolicyConfig& cfg)
    : cfg_(cfg), rng_(cfg.seed), head_(cfg.rnn_hidden, rl::kNumActions, rng_) {
    const int c1 = cfg_.conv_base;
    cnn_.emplace<nn::Conv2d>(6, c1, 3, 2, 1, rng_);
    cnn_.emplace<nn::ReLU>();
    cnn_.emplace<nn::Conv2d>(c1, c1 * 2, 3, 2, 1, rng_);
    cnn_.emplace<nn::ReLU>();
    cnn_.emplace<nn::Conv2d>(c1 * 2, c1 * 4, 3, 2, 1, rng_);
    cnn_.emplace<nn::ReLU>();

    const int flat = c1 * 4 * conv_out_size(cfg_.squish_size) * conv_out_size(cfg_.squish_size);
    cnn_.emplace<nn::Linear>(flat, cfg_.embed_dim, rng_);
    cnn_.emplace<nn::ReLU>();

    if (cfg_.use_gnn) {
        sage_ = std::make_unique<nn::Sequential>();
        sage_->emplace<nn::Linear>(2 * cfg_.embed_dim, cfg_.embed_dim, rng_);
        sage_->emplace<nn::ReLU>();
    }
    if (cfg_.use_rnn) {
        rnn_ = std::make_unique<nn::Rnn>(cfg_.embed_dim, cfg_.rnn_hidden, cfg_.rnn_layers, rng_);
    } else {
        proj_ = std::make_unique<nn::Sequential>();
        proj_->emplace<nn::Linear>(cfg_.embed_dim, cfg_.rnn_hidden, rng_);
        proj_->emplace<nn::ReLU>();
    }
}

nn::Tensor PolicyNetwork::forward(const std::vector<nn::Tensor>& features, const Graph& graph) {
    cache_ = Cache{};
    return run_forward(features, graph, cache_);
}

std::shared_ptr<const InferencePlan> PolicyNetwork::ensure_plan() const {
    const std::uint64_t version = weights_version_.load(std::memory_order_acquire);
    std::lock_guard<std::mutex> lock(plan_mu_);
    if (plan_ && plan_->version == version) return plan_;

    auto plan = std::make_shared<InferencePlan>();
    plan->version = version;
    plan->conv1 = nn::pack_conv2d(dynamic_cast<const nn::Conv2d&>(cnn_.layer(0)));
    plan->conv2 = nn::pack_conv2d(dynamic_cast<const nn::Conv2d&>(cnn_.layer(2)));
    plan->conv3 = nn::pack_conv2d(dynamic_cast<const nn::Conv2d&>(cnn_.layer(4)));
    plan->fc = nn::pack_linear(dynamic_cast<const nn::Linear&>(cnn_.layer(6)));
    if (sage_) plan->sage = nn::pack_linear(dynamic_cast<const nn::Linear&>(sage_->layer(0)));
    if (rnn_) {
        plan->rnn.reserve(static_cast<std::size_t>(rnn_->num_layers()));
        for (int l = 0; l < rnn_->num_layers(); ++l) {
            plan->rnn.push_back({nn::pack_linear(rnn_->u(l).value, &rnn_->b(l).value),
                                 nn::pack_linear(rnn_->w(l).value, nullptr)});
        }
    }
    if (proj_) plan->proj = nn::pack_linear(dynamic_cast<const nn::Linear&>(proj_->layer(0)));
    plan->head = nn::pack_linear(head_);
    plan_ = plan;
    return plan;
}

nn::Tensor PolicyNetwork::infer(const std::vector<nn::Tensor>& features,
                                const Graph& graph) const {
    const int n = static_cast<int>(features.size());
    if (n == 0) throw std::invalid_argument("PolicyNetwork: empty node set");
    if (graph.n != n) throw std::invalid_argument("PolicyNetwork: graph/feature size mismatch");

    const std::shared_ptr<const InferencePlan> plan = ensure_plan();
    const nn::Backend& be = nn::active_backend();
    const int S = cfg_.squish_size;
    const std::size_t rows = static_cast<std::size_t>(n);
    const std::size_t embed = static_cast<std::size_t>(cfg_.embed_dim);
    const std::size_t hidden = static_cast<std::size_t>(cfg_.rnn_hidden);

    // Stage 1: shared CNN encoder per node (conv chain is per-sample), then
    // the flatten->embed projection as ONE GEMM over all nodes.
    const int s1 = plan->conv1.out_size(S);
    const int s2 = plan->conv2.out_size(s1);
    const int s3 = plan->conv3.out_size(s2);
    const std::size_t flat = static_cast<std::size_t>(plan->conv3.out_ch) *
                             static_cast<std::size_t>(s3) * static_cast<std::size_t>(s3);
    if (flat != static_cast<std::size_t>(plan->fc.in)) {
        throw std::logic_error("PolicyNetwork::infer: plan geometry mismatch");
    }
    std::vector<float> b1(static_cast<std::size_t>(plan->conv1.out_ch) *
                          static_cast<std::size_t>(s1) * static_cast<std::size_t>(s1));
    std::vector<float> b2(static_cast<std::size_t>(plan->conv2.out_ch) *
                          static_cast<std::size_t>(s2) * static_cast<std::size_t>(s2));
    std::vector<float> flats(rows * flat);
    for (std::size_t i = 0; i < rows; ++i) {
        const nn::Tensor& f = features[i];
        if (f.rank() != 3 || f.dim(0) != plan->conv1.in_ch || f.dim(1) != S || f.dim(2) != S) {
            throw std::invalid_argument("PolicyNetwork: bad squish feature shape");
        }
        float* out = flats.data() + i * flat;
        be.conv2d(plan->conv1, f.data().data(), S, S, b1.data());
        relu_inplace(b1.data(), b1.size());
        be.conv2d(plan->conv2, b1.data(), s1, s1, b2.data());
        relu_inplace(b2.data(), b2.size());
        be.conv2d(plan->conv3, b2.data(), s2, s2, out);
        relu_inplace(out, flat);
    }
    std::vector<float> embeds(rows * embed);
    be.linear(plan->fc, flats.data(), n, embeds.data());
    relu_inplace(embeds.data(), embeds.size());

    // Stage 2: GraphSAGE fusion — the concatenation and neighbour mean are
    // built exactly as the tape forward does (same accumulation order), the
    // 2*embed -> embed projection is one GEMM.
    std::vector<float> fused;
    const float* fused_ptr = embeds.data();
    if (cfg_.use_gnn) {
        std::vector<float> cat(rows * 2 * embed, 0.0F);
        for (std::size_t i = 0; i < rows; ++i) {
            float* crow = cat.data() + i * 2 * embed;
            std::memcpy(crow, embeds.data() + i * embed, embed * sizeof(float));
            const auto& nbrs = graph.neighbors[i];
            if (nbrs.empty()) continue;
            const float inv = 1.0F / static_cast<float>(nbrs.size());
            for (int j : nbrs) {
                const float* ej = embeds.data() + static_cast<std::size_t>(j) * embed;
                for (std::size_t d = 0; d < embed; ++d) crow[embed + d] += inv * ej[d];
            }
        }
        fused.resize(rows * embed);
        be.linear(plan->sage, cat.data(), n, fused.data());
        relu_inplace(fused.data(), fused.size());
        fused_ptr = fused.data();
    }

    // Stage 3: sequential decision context. The RNN recurrence is inherently
    // per-step; the input contribution U x_t + b is one GEMM over the whole
    // sequence, then the recurrence W h_{t-1} resumes each row's accumulator
    // (bit-identical to the tape cell's single fused sum under the scalar
    // backend).
    std::vector<float> ctx;
    if (cfg_.use_rnn) {
        ctx.assign(fused_ptr, fused_ptr + rows * embed);
        for (const InferencePlan::RnnCell& cell : plan->rnn) {
            std::vector<float> h(rows * hidden);
            be.linear(cell.u, ctx.data(), n, h.data());
            for (std::size_t t = 0; t < rows; ++t) {
                float* ht = h.data() + t * hidden;
                if (t > 0) be.linear_acc(cell.w, ht - hidden, 1, ht);
                for (std::size_t d = 0; d < hidden; ++d) ht[d] = std::tanh(ht[d]);
            }
            ctx = std::move(h);
        }
    } else {
        ctx.resize(rows * hidden);
        be.linear(plan->proj, fused_ptr, n, ctx.data());
        relu_inplace(ctx.data(), ctx.size());
    }

    // Stage 4: the action head as one GEMM straight into the logits.
    nn::Tensor logits({n, rl::kNumActions});
    be.linear(plan->head, ctx.data(), n, logits.data().data());
    return logits;
}

nn::Tensor PolicyNetwork::run_forward(const std::vector<nn::Tensor>& features,
                                      const Graph& graph, Cache& cache) const {
    const int n = static_cast<int>(features.size());
    if (n == 0) throw std::invalid_argument("PolicyNetwork: empty node set");
    if (graph.n != n) throw std::invalid_argument("PolicyNetwork: graph/feature size mismatch");

    cache.graph = graph;
    cache.n = n;
    cache.cnn_tapes.resize(static_cast<std::size_t>(n));
    cache.embeds.resize(static_cast<std::size_t>(n));
    cache.head_tapes.resize(static_cast<std::size_t>(n));

    // Shared CNN encoder per node. The flatten is a pure reshape.
    for (int i = 0; i < n; ++i) {
        const nn::Tensor& f = features[static_cast<std::size_t>(i)];
        cache.embeds[static_cast<std::size_t>(i)] =
            cnn_.forward(f, cache.cnn_tapes[static_cast<std::size_t>(i)]);
    }

    // GraphSAGE: h_i = ReLU(W [e_i ; mean_{j in N(i)} e_j]).
    std::vector<nn::Tensor> fused(static_cast<std::size_t>(n));
    if (cfg_.use_gnn) {
        cache.sage_tapes.resize(static_cast<std::size_t>(n));
        for (int i = 0; i < n; ++i) {
            nn::Tensor cat({2 * cfg_.embed_dim});
            const auto& e = cache.embeds[static_cast<std::size_t>(i)];
            for (int d = 0; d < cfg_.embed_dim; ++d) cat[static_cast<std::size_t>(d)] = e[static_cast<std::size_t>(d)];
            const auto& nbrs = graph.neighbors[static_cast<std::size_t>(i)];
            if (!nbrs.empty()) {
                const float inv = 1.0F / static_cast<float>(nbrs.size());
                for (int j : nbrs) {
                    const auto& ej = cache.embeds[static_cast<std::size_t>(j)];
                    for (int d = 0; d < cfg_.embed_dim; ++d) {
                        cat[static_cast<std::size_t>(cfg_.embed_dim + d)] += inv * ej[static_cast<std::size_t>(d)];
                    }
                }
            }
            fused[static_cast<std::size_t>(i)] =
                sage_->forward(cat, cache.sage_tapes[static_cast<std::size_t>(i)]);
        }
    } else {
        for (int i = 0; i < n; ++i) fused[static_cast<std::size_t>(i)] = cache.embeds[static_cast<std::size_t>(i)].reshaped({cfg_.embed_dim});
    }

    // Sequential decision context.
    std::vector<nn::Tensor> ctx(static_cast<std::size_t>(n));
    if (cfg_.use_rnn) {
        nn::Tensor seq({n, cfg_.embed_dim});
        for (int i = 0; i < n; ++i) {
            for (int d = 0; d < cfg_.embed_dim; ++d) {
                seq.at(i, d) = fused[static_cast<std::size_t>(i)][static_cast<std::size_t>(d)];
            }
        }
        const nn::Tensor hidden = rnn_->forward(seq, cache.rnn_tape);
        for (int i = 0; i < n; ++i) {
            nn::Tensor h({cfg_.rnn_hidden});
            for (int d = 0; d < cfg_.rnn_hidden; ++d) h[static_cast<std::size_t>(d)] = hidden.at(i, d);
            ctx[static_cast<std::size_t>(i)] = std::move(h);
        }
    } else {
        cache.proj_tapes.resize(static_cast<std::size_t>(n));
        for (int i = 0; i < n; ++i) {
            ctx[static_cast<std::size_t>(i)] = proj_->forward(
                fused[static_cast<std::size_t>(i)], cache.proj_tapes[static_cast<std::size_t>(i)]);
        }
    }

    nn::Tensor logits({n, rl::kNumActions});
    for (int i = 0; i < n; ++i) {
        const nn::Tensor o =
            head_.forward(ctx[static_cast<std::size_t>(i)], cache.head_tapes[static_cast<std::size_t>(i)]);
        for (int a = 0; a < rl::kNumActions; ++a) logits.at(i, a) = o[static_cast<std::size_t>(a)];
    }
    cache.valid = true;
    return logits;
}

void PolicyNetwork::backward(const nn::Tensor& dlogits) {
    if (!cache_.valid) throw std::logic_error("PolicyNetwork::backward without forward");
    const int n = cache_.n;

    // Head backward per node.
    std::vector<nn::Tensor> dctx(static_cast<std::size_t>(n));
    for (int i = 0; i < n; ++i) {
        nn::Tensor g({rl::kNumActions});
        for (int a = 0; a < rl::kNumActions; ++a) g[static_cast<std::size_t>(a)] = dlogits.at(i, a);
        dctx[static_cast<std::size_t>(i)] =
            head_.backward(g, cache_.head_tapes[static_cast<std::size_t>(i)]);
    }

    // RNN (or projection) backward.
    std::vector<nn::Tensor> dfused(static_cast<std::size_t>(n));
    if (cfg_.use_rnn) {
        nn::Tensor gseq({n, cfg_.rnn_hidden});
        for (int i = 0; i < n; ++i) {
            for (int d = 0; d < cfg_.rnn_hidden; ++d) {
                gseq.at(i, d) = dctx[static_cast<std::size_t>(i)][static_cast<std::size_t>(d)];
            }
        }
        const nn::Tensor gx = rnn_->backward(gseq, cache_.rnn_tape);
        for (int i = 0; i < n; ++i) {
            nn::Tensor g({cfg_.embed_dim});
            for (int d = 0; d < cfg_.embed_dim; ++d) g[static_cast<std::size_t>(d)] = gx.at(i, d);
            dfused[static_cast<std::size_t>(i)] = std::move(g);
        }
    } else {
        for (int i = 0; i < n; ++i) {
            dfused[static_cast<std::size_t>(i)] = proj_->backward(
                dctx[static_cast<std::size_t>(i)], cache_.proj_tapes[static_cast<std::size_t>(i)]);
        }
    }

    // SAGE backward: distribute into d(embeds).
    std::vector<nn::Tensor> dembed(static_cast<std::size_t>(n));
    for (int i = 0; i < n; ++i) dembed[static_cast<std::size_t>(i)] = nn::Tensor({cfg_.embed_dim});
    if (cfg_.use_gnn) {
        for (int i = n - 1; i >= 0; --i) {
            const nn::Tensor gcat = sage_->backward(dfused[static_cast<std::size_t>(i)],
                                                    cache_.sage_tapes[static_cast<std::size_t>(i)]);
            for (int d = 0; d < cfg_.embed_dim; ++d) {
                dembed[static_cast<std::size_t>(i)][static_cast<std::size_t>(d)] += gcat[static_cast<std::size_t>(d)];
            }
            const auto& nbrs = cache_.graph.neighbors[static_cast<std::size_t>(i)];
            if (!nbrs.empty()) {
                const float inv = 1.0F / static_cast<float>(nbrs.size());
                for (int j : nbrs) {
                    for (int d = 0; d < cfg_.embed_dim; ++d) {
                        dembed[static_cast<std::size_t>(j)][static_cast<std::size_t>(d)] +=
                            inv * gcat[static_cast<std::size_t>(cfg_.embed_dim + d)];
                    }
                }
            }
        }
    } else {
        for (int i = 0; i < n; ++i) dembed[static_cast<std::size_t>(i)] = std::move(dfused[static_cast<std::size_t>(i)]);
    }

    // Shared CNN backward per node (gradients accumulate in the weights).
    for (int i = n - 1; i >= 0; --i) {
        (void)cnn_.backward(dembed[static_cast<std::size_t>(i)],
                            cache_.cnn_tapes[static_cast<std::size_t>(i)]);
    }
    cache_.valid = false;
}

std::vector<nn::Parameter*> PolicyNetwork::params() {
    // Handing out mutable parameter pointers (optimizers, trainers) may be
    // followed by in-place weight updates the plan cache cannot observe;
    // conservatively invalidate so the next infer() repacks.
    invalidate_plan();
    std::vector<nn::Parameter*> out = cnn_.params();
    if (sage_) {
        auto p = sage_->params();
        out.insert(out.end(), p.begin(), p.end());
    }
    if (rnn_) {
        auto p = rnn_->params();
        out.insert(out.end(), p.begin(), p.end());
    }
    if (proj_) {
        auto p = proj_->params();
        out.insert(out.end(), p.begin(), p.end());
    }
    auto p = head_.params();
    out.insert(out.end(), p.begin(), p.end());
    return out;
}

void PolicyNetwork::copy_weights_from(PolicyNetwork& src) {
    const auto dst_params = params();
    const auto src_params = src.params();
    if (dst_params.size() != src_params.size()) {
        throw std::invalid_argument("PolicyNetwork::copy_weights_from: architecture mismatch");
    }
    for (std::size_t i = 0; i < dst_params.size(); ++i) {
        if (dst_params[i]->value.shape() != src_params[i]->value.shape()) {
            throw std::invalid_argument(
                "PolicyNetwork::copy_weights_from: parameter shape mismatch");
        }
        dst_params[i]->value = src_params[i]->value;
    }
    invalidate_plan();
}

void PolicyNetwork::save(const std::string& path) { nn::save_params(path, params()); }

bool PolicyNetwork::load(const std::string& path) {
    const bool ok = nn::load_params(path, params());
    // Repack eagerly on a successful load: a freshly deserialized network is
    // (in the serving paths) about to run inference, and packing here keeps
    // the first infer() call's latency flat.
    if (ok) (void)ensure_plan();
    return ok;
}

}  // namespace camo::core
