// CAMO's correlation-aware policy network (paper Section 3.2).
//
// Per node (segment): a shared CNN encodes the [6,S,S] squish tensor into a
// 256-d feature. A GraphSAGE step fuses each node's feature with the mean
// of its graph neighbours' features (capturing spatial correlation among
// nearby segments). A 3-layer Elman RNN then sweeps the node sequence so
// each decision is conditioned on the segments already processed, and a
// final 64x5 linear head emits movement logits.
//
// The RL-OPC baseline [12] is this same class with use_gnn = use_rnn =
// false: per-segment independent decisions from local features only.
#pragma once

#include <atomic>
#include <memory>
#include <mutex>
#include <string>

#include "common/rng.hpp"
#include "core/graph.hpp"
#include "nn/conv2d.hpp"
#include "nn/linear.hpp"
#include "nn/rnn.hpp"
#include "nn/sequential.hpp"

namespace camo::core {

/// Packed-weight inference plan (built lazily from the current weights; see
/// policy.cpp). Opaque here so policy.hpp stays free of backend headers.
struct InferencePlan;

struct PolicyConfig {
    int squish_size = 32;  ///< S; paper uses 128 (via) / 64 (metal)
    int embed_dim = 256;   ///< GNN output and RNN input width (paper: 256)
    int rnn_hidden = 64;   ///< paper: 64
    int rnn_layers = 3;    ///< paper: 3
    int conv_base = 8;     ///< first conv width; doubles per stage
    bool use_gnn = true;
    bool use_rnn = true;
    std::uint64_t seed = 1;
};

class PolicyNetwork {
public:
    explicit PolicyNetwork(const PolicyConfig& cfg);

    /// Forward the whole node set; features[i] is node i's [6,S,S] squish
    /// tensor. Returns logits [n, 5]. Caches activations for one backward.
    nn::Tensor forward(const std::vector<nn::Tensor>& features, const Graph& graph);

    /// Inference-only forward through the packed-weight backend
    /// (nn::backend.hpp): weights are repacked once per version into blocked
    /// SIMD layouts and the forward runs through the active kernel table.
    /// The CNN/SAGE/head matmuls run as one multi-row GEMM over the node set
    /// (the RNN stays sequential).
    /// Under the scalar backend (CAMO_BACKEND=scalar) the result is bitwise
    /// identical to forward(); under a vector backend it differs by ULP
    /// rounding only. Thread-safe on a const (frozen) network. No backward()
    /// may follow.
    [[nodiscard]] nn::Tensor infer(const std::vector<nn::Tensor>& features,
                                   const Graph& graph) const;

    /// Invalidate the cached packed-weight plan after an out-of-band weight
    /// mutation (e.g. an optimizer step through pointers obtained earlier
    /// from params()). Cheap: the next infer() rebuilds lazily.
    void invalidate_plan() { weights_version_.fetch_add(1, std::memory_order_release); }

    /// Backward from d(logits) [n, 5]; accumulates parameter gradients.
    /// Must follow the matching forward().
    void backward(const nn::Tensor& dlogits);

    std::vector<nn::Parameter*> params();

    /// Copy `src`'s parameter values into this network (architectures must
    /// match). Used by the data-parallel trainer to sync per-worker replicas
    /// with the master weights before each minibatch wave; gradients are
    /// left untouched.
    void copy_weights_from(PolicyNetwork& src);

    void save(const std::string& path);
    [[nodiscard]] bool load(const std::string& path);

    [[nodiscard]] const PolicyConfig& config() const { return cfg_; }

private:
    PolicyConfig cfg_;
    Rng rng_;

    nn::Sequential cnn_;                    // shared encoder -> embed_dim
    std::unique_ptr<nn::Sequential> sage_;  // Linear(2*embed -> embed) + ReLU
    std::unique_ptr<nn::Rnn> rnn_;          // embed -> rnn_hidden
    std::unique_ptr<nn::Sequential> proj_;  // no-RNN path: embed -> rnn_hidden
    nn::Linear head_;                       // rnn_hidden -> 5

    struct Cache {
        Graph graph;
        std::vector<nn::Tape> cnn_tapes;
        std::vector<nn::Tensor> embeds;  // e_i, kept for SAGE backward
        std::vector<nn::Tape> sage_tapes;
        nn::Tape rnn_tape;
        std::vector<nn::Tape> proj_tapes;
        std::vector<nn::Tape> head_tapes;
        int n = 0;
        bool valid = false;
    };
    Cache cache_;

    /// Lazily-built packed-weight plan, keyed by weights_version_. Guarded
    /// by plan_mu_ so concurrent const infer() calls share one rebuild.
    mutable std::shared_ptr<const InferencePlan> plan_;
    mutable std::mutex plan_mu_;
    std::atomic<std::uint64_t> weights_version_{1};

    [[nodiscard]] std::shared_ptr<const InferencePlan> ensure_plan() const;

    /// Shared forward implementation; writes activations into `cache`.
    nn::Tensor run_forward(const std::vector<nn::Tensor>& features, const Graph& graph,
                           Cache& cache) const;
};

}  // namespace camo::core
