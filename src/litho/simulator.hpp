// LithoSim: the facade every OPC engine talks to.
//
// Construction acquires (builds once per process, or loads from the disk
// cache) the SOCS kernels for the nominal and defocus conditions and the
// auto-calibrated resist threshold via the shared kernel registry. One
// evaluate() call rasterizes the mask implied by per-segment offsets, images
// it at both focus conditions, and returns EPE per measure point / segment
// plus the PV band — exactly the quantities the paper's reward (Eq. 3) and
// result tables consume.
//
// Thread-safety contract: every const method touches only immutable shared
// kernel state plus an atomic call counter, so one LithoSim may be used from
// many threads concurrently. evaluate_incremental() is the exception: it
// mutates a per-instance cache and must not be called on one instance from
// two threads — the batch runtime gives each worker its own (cheap) copy, so
// per-worker caches and evaluation counts stay contention-free.
#pragma once

#include <atomic>
#include <memory>
#include <span>
#include <vector>

#include "geometry/layout.hpp"
#include "geometry/raster.hpp"
#include "litho/aerial.hpp"
#include "litho/config.hpp"
#include "litho/metrics.hpp"
#include "litho/process_window.hpp"

namespace camo::litho {

class IncrementalEvaluator;

class LithoSim {
public:
    explicit LithoSim(LithoConfig cfg);

    /// Copies share the immutable kernel applicators (no rebuild, no disk
    /// I/O); only the evaluation counter is per-instance, starting at zero.
    LithoSim(const LithoSim& other);
    LithoSim& operator=(const LithoSim&) = delete;

    [[nodiscard]] const LithoConfig& config() const { return cfg_; }
    [[nodiscard]] double threshold() const { return threshold_; }

    /// Offset that centres a clip of `clip_size_nm` in the simulation frame.
    [[nodiscard]] int clip_offset_nm(int clip_size_nm) const;

    /// Rasterize mask polygons (clip coordinates) onto the simulation grid.
    [[nodiscard]] geo::Raster rasterize(std::span<const geo::Polygon> mask,
                                        std::span<const geo::Polygon> srafs,
                                        int clip_size_nm) const;

    /// Aerial images (intensity in open-frame units) of a rasterized mask.
    [[nodiscard]] geo::Raster aerial_nominal(const geo::Raster& mask) const;
    [[nodiscard]] geo::Raster aerial_defocus(const geo::Raster& mask) const;

    /// Full evaluation of a segmented layout under per-segment offsets.
    [[nodiscard]] SimMetrics evaluate(const geo::SegmentedLayout& layout,
                                      std::span<const int> offsets) const;

    /// Incremental evaluation without a dirty set: always performs a full
    /// evaluation and (re)primes the per-instance cache for `layout`, so a
    /// job's results never depend on what this simulator evaluated before.
    /// Call this for the first evaluation of a clip, then the dirty-set
    /// overload inside the optimization loop.
    [[nodiscard]] SimMetrics evaluate_incremental(const geo::SegmentedLayout& layout,
                                                  std::span<const int> offsets);

    /// Incremental evaluation: `dirty` lists the segment indices acted on
    /// since the previous call on the same layout. The hint is advisory —
    /// the evaluator cross-checks it against its cached offsets and works
    /// from what actually changed, so a stale or incomplete hint costs
    /// accuracy nothing. Re-rasterizes only the changed polygons and updates
    /// the cached support spectrum with a sparse delta-DFT; falls back to a
    /// full evaluation when the cache does not match this layout or too many
    /// segments moved (cfg.incremental_fallback_fraction). Metrics match
    /// evaluate() within the tolerances documented in litho/incremental.hpp.
    /// Not thread-safe on one instance.
    [[nodiscard]] SimMetrics evaluate_incremental(const geo::SegmentedLayout& layout,
                                                  std::span<const int> offsets,
                                                  std::span<const int> dirty);

    /// Multi-corner process-window evaluation through the dense (exact)
    /// path: one rasterization + one forward FFT serve every corner, one
    /// aerial image per focus plane serves every dose at that focus. The
    /// (dose 1.0, best focus) corner is bit-identical to evaluate(). Const
    /// and thread-safe; repeated sweeps with one spec should hold a
    /// ProcessWindowSweep instead (this convenience wrapper re-resolves the
    /// per-focus applicators from the registry on every call — cheap, but
    /// not free).
    [[nodiscard]] WindowMetrics evaluate_window(const geo::SegmentedLayout& layout,
                                                std::span<const int> offsets,
                                                const WindowSpec& spec) const;

    /// Window evaluation riding the incremental cache: refreshes the cached
    /// raster + support spectrum exactly like evaluate_incremental (sparse
    /// delta-DFT for small moves, outright reuse for none), then images
    /// every corner from the cached spectrum — no per-corner rasterization
    /// or forward FFT. Matches evaluate_window within the incremental
    /// tolerances of litho/incremental.hpp. Not thread-safe on one instance.
    [[nodiscard]] WindowMetrics evaluate_window_incremental(const geo::SegmentedLayout& layout,
                                                            std::span<const int> offsets,
                                                            const WindowSpec& spec);

    /// Window evaluation that always (re)primes the per-instance cache with
    /// a full rebuild — the window counterpart of the no-dirty
    /// evaluate_incremental overload. Window-objective engines call this for
    /// the first evaluation of a clip, then evaluate_window_incremental
    /// inside the loop, so a job's window metrics never depend on what this
    /// simulator evaluated before. Not thread-safe on one instance.
    [[nodiscard]] WindowMetrics evaluate_window_prime(const geo::SegmentedLayout& layout,
                                                      std::span<const int> offsets,
                                                      const WindowSpec& spec);

    /// Binary printed image at a dose, per the shared epsilon-stable
    /// pixel_prints predicate (litho/metrics.hpp).
    [[nodiscard]] geo::Raster printed(const geo::Raster& aerial, double dose = 1.0) const;

    /// Number of lithography evaluations performed (for runtime accounting).
    [[nodiscard]] long long evaluate_count() const {
        return evaluate_count_.load(std::memory_order_relaxed);
    }

    /// Incremental evaluations (nominal and window) that reused the cache —
    /// either no segment moved (the cached result is returned as is) or the
    /// sparse delta path patched the spectrum — vs. those that ran a full
    /// rebuild (cache miss, large dirty set, or the no-dirty overload). A
    /// "hit" therefore includes no-change reuse; only the litho.delta_dft
    /// span count tells how many ran the sparse path.
    [[nodiscard]] long long incremental_hit_count() const;
    [[nodiscard]] long long incremental_full_count() const;

    /// Nominal-focus SOCS kernels (used by the ILT engine's adjoint).
    [[nodiscard]] const KernelSet& nominal_kernels() const { return nominal_->kernels(); }
    [[nodiscard]] const KernelSet& defocus_kernels() const { return defocus_->kernels(); }

    ~LithoSim();

private:
    LithoConfig cfg_;
    double threshold_ = 0.0;
    std::shared_ptr<const KernelApplicator> nominal_;
    std::shared_ptr<const KernelApplicator> defocus_;
    mutable std::atomic<long long> evaluate_count_{0};
    std::unique_ptr<IncrementalEvaluator> incremental_;  ///< lazily built, never copied
};

}  // namespace camo::litho
