// Runtime-dispatched SIMD kernels for the inference and lithography hot
// loops (the nn::Backend and litho::SupportApplicator compute cores).
//
// Dispatch model: this translation unit is always compiled portably; the
// vector implementations live in their own translation units
// (simd_avx2.cpp, built with -mavx2 -mfma on x86; simd_neon.cpp on
// aarch64, where NEON is baseline). At startup the active kernel table is
// chosen as
//
//     compiled kernels  ∩  CPU capabilities  ∩  CAMO_BACKEND environment
//
// CAMO_BACKEND=scalar forces the scalar reference kernels — byte-for-byte
// the pre-SIMD loops, so the repo's bit-identical determinism contracts
// (batch results at any thread count, training traces at any worker count)
// hold end to end exactly as before. CAMO_BACKEND=simd requires a vector
// level and falls back to scalar (with a one-time warning) when neither
// the binary nor the CPU provides one. Unset or "auto" picks the best
// level available.
//
// Equivalence contract: for every kernel the scalar entry reproduces the
// legacy accumulation order exactly; the vector entries compute the same
// sums with a different rounding schedule (blocked FMA), so results agree
// to a few ULP — tests/test_nn_backend.cpp fuzzes the bound and pins the
// end-to-end action-identity guarantee on every registered scenario.
#pragma once

#include <complex>
#include <cstddef>

namespace camo::simd {

enum class Level {
    kScalar,
    kAvx2,  ///< x86-64 AVX2 + FMA (8-wide float)
    kNeon,  ///< aarch64 NEON (4-wide float, baseline on that ISA)
};

const char* level_name(Level level);

/// Highest level this binary carries kernels for (a compile-time fact).
Level compiled_level();

/// Highest level the running CPU supports among the compiled ones.
Level detected_level();

/// Level actually in use: detected_level() clipped by CAMO_BACKEND.
Level active_level();

/// Row-blocked GEMM/GEMV kernels read weights in the lc0-style packed
/// layout: output rows grouped in blocks of kBlock, with
/// w[(block * in + i) * kBlock + lane] = W[block * kBlock + lane][i].
/// `out` is padded to a multiple of kBlock with zero rows at pack time.
inline constexpr int kBlock = 8;

struct Ops {
    Level level = Level::kScalar;

    /// y[r, :] (+)= x[r, :] @ W^T (+ bias): `rows` independent right-hand
    /// sides, x row-major [rows, in], y row-major [rows, out] (`out` is the
    /// logical width; `w`/`bias` are padded to out_padded). When
    /// `accumulate` is true the products fold into the existing y values
    /// and `bias` is ignored. Row r's accumulation order never depends on
    /// `rows`, so a multi-row call is bitwise identical to `rows` single-row
    /// calls at every level.
    void (*gemm_blocked)(const float* w, const float* bias, const float* x, int rows, int in,
                         int out, int out_padded, float* y, bool accumulate);

    /// One CHW conv sample with weights packed [ic][ky][kx][oc_padded]
    /// (output-channel innermost so the vector kernels broadcast the input
    /// pixel across a block of output channels). Geometry mirrors
    /// nn::Conv2d::forward: y[oc, oy, ox] = b[oc] + sum over (ic, ky, kx)
    /// with zero padding handled by bounds checks.
    void (*conv2d_packed)(const float* w, const float* bias, const float* x, int in_ch, int h,
                          int wdt, int out_ch, int out_ch_padded, int k, int stride, int pad,
                          float* y, int oh, int ow);

    /// out[i] = a[i] * b[i] over contiguous complex floats (the
    /// SupportApplicator coefficient multiply).
    void (*cmul)(const std::complex<float>* a, const std::complex<float>* b,
                 std::complex<float>* out, std::size_t n);

    /// intensity[i] += lambda * |field[i]|^2 (the SOCS accumulation).
    void (*norm_acc)(const std::complex<float>* field, float lambda, float* intensity,
                     std::size_t n);
};

/// Kernel table of the active level (cheap: one atomic load after init).
const Ops& ops();

/// The scalar reference table (always available; legacy loop order).
const Ops& scalar_ops();

/// Test hook: force a level for the current scope (e.g. compare scalar vs
/// SIMD outputs in-process). Levels above detected_level() clip down. Not
/// safe to race with concurrent kernel users — tests only.
class ScopedOverride {
public:
    explicit ScopedOverride(Level level);
    ~ScopedOverride();
    ScopedOverride(const ScopedOverride&) = delete;
    ScopedOverride& operator=(const ScopedOverride&) = delete;

private:
    Level prev_;
};

}  // namespace camo::simd
