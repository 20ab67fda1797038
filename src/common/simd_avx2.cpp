// AVX2 + FMA kernels. This file is always part of the build; CMake adds
// -mavx2 -mfma on x86 unless CAMO_SIMD=OFF, and the whole implementation is
// guarded on __AVX2__/__FMA__ so a portable build simply exports a null
// table. The dispatcher (simd.cpp) additionally checks
// __builtin_cpu_supports at runtime, so shipping these kernels never traps
// on an older CPU.
//
// Layout notes (the lc0 linear-backend idiom): weights are packed row-
// blocked, w[(blk * in + i) * 8 + lane] = W[blk*8 + lane][i], so the inner
// GEMV loop is one broadcast of x[i] FMA'd against a contiguous 8-float
// column slice. The multi-row GEMM tiles 4 rows x 8 outputs into 4
// registers; each row keeps its own accumulator chain in ascending-i order,
// which is what makes a multi-row call bitwise identical to the same rows
// run one by one (the row-equivalence contract).
#include "common/simd.hpp"

#if defined(__AVX2__) && defined(__FMA__) && !defined(CAMO_SIMD_OFF)

#include <immintrin.h>

#include <cstring>

namespace camo::simd {
namespace {

// Stores an 8-lane accumulator into y[o0 .. o0+count), count <= 8.
inline void store_tail(float* y, int o0, int count, __m256 acc) {
    if (count == 8) {
        _mm256_storeu_ps(y + o0, acc);
    } else {
        alignas(32) float lanes[8];
        _mm256_store_ps(lanes, acc);
        std::memcpy(y + o0, lanes, static_cast<std::size_t>(count) * sizeof(float));
    }
}

inline __m256 load_tail(const float* y, int o0, int count) {
    if (count == 8) return _mm256_loadu_ps(y + o0);
    alignas(32) float lanes[8] = {};
    std::memcpy(lanes, y + o0, static_cast<std::size_t>(count) * sizeof(float));
    return _mm256_load_ps(lanes);
}

void avx2_gemm_blocked(const float* w, const float* bias, const float* x, int rows, int in,
                       int out, int out_padded, float* y, bool accumulate) {
    const int blocks = out_padded / kBlock;
    for (int blk = 0; blk < blocks; ++blk) {
        const int o0 = blk * kBlock;
        const int width = out - o0 < kBlock ? out - o0 : kBlock;
        if (width <= 0) break;
        const float* wb = w + static_cast<std::size_t>(blk) * static_cast<std::size_t>(in) * kBlock;
        const __m256 b8 = accumulate ? _mm256_setzero_ps() : _mm256_loadu_ps(bias + blk * kBlock);

        int r = 0;
        for (; r + 4 <= rows; r += 4) {
            const float* x0 = x + static_cast<std::size_t>(r) * static_cast<std::size_t>(in);
            const float* x1 = x0 + in;
            const float* x2 = x1 + in;
            const float* x3 = x2 + in;
            float* y0 = y + static_cast<std::size_t>(r) * static_cast<std::size_t>(out);
            float* y1 = y0 + out;
            float* y2 = y1 + out;
            float* y3 = y2 + out;
            __m256 a0 = accumulate ? load_tail(y0, o0, width) : b8;
            __m256 a1 = accumulate ? load_tail(y1, o0, width) : b8;
            __m256 a2 = accumulate ? load_tail(y2, o0, width) : b8;
            __m256 a3 = accumulate ? load_tail(y3, o0, width) : b8;
            for (int i = 0; i < in; ++i) {
                const __m256 wv = _mm256_loadu_ps(wb + static_cast<std::size_t>(i) * kBlock);
                a0 = _mm256_fmadd_ps(_mm256_set1_ps(x0[i]), wv, a0);
                a1 = _mm256_fmadd_ps(_mm256_set1_ps(x1[i]), wv, a1);
                a2 = _mm256_fmadd_ps(_mm256_set1_ps(x2[i]), wv, a2);
                a3 = _mm256_fmadd_ps(_mm256_set1_ps(x3[i]), wv, a3);
            }
            store_tail(y0, o0, width, a0);
            store_tail(y1, o0, width, a1);
            store_tail(y2, o0, width, a2);
            store_tail(y3, o0, width, a3);
        }
        for (; r < rows; ++r) {
            const float* xr = x + static_cast<std::size_t>(r) * static_cast<std::size_t>(in);
            float* yr = y + static_cast<std::size_t>(r) * static_cast<std::size_t>(out);
            __m256 acc = accumulate ? load_tail(yr, o0, width) : b8;
            for (int i = 0; i < in; ++i) {
                const __m256 wv = _mm256_loadu_ps(wb + static_cast<std::size_t>(i) * kBlock);
                acc = _mm256_fmadd_ps(_mm256_set1_ps(xr[i]), wv, acc);
            }
            store_tail(yr, o0, width, acc);
        }
    }
}

void avx2_conv2d_packed(const float* w, const float* bias, const float* x, int in_ch, int h,
                        int wdt, int out_ch, int out_ch_padded, int k, int stride, int pad,
                        float* y, int oh, int ow) {
    const std::size_t plane = static_cast<std::size_t>(oh) * static_cast<std::size_t>(ow);
    for (int oc0 = 0; oc0 < out_ch; oc0 += kBlock) {
        const int width = out_ch - oc0 < kBlock ? out_ch - oc0 : kBlock;
        const __m256 b8 = _mm256_loadu_ps(bias + oc0);
        for (int oy = 0; oy < oh; ++oy) {
            const int iy0 = oy * stride - pad;
            for (int ox = 0; ox < ow; ++ox) {
                const int ix0 = ox * stride - pad;
                __m256 acc = b8;
                for (int ic = 0; ic < in_ch; ++ic) {
                    const float* xp = x + (static_cast<std::size_t>(ic) *
                                           static_cast<std::size_t>(h)) *
                                              static_cast<std::size_t>(wdt);
                    for (int ky = 0; ky < k; ++ky) {
                        const int iy = iy0 + ky;
                        if (iy < 0 || iy >= h) continue;
                        const float* xrow = xp + static_cast<std::size_t>(iy) *
                                                     static_cast<std::size_t>(wdt);
                        const float* wrow =
                            w + ((static_cast<std::size_t>(ic) * static_cast<std::size_t>(k) +
                                  static_cast<std::size_t>(ky)) *
                                 static_cast<std::size_t>(k)) *
                                    static_cast<std::size_t>(out_ch_padded) +
                            static_cast<std::size_t>(oc0);
                        for (int kx = 0; kx < k; ++kx) {
                            const int ix = ix0 + kx;
                            if (ix < 0 || ix >= wdt) continue;
                            const __m256 wv = _mm256_loadu_ps(
                                wrow + static_cast<std::size_t>(kx) *
                                           static_cast<std::size_t>(out_ch_padded));
                            acc = _mm256_fmadd_ps(_mm256_set1_ps(xrow[ix]), wv, acc);
                        }
                    }
                }
                // y is channel-major [oc][oy][ox]: scatter the lane block.
                alignas(32) float lanes[8];
                _mm256_store_ps(lanes, acc);
                float* ypix = y + (static_cast<std::size_t>(oc0) * plane) +
                              static_cast<std::size_t>(oy) * static_cast<std::size_t>(ow) +
                              static_cast<std::size_t>(ox);
                for (int l = 0; l < width; ++l) ypix[static_cast<std::size_t>(l) * plane] = lanes[l];
            }
        }
    }
}

void avx2_cmul(const std::complex<float>* a, const std::complex<float>* b,
               std::complex<float>* out, std::size_t n) {
    const float* af = reinterpret_cast<const float*>(a);
    const float* bf = reinterpret_cast<const float*>(b);
    float* of = reinterpret_cast<float*>(out);
    std::size_t i = 0;
    // 4 complex values (8 floats, interleaved re/im) per iteration:
    // (ar+i*ai)(br+i*bi) = (ar*br - ai*bi) + i*(ar*bi + ai*br).
    for (; i + 4 <= n; i += 4) {
        const __m256 av = _mm256_loadu_ps(af + 2 * i);
        const __m256 bv = _mm256_loadu_ps(bf + 2 * i);
        const __m256 ar = _mm256_moveldup_ps(av);             // [ar0 ar0 ar1 ar1 ...]
        const __m256 ai = _mm256_movehdup_ps(av);             // [ai0 ai0 ai1 ai1 ...]
        const __m256 bswap = _mm256_permute_ps(bv, 0xB1);     // [bi0 br0 bi1 br1 ...]
        // ar*b ± ai*swap(b): fmaddsub subtracts in even lanes (real part)
        // and adds in odd lanes (imaginary part), which is exactly the
        // complex product layout.
        const __m256 res = _mm256_fmaddsub_ps(ar, bv, _mm256_mul_ps(ai, bswap));
        _mm256_storeu_ps(of + 2 * i, res);
    }
    for (; i < n; ++i) out[i] = a[i] * b[i];
}

void avx2_norm_acc(const std::complex<float>* field, float lambda, float* intensity,
                   std::size_t n) {
    const float* ff = reinterpret_cast<const float*>(field);
    const __m256 lam = _mm256_set1_ps(lambda);
    std::size_t i = 0;
    for (; i + 8 <= n; i += 8) {
        // Two interleaved loads = 8 complex values; hadd pairs re*re+im*im.
        const __m256 v0 = _mm256_loadu_ps(ff + 2 * i);      // c0..c3 interleaved
        const __m256 v1 = _mm256_loadu_ps(ff + 2 * i + 8);  // c4..c7 interleaved
        const __m256 sq0 = _mm256_mul_ps(v0, v0);
        const __m256 sq1 = _mm256_mul_ps(v1, v1);
        // hadd on 128-bit halves: [n0 n1 n4 n5 | n2 n3 n6 n7]
        const __m256 sums = _mm256_hadd_ps(sq0, sq1);
        const __m256 norms = _mm256_permutevar8x32_ps(
            sums, _mm256_setr_epi32(0, 1, 4, 5, 2, 3, 6, 7));
        const __m256 acc = _mm256_fmadd_ps(lam, norms, _mm256_loadu_ps(intensity + i));
        _mm256_storeu_ps(intensity + i, acc);
    }
    for (; i < n; ++i) intensity[i] += lambda * std::norm(field[i]);
}

const Ops kAvx2Ops = {
    Level::kAvx2, avx2_gemm_blocked, avx2_conv2d_packed, avx2_cmul, avx2_norm_acc,
};

}  // namespace

namespace detail {
const Ops* avx2_ops() { return &kAvx2Ops; }
}  // namespace detail

}  // namespace camo::simd

#else  // portable build of this TU: export no table

namespace camo::simd::detail {
const Ops* avx2_ops() { return nullptr; }
}  // namespace camo::simd::detail

#endif
