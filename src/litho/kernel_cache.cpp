#include "litho/kernel_cache.hpp"

#include <unistd.h>

#include <filesystem>
#include <system_error>

#include "common/file_io.hpp"

namespace camo::litho {
namespace {

constexpr std::uint32_t kMagic = 0x434B524EU;  // "CKRN"
constexpr std::uint32_t kVersion = 2;

void write_kernel_set(BinaryWriter& w, const KernelSet& ks) {
    w.write_u64(ks.support.size());
    for (const FreqIndex& f : ks.support) {
        w.write_u32(static_cast<std::uint32_t>(f.kx));
        w.write_u32(static_cast<std::uint32_t>(f.ky));
    }
    w.write_u64(ks.eigenvalues.size());
    for (double e : ks.eigenvalues) w.write_f64(e);
    for (const auto& coeff : ks.coeffs) {
        w.write_u64(coeff.size());
        for (const auto& c : coeff) {
            w.write_f32(c.real());
            w.write_f32(c.imag());
        }
    }
}

KernelSet read_kernel_set(BinaryReader& r) {
    KernelSet ks;
    const auto ns = r.read_u64();
    ks.support.resize(ns);
    for (auto& f : ks.support) {
        f.kx = static_cast<int>(r.read_u32());
        f.ky = static_cast<int>(r.read_u32());
    }
    const auto ne = r.read_u64();
    ks.eigenvalues.resize(ne);
    for (auto& e : ks.eigenvalues) e = r.read_f64();
    ks.coeffs.resize(ne);
    for (auto& coeff : ks.coeffs) {
        const auto nc = r.read_u64();
        coeff.resize(nc);
        for (auto& c : coeff) {
            const float re = r.read_f32();
            const float im = r.read_f32();
            c = {re, im};
        }
    }
    return ks;
}

}  // namespace

std::string kernel_cache_path(const LithoConfig& cfg) {
    return cfg.cache_dir + "/kernels_" + std::to_string(cfg.physics_hash()) + ".bin";
}

std::optional<CachedKernels> load_kernel_cache(const LithoConfig& cfg) {
    if (cfg.cache_dir.empty()) return std::nullopt;
    const std::string path = kernel_cache_path(cfg);
    if (!file_exists(path)) return std::nullopt;
    try {
        BinaryReader r(path);
        if (r.read_u32() != kMagic || r.read_u32() != kVersion) return std::nullopt;
        CachedKernels ck;
        ck.threshold = r.read_f64();
        ck.nominal = read_kernel_set(r);
        ck.defocus = read_kernel_set(r);
        return ck;
    } catch (const std::exception&) {
        return std::nullopt;
    }
}

void store_kernel_cache(const LithoConfig& cfg, const CachedKernels& kernels) {
    if (cfg.cache_dir.empty()) return;
    std::error_code ec;
    std::filesystem::create_directories(cfg.cache_dir, ec);
    if (ec) return;

    // Write to a process-unique temp file, then rename into place: rename is
    // atomic on POSIX, so two concurrent first-runs can never interleave
    // writes into one corrupt cache entry — the loser simply overwrites the
    // winner with identical content.
    const std::string path = kernel_cache_path(cfg);
    const std::string tmp =
        path + ".tmp." + std::to_string(static_cast<unsigned long>(::getpid()));
    {
        BinaryWriter w(tmp);
        w.write_u32(kMagic);
        w.write_u32(kVersion);
        w.write_f64(kernels.threshold);
        write_kernel_set(w, kernels.nominal);
        write_kernel_set(w, kernels.defocus);
        w.close();
        if (!w.ok()) {
            std::filesystem::remove(tmp, ec);
            return;
        }
    }
    std::filesystem::rename(tmp, path, ec);
    if (ec) std::filesystem::remove(tmp, ec);
}

}  // namespace camo::litho
