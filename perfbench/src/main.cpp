// perfbench: end-to-end OPC benchmark program.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             --cache-dir DIR [--source ID]
//   perfbench --workload NAME --cache-dir DIR --prepare 1
//
// --prepare fills the kernel disk cache for the workload in a process of its
// own, so a measured run never pays for (or keeps the memory of) a build.
// Workloads: via-camo, via-worst, metal-shard (see README.md).
// The last line of standard output is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// with the end-to-end metrics (--trace 0) or the per-layer metrics
// (--trace 1). The line before it is an "info" object with the run
// environment and the output hashes. Exit code 0 when every correctness
// check passed, 1 when one failed, 2 on bad arguments.
#include <sys/resource.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdio>
#include <exception>
#include <string>
#include <thread>

#include "bench.hpp"
#include "common/logging.hpp"
#include "common/parse.hpp"
#include "common/simd.hpp"
#include "litho/kernel_registry.hpp"

namespace perfbench {

double median(std::vector<double> v) { return percentile(std::move(v), 0.5); }

double percentile(std::vector<double> v, double p) {
    if (v.empty()) return 0.0;
    std::sort(v.begin(), v.end());
    const auto rank = static_cast<std::size_t>(std::ceil(p * static_cast<double>(v.size())));
    return v[std::clamp<std::size_t>(rank, 1, v.size()) - 1];
}

void Hash::add(std::uint64_t v) {
    for (int b = 0; b < 8; ++b) {
        h_ ^= (v >> (8 * b)) & 0xFFU;
        h_ *= 1099511628211ULL;
    }
}
void Hash::add(double v) { add(std::bit_cast<std::uint64_t>(v)); }
void Hash::add(std::span<const int> v) {
    add(static_cast<std::uint64_t>(v.size()));
    for (int x : v) add(static_cast<std::uint64_t>(static_cast<std::int64_t>(x)));
}
void Hash::add(std::span<const float> v) {
    add(static_cast<std::uint64_t>(v.size()));
    for (float x : v) add(static_cast<std::uint64_t>(std::bit_cast<std::uint32_t>(x)));
}
void Hash::add(std::span<const double> v) {
    add(static_cast<std::uint64_t>(v.size()));
    for (double x : v) add(x);
}
std::string Hash::hex() const {
    char buf[17];
    std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(h_));
    return buf;
}

std::string hash_clips(const std::vector<camo::runtime::ClipResult>& clips) {
    Hash h;
    for (const camo::runtime::ClipResult& c : clips) {
        h.add(static_cast<std::uint64_t>(c.index));
        h.add(static_cast<std::uint64_t>(c.iterations));
        h.add(c.final_epe);
        h.add(c.pvband_nm2);
        h.add(std::span<const int>(c.offsets));
    }
    return h.hex();
}

double peak_rss_mb() {
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

namespace {

std::string json_string(const std::string& s) {
    std::string out = "\"";
    for (char c : s) {
        if (c == '"' || c == '\\') {
            out += '\\';
            out += c;
        } else if (static_cast<unsigned char>(c) < 0x20) {
            out += ' ';
        } else {
            out += c;
        }
    }
    return out + "\"";
}

std::string json_number(double v) {
    if (!std::isfinite(v)) return "null";  // only a failed run can produce one
    char buf[40];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
}

void print_outcome(const Outcome& o) {
    std::string info = "{";
    for (const auto& [k, v] : o.info) {
        if (info.size() > 1) info += ", ";
        info += json_string(k) + ": " + json_string(v);
    }
    if (!o.errors.empty()) {
        info += std::string(info.size() > 1 ? ", " : "") + "\"errors\": [";
        for (std::size_t i = 0; i < o.errors.size(); ++i) {
            info += (i ? ", " : "") + json_string(o.errors[i]);
        }
        info += "]";
    }
    std::printf("info: %s}\n", info.c_str());

    std::string metrics;
    for (const auto& [name, m] : o.metrics) {
        if (!metrics.empty()) metrics += ", ";
        metrics += json_string(name) + ": {\"value\": " + json_number(m.value) +
                   ", \"unit\": " + json_string(m.unit) + "}";
    }
    std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, \"metrics\": {%s}}\n",
                o.correct ? "true" : "false", o.attempted, o.failed, metrics.c_str());
    std::fflush(stdout);
}

int usage() {
    std::fprintf(stderr,
                 "usage: perfbench --workload via-camo|via-worst|metal-shard"
                 " --seed N --seconds S --trace 0|1 --cache-dir DIR [--source ID]"
                 " | --cache-dir DIR --prepare 1\n");
    return 2;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
    using namespace perfbench;
    Args args;
    bool have_seed = false;
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        if (i + 1 >= argc) return usage();
        const std::string v = argv[++i];
        if (a == "--workload") {
            args.workload = v;
        } else if (a == "--seed") {
            if (!camo::parse_u64(v, args.seed)) return usage();
            have_seed = true;
        } else if (a == "--seconds") {
            if (!camo::parse_double(v, args.seconds) || !(args.seconds > 0.0)) return usage();
        } else if (a == "--trace") {
            if (v != "0" && v != "1") return usage();
            args.trace = v == "1";
        } else if (a == "--cache-dir") {
            args.cache_dir = v;
        } else if (a == "--source") {
            args.source_id = v;
        } else if (a == "--prepare") {
            args.prepare = v == "1";
        } else {
            return usage();
        }
    }
    if ((!have_seed && !args.prepare) || args.cache_dir.empty()) return usage();

    Outcome (*run)(const Args&) = nullptr;
    if (args.workload == "via-camo") run = run_via_camo;
    if (args.workload == "via-worst") run = run_via_worst;
    if (args.workload == "metal-shard") run = run_metal_shard;
    if (run == nullptr) return usage();

    camo::set_log_level(camo::LogLevel::kQuiet);
    Outcome out;
    try {
        if (args.prepare) {
            (void)camo::litho::acquire_kernels(workload_litho(args));
            return 0;
        }
        out = run(args);
    } catch (const std::exception& e) {
        std::fprintf(stderr, "perfbench: %s failed: %s\n", args.workload.c_str(), e.what());
        return 1;
    }
    out.info["workload"] = args.workload;
    out.info["seed"] = std::to_string(args.seed);
    out.info["nproc"] = std::to_string(std::thread::hardware_concurrency());
    out.info["simd"] = camo::simd::level_name(camo::simd::active_level());
    out.info["build_type"] = PERFBENCH_BUILD_TYPE;
    out.info["source"] = args.source_id.empty() ? "unknown" : args.source_id;
    print_outcome(out);
    return out.correct ? 0 : 1;
}
