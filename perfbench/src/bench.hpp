// Shared types and helpers of the end-to-end benchmark program.
//
// One process runs one workload once: several timed set-ups, then a
// measured phase of whole rounds until the requested seconds have passed,
// then correctness checks. With --trace 1 the same process also runs one
// traced round and reports per-layer metrics instead of end-to-end ones.
#pragma once

#include <cstdint>
#include <map>
#include <span>
#include <string>
#include <vector>

#include "litho/config.hpp"
#include "runtime/batch.hpp"

namespace perfbench {

struct Args {
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    std::string cache_dir;  ///< kernel disk cache owned by the benchmark
    std::string source_id;  ///< identifies the code under test (commit or digest)
    bool prepare = false;   ///< only fill the kernel disk cache, then exit
};

struct Metric {
    double value = 0.0;
    std::string unit;
};

/// What one run reports. `info` is printed as one JSON line before the
/// result line (run environment, output hashes, sample counts).
struct Outcome {
    bool correct = true;
    long long attempted = 0;
    long long failed = 0;
    std::map<std::string, Metric> metrics;
    std::map<std::string, std::string> info;
    std::vector<std::string> errors;

    void set(const std::string& name, double value, const std::string& unit) {
        metrics[name] = Metric{value, unit};
    }
    /// Record a failed correctness check; the run then reports correct=false.
    void fail(const std::string& why) {
        correct = false;
        errors.push_back(why);
    }
    void check(bool ok, const std::string& what) {
        if (!ok) fail(what);
    }
};

Outcome run_via_camo(const Args& args);
Outcome run_via_worst(const Args& args);
Outcome run_metal_shard(const Args& args);

/// The lithography configuration (with the cache directory) a workload runs.
camo::litho::LithoConfig workload_litho(const Args& args);

// ---- statistics ------------------------------------------------------------

double median(std::vector<double> v);
/// Nearest-rank percentile (p in (0, 1]); 0 for an empty sample.
double percentile(std::vector<double> v, double p);

// ---- hashing -----------------------------------------------------------------

/// FNV-1a accumulator over the exact bytes of the values fed to it.
class Hash {
public:
    void add(std::uint64_t v);
    void add(double v);
    void add(std::span<const int> v);
    void add(std::span<const float> v);
    void add(std::span<const double> v);
    [[nodiscard]] std::uint64_t value() const { return h_; }
    [[nodiscard]] std::string hex() const;

private:
    std::uint64_t h_ = 14695981039346656037ULL;
};

/// Hash of per-clip results in clip order: offsets, iterations and the bit
/// patterns of the final EPE and PV band.
std::string hash_clips(const std::vector<camo::runtime::ClipResult>& clips);

// ---- process ----------------------------------------------------------------

/// Peak resident set of this process so far, in MB.
double peak_rss_mb();

}  // namespace perfbench
