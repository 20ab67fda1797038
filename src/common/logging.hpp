// Minimal leveled logging to stderr. The library is quiet by default;
// set_log_level(LogLevel::kInfo) enables progress reporting in long runs.
//
// The level is a process-wide std::atomic (relaxed): batch and trainer
// worker threads read it on every log call while the CLI thread may set it,
// so a plain LogLevel would be a data race. Lines are prefixed with elapsed
// seconds since the first log-clock use and a stable per-thread id
// ("[camo +1.234s w3] ..."), so interleaved multi-worker output stays
// attributable. The id is also the trace-event tid (obs/trace) and the
// prefix format is deliberately kept out of every golden/test expectation.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdio>
#include <string>

namespace camo {

enum class LogLevel { kQuiet = 0, kInfo = 1, kDebug = 2 };

std::atomic<LogLevel>& log_level_ref();

inline void set_log_level(LogLevel lvl) {
    log_level_ref().store(lvl, std::memory_order_relaxed);
}
inline LogLevel log_level() { return log_level_ref().load(std::memory_order_relaxed); }

/// Epoch shared by log timestamps and trace events, fixed on first use.
inline std::chrono::steady_clock::time_point process_epoch() {
    static const auto t0 = std::chrono::steady_clock::now();
    return t0;
}

/// Seconds since process_epoch().
inline double elapsed_seconds() {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() - process_epoch())
        .count();
}

/// Small dense id for the calling thread, assigned on first use (the main
/// thread usually logs first and gets 0). Stable for the thread's lifetime.
inline int stable_thread_id() {
    static std::atomic<int> next{0};
    thread_local const int id = next.fetch_add(1, std::memory_order_relaxed);
    return id;
}

inline void log_info(const std::string& msg) {
    if (log_level() >= LogLevel::kInfo) {
        std::fprintf(stderr, "[camo +%.3fs w%d] %s\n", elapsed_seconds(), stable_thread_id(),
                     msg.c_str());
    }
}

/// Problems the run recovers from but the user must hear about (a rejected
/// cache file, weights that could not be stored). Printed at every level:
/// quiet silences progress, not problems.
inline void log_warn(const std::string& msg) {
    std::fprintf(stderr, "[camo:warn +%.3fs w%d] %s\n", elapsed_seconds(), stable_thread_id(),
                 msg.c_str());
}

inline void log_debug(const std::string& msg) {
    if (log_level() >= LogLevel::kDebug) {
        std::fprintf(stderr, "[camo:debug +%.3fs w%d] %s\n", elapsed_seconds(),
                     stable_thread_id(), msg.c_str());
    }
}

}  // namespace camo
