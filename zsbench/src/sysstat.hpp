// zsbench/src/sysstat.hpp — process-level measurements and summary
// statistics.

#pragma once

#include <cstdint>
#include <vector>

namespace zsbench {

/// User + system CPU seconds of the whole process (joined threads
/// included).
double process_cpu_s();
/// CPU seconds of the calling thread.
double thread_cpu_s();
/// Voluntary + involuntary context switches of the whole process.
std::uint64_t process_ctx_switches();

/// Resets the kernel's peak-RSS mark to the current RSS, so a later
/// peak_rss_mb() covers only what ran after the call. Where the kernel
/// refuses, the peak covers the whole process.
void reset_peak_rss();
/// Peak resident set size in MiB (VmHWM, else ru_maxrss).
double peak_rss_mb();

/// Linear-interpolation quantile, q in [0, 1]; 0 for no samples.
double quantile(std::vector<double> values, double q);
inline double median(std::vector<double> values) { return quantile(std::move(values), 0.5); }

}  // namespace zsbench
