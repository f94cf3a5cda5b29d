#pragma once

// Shared plumbing of the wall-clock benchmark: command-line arguments, the
// result record every workload fills, the one-line JSON it prints, and the
// small measurement helpers (clock, percentiles, peak RSS, CPU pinning,
// scratch dirs).

#include <sched.h>

#include <chrono>
#include <cstdint>
#include <filesystem>
#include <string>
#include <vector>

namespace perfbench {

struct Args {
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    /// Directory (inside the checkout) for scratch files, result records
    /// and span dumps.
    std::string out_dir = ".bench_run";
    /// Commit id of the measured tree, or "unknown".
    std::string commit = "unknown";
};

struct Metric {
    std::string name;
    double value = 0.0;
    std::string unit;
};

/// What one workload run reports. `metrics` is the printed set (end-to-end
/// without --trace, per-layer with it); `details` holds extra named
/// figures that go to the result file and the preceding stdout line only.
struct Outcome {
    bool correct = true;
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::vector<Metric> metrics;
    std::vector<Metric> details;
    std::vector<std::string> problems;

    /// Records a failed correctness check (the run stays `correct` only
    /// while every check holds).
    void expect(bool condition, const std::string& what);
    void metric(std::string name, double value, std::string unit) {
        metrics.push_back({std::move(name), value, std::move(unit)});
    }
    void detail(std::string name, double value, std::string unit) {
        details.push_back({std::move(name), value, std::move(unit)});
    }
};

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double seconds_since(Clock::time_point t0) {
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Median of `values` (0 for an empty list).
[[nodiscard]] double median(std::vector<double> values);

/// Nearest-rank percentile, q in [0, 100]: the smallest sample with at
/// least q% of the samples at or below it (0 for an empty list).
[[nodiscard]] double percentile(std::vector<double> values, double q);

/// Pins thread `tid` (0 = the caller) to the `slot`-th CPU this process may
/// use (modulo their number), so the threads of a multi-threaded workload
/// keep the same cores from run to run instead of sharing one by chance.
void pin_thread(int tid, std::size_t slot);

/// Pins the calling thread like pin_thread for the object's lifetime and
/// then restores the CPU set it had before.
class PinnedScope {
public:
    explicit PinnedScope(std::size_t slot);
    ~PinnedScope();
    PinnedScope(const PinnedScope&) = delete;
    PinnedScope& operator=(const PinnedScope&) = delete;

private:
    cpu_set_t saved_{};
    bool have_saved_ = false;
};

/// Peak resident set of this process (VmHWM), in MiB.
[[nodiscard]] double peak_rss_mib();

/// Shortest round-trip decimal form of a double, as JSON.
[[nodiscard]] std::string json_number(double value);
[[nodiscard]] std::string json_string(const std::string& text);

/// Host and build description every result carries: cores, the ISA the
/// tensor SIMD dispatch selected, build type, compiler and commit.
[[nodiscard]] std::string header_json(const Args& args);

/// A fresh, empty directory under `parent`, removed with its contents when
/// the object dies.
class ScratchDir {
public:
    ScratchDir(const std::filesystem::path& parent, const std::string& tag);
    ~ScratchDir();
    ScratchDir(const ScratchDir&) = delete;
    ScratchDir& operator=(const ScratchDir&) = delete;

    [[nodiscard]] const std::filesystem::path& path() const { return path_; }
    [[nodiscard]] std::string sub(const std::string& name) const {
        return (path_ / name).string();
    }

private:
    std::filesystem::path path_;
};

}  // namespace perfbench
