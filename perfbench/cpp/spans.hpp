#pragma once

// In-memory span recorder for the traced runs. A span is one call into a
// layer, recorded from the benchmark's side of the call: name, start, end,
// the span that encloses it, and the request (training step or client
// flush) it belongs to. Each thread appends to its own SpanLog, so the
// recorder takes no locks; logs are merged and written out after the run.

#include <cstddef>
#include <cstdint>
#include <deque>
#include <filesystem>
#include <string>
#include <vector>

#include "common.hpp"

namespace perfbench {

/// Every span name the benchmark records. Roots open a request; the rest
/// are layer calls.
enum class SpanName : std::uint16_t {
    // Roots.
    kStep,        ///< one training step (a request)
    kEpochBegin,  ///< epoch order draw, restart handling
    kEpochEnd,    ///< evaluation, elastic control, WAL compaction, flush
    kFlush,       ///< one client pipeline flush (a request)
    // Layers.
    kEpochOrder,
    kEndEpoch,
    kScoreBatch,
    kUpsert,
    kLookup,
    kAdmit,
    kRescore,
    kHomophily,
    kLruTouch,
    kLruAdmit,
    kForward,
    kBackward,
    kEvaluate,
    kGather,
    kSsdRead,
    kSsdAppend,
    kSsdFlush,
    kRemoteFetch,
    kWalAppend,
    kWalCompact,
    kRecovery,
    kMissHook,
    kPayloadRead,
    kCount,
};

[[nodiscard]] const char* to_string(SpanName name);
[[nodiscard]] bool is_root(SpanName name);

struct Span {
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
    /// Ordinal of the request within its log (0 = outside any request);
    /// SpanLog::request_id makes it unique across threads.
    std::uint32_t request = 0;
    std::uint32_t tag = 0;  ///< sample id for per-sample spans
    std::int32_t parent = -1;  ///< index into the same log, -1 = none
    SpanName name = SpanName::kStep;
};

class Tracer;

/// One thread's spans. Not thread-safe: exactly one thread appends.
class SpanLog {
public:
    SpanLog(const Tracer& tracer, std::uint32_t index, std::string thread)
        : tracer_{tracer}, index_{index}, thread_{std::move(thread)} {}

    [[nodiscard]] std::size_t open(SpanName name, std::uint32_t tag);
    void close(std::size_t index);

    [[nodiscard]] const std::deque<Span>& spans() const { return spans_; }
    [[nodiscard]] const std::string& thread() const { return thread_; }
    /// Request id of a span, unique across logs: (log index << 32) | ordinal.
    [[nodiscard]] std::uint64_t request_id(const Span& span) const {
        return span.request == 0
                   ? 0
                   : (static_cast<std::uint64_t>(index_) << 32) | span.request;
    }

private:
    const Tracer& tracer_;
    std::uint32_t index_;
    std::string thread_;
    /// A deque grows without copying, so a long traced run never holds
    /// two copies of its spans.
    std::deque<Span> spans_;
    std::vector<std::int32_t> stack_;
    std::uint32_t request_ = 0;  ///< ordinal of the open root's request
    std::uint32_t requests_opened_ = 0;
};

/// RAII span. A null log makes it a no-op, which is how the untraced
/// path of shared code runs.
class ScopedSpan {
public:
    ScopedSpan(SpanLog* log, SpanName name, std::uint32_t tag = 0)
        : log_{log}, index_{log != nullptr ? log->open(name, tag) : 0} {}
    ~ScopedSpan() {
        if (log_ != nullptr) log_->close(index_);
    }
    ScopedSpan(const ScopedSpan&) = delete;
    ScopedSpan& operator=(const ScopedSpan&) = delete;

private:
    SpanLog* log_;
    std::size_t index_;
};

/// Calls `fn` inside a span and returns its result.
template <typename Fn>
decltype(auto) traced(SpanLog* log, SpanName name, std::uint32_t tag, Fn&& fn) {
    const ScopedSpan span{log, name, tag};
    return fn();
}

/// Per-name totals derived from the spans. Self time is a span's duration
/// minus the part its direct children cover.
struct LayerStat {
    std::uint64_t calls = 0;
    double total_ns = 0.0;
    double self_ns = 0.0;

    [[nodiscard]] double mean_self_ns() const {
        return calls == 0 ? 0.0 : self_ns / static_cast<double>(calls);
    }
};

class Tracer {
public:
    Tracer() : epoch_{Clock::now()} {}
    Tracer(const Tracer&) = delete;
    Tracer& operator=(const Tracer&) = delete;

    /// A new per-thread log; the reference stays valid for the tracer's
    /// lifetime. Create every log before the threads that use it start.
    SpanLog& new_log(std::string thread);

    [[nodiscard]] std::int64_t now_ns() const {
        return std::chrono::duration_cast<std::chrono::nanoseconds>(
                   Clock::now() - epoch_)
            .count();
    }

    [[nodiscard]] std::vector<LayerStat> layer_stats() const;
    /// Time covered by layer spans that sit directly under a root (or
    /// under nothing): the part of the traced wall time some layer owns.
    [[nodiscard]] double layer_covered_ns() const;
    [[nodiscard]] std::size_t span_count() const;

    /// Writes at most `max_spans` spans as CSV (header line first).
    /// Returns the number written.
    std::size_t dump_csv(const std::filesystem::path& file,
                         std::size_t max_spans) const;

private:
    Clock::time_point epoch_;
    std::deque<SpanLog> logs_;
};

}  // namespace perfbench
