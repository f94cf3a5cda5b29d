#include <fstream>

#include "workloads.hpp"

namespace perfbench {

namespace {

struct TimedLayer {
    const char* metric;
    SpanName span;
    double scale;  ///< ns -> the metric's unit
    const char* unit;
};

/// Mean self time per call of each layer span, in BENCHMARK.json order.
constexpr TimedLayer kTimed[] = {
    {"ann.upsert_us", SpanName::kUpsert, 1e-3, "us/call"},
    {"core.score_batch_ms", SpanName::kScoreBatch, 1e-6, "ms/call"},
    {"core.epoch_order_ms", SpanName::kEpochOrder, 1e-6, "ms/call"},
    {"core.end_epoch_ms", SpanName::kEndEpoch, 1e-6, "ms/call"},
    {"cache.lookup_ns", SpanName::kLookup, 1.0, "ns/call"},
    {"cache.admit_ns", SpanName::kAdmit, 1.0, "ns/call"},
    {"cache.rescore_us", SpanName::kRescore, 1e-3, "us/call"},
    {"cache.homophily_us", SpanName::kHomophily, 1e-3, "us/call"},
    {"cache.lru_touch_ns", SpanName::kLruTouch, 1.0, "ns/call"},
    {"cache.lru_admit_ns", SpanName::kLruAdmit, 1.0, "ns/call"},
    {"nn.forward_us", SpanName::kForward, 1e-3, "us/call"},
    {"nn.backward_us", SpanName::kBackward, 1e-3, "us/call"},
    {"nn.evaluate_ms", SpanName::kEvaluate, 1e-6, "ms/call"},
    {"data.gather_us", SpanName::kGather, 1e-3, "us/call"},
    {"storage.ssd_read_us", SpanName::kSsdRead, 1e-3, "us/call"},
    {"storage.ssd_append_us", SpanName::kSsdAppend, 1e-3, "us/call"},
    {"storage.ssd_flush_ms", SpanName::kSsdFlush, 1e-6, "ms/call"},
    {"storage.remote_fetch_us", SpanName::kRemoteFetch, 1e-3, "us/call"},
    {"storage.wal_append_us", SpanName::kWalAppend, 1e-3, "us/call"},
    {"storage.wal_compact_ms", SpanName::kWalCompact, 1e-6, "ms/call"},
    {"storage.recovery_ms", SpanName::kRecovery, 1e-6, "ms/call"},
    {"server.payload_read_us", SpanName::kPayloadRead, 1e-3, "us/call"},
};

}  // namespace

void add_layer_metrics(Outcome& out, const Tracer& tracer,
                       const LayerCounts& c) {
    const std::vector<LayerStat> stats = tracer.layer_stats();
    const auto stat = [&stats](SpanName name) -> const LayerStat& {
        return stats[static_cast<std::size_t>(name)];
    };
    for (const TimedLayer& t : kTimed) {
        out.metric(t.metric, stat(t.span).mean_self_ns() * t.scale, t.unit);
    }
    // The miss hook is reported whole: its SSD and remote children have
    // metrics of their own.
    const LayerStat& hook = stat(SpanName::kMissHook);
    out.metric("server.miss_hook_us",
               hook.calls == 0 ? 0.0
                               : hook.total_ns /
                                     static_cast<double>(hook.calls) * 1e-3,
               "us/call");
    out.metric("ann.upserts", c.ann_upserts, "count");
    out.metric("ann.upserts_skipped", c.ann_upserts_skipped, "count");
    out.metric("ann.dist_per_upsert", c.ann_dist_per_upsert, "count");
    out.metric("core.dist_per_score", c.core_dist_per_score, "count");
    out.metric("storage.disk_reads_per_read", c.disk_reads_per_read, "ratio");
    out.metric("storage.segments_collected", c.segments_collected, "count");
    out.metric("storage.space_amp", c.space_amp, "ratio");
    out.metric("storage.fetch_retries", c.fetch_retries, "count");
    out.metric("storage.ssd_hit_ratio", c.ssd_hit_ratio, "ratio");
    out.metric("storage.ssd_resident_min", c.ssd_resident_min, "count");
    out.metric("server.frames_per_batch", c.frames_per_batch, "count");
    out.metric("server.loop_cpu_us_per_op", c.loop_cpu_us_per_op, "us/op");
    out.metric("server.memory_hit_ratio", c.memory_hit_ratio, "ratio");
    out.metric("server.ssd_served_ratio", c.ssd_served_ratio, "ratio");
    out.metric("sim.other_ms_per_epoch", c.other_ms_per_epoch, "ms/epoch");
    out.metric("trace.overhead_pct", c.overhead_pct, "%");
}

void dump_spans(const Args& args, const Tracer& tracer, Outcome& out) {
    constexpr std::size_t kMaxDumped = 100'000;
    const std::filesystem::path dir =
        std::filesystem::path{args.out_dir} / "spans";
    std::filesystem::create_directories(dir);
    const std::filesystem::path file =
        dir / (args.workload + "-seed" + std::to_string(args.seed) + ".csv");
    const std::size_t written = tracer.dump_csv(file, kMaxDumped);
    out.detail("spans_recorded", static_cast<double>(tracer.span_count()),
               "count");
    out.detail("spans_dumped", static_cast<double>(written), "count");
}

}  // namespace perfbench
