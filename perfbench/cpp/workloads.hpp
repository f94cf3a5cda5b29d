#pragma once

// The three workloads and the per-layer report they share.
//
//   train-spider  TrainingSimulator::run(), SpiderCache, cifar10-like data
//   train-tiered  TrainingSimulator::run(), LRU + block-mode SSD tier, WAL,
//                 transient faults and one kill -9 restart, imagenet-like
//   serve-mixed   in-process SpiderServer, three pipelining clients
//
// Without --trace a workload reports the end-to-end metrics; with --trace
// it runs the traced variant and reports every per-layer metric.

#include <vector>

#include "common.hpp"
#include "spans.hpp"

namespace perfbench {

[[nodiscard]] Outcome run_train_spider(const Args& args);
[[nodiscard]] Outcome run_train_tiered(const Args& args);
[[nodiscard]] Outcome run_serve_mixed(const Args& args);

/// Per-layer figures that do not come from span timings. A layer the
/// workload never calls keeps its zero.
struct LayerCounts {
    double ann_upserts = 0.0;
    double ann_upserts_skipped = 0.0;
    double ann_dist_per_upsert = 0.0;
    double core_dist_per_score = 0.0;
    double disk_reads_per_read = 0.0;
    double segments_collected = 0.0;
    double space_amp = 0.0;
    double fetch_retries = 0.0;
    double ssd_hit_ratio = 0.0;
    double ssd_resident_min = 0.0;
    double frames_per_batch = 0.0;
    double loop_cpu_us_per_op = 0.0;
    double memory_hit_ratio = 0.0;
    double ssd_served_ratio = 0.0;
    double other_ms_per_epoch = 0.0;
    double overhead_pct = 0.0;
};

/// Appends every per-layer metric, in BENCHMARK.json order: mean self time
/// per call of each span name (the miss hook's time includes its children)
/// and the counts above.
void add_layer_metrics(Outcome& out, const Tracer& tracer,
                       const LayerCounts& counts);

/// Writes the span dump of a traced run next to its result record and
/// notes the file in the outcome's details.
void dump_spans(const Args& args, const Tracer& tracer, Outcome& out);

}  // namespace perfbench
