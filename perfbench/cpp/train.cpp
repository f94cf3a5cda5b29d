// The two training workloads.
//
// Untraced, a workload times whole TrainingSimulator::run() calls on one
// simulator until --seconds have passed and checks every run's per-epoch
// invariants. Traced, it makes one reference run() with record_trace on
// (the request stream feeds the LRU-replay and Belady oracles), then drives
// the same public classes the simulator's serial path uses, in the same
// order and with the same seeds, with a span around every layer call, and
// checks that this loop reproduces the reference run's per-epoch hits,
// accuracy and virtual time exactly.

#include <algorithm>
#include <cmath>
#include <limits>
#include <memory>
#include <optional>
#include <unordered_set>

#include "ann/hnsw.hpp"
#include "cache/basic_policies.hpp"
#include "cache/semantic_cache.hpp"
#include "core/elastic.hpp"
#include "core/graph_scorer.hpp"
#include "core/pipeline.hpp"
#include "core/samplers.hpp"
#include "nn/mlp_classifier.hpp"
#include "nn/optimizer.hpp"
#include "oracles.hpp"
#include "sim/config_io.hpp"
#include "sim/simulator.hpp"
#include "storage/remote_store.hpp"
#include "storage/resilient_store.hpp"
#include "storage/ssd_block_store.hpp"
#include "storage/ssd_tier.hpp"
#include "storage/wal.hpp"
#include "util/config.hpp"
#include "util/stats.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

using spider::metrics::EpochMetrics;
using spider::metrics::RunResult;
using spider::sim::SimConfig;
namespace storage = spider::storage;

/// configs/example.ini as of this benchmark: the paper's setting.
constexpr const char* kSpiderIni = R"ini(
[dataset]
preset = cifar10
scale = 0.06
[model]
name = resnet18
[run]
strategy = spider
epochs = 24
batch_size = 128
cache_fraction = 0.20
num_gpus = 1
[storage]
latency_ms = 4.5
parallelism = 2
parallel_cap = 6
ssd_enabled = false
[scorer]
lambda = 2.0
alpha = 0.15
surrogate_alpha = 0.35
neighbor_k = 32
min_update_distance = 0.03
[sampler]
floor = 0.05
[elastic]
enabled = true
r_start = 0.90
r_end = 0.80
[optimizer]
lr = 0.05
momentum = 0.9
weight_decay = 0.0005
)ini";

/// Long-tailed imagenet-like data behind an LRU memory cache and a
/// block-mode SSD tier whose 4 MiB budget is below the ~7 MiB working set,
/// with the residency WAL, transient faults the retries absorb, and one
/// kill -9 at the start of epoch kTieredRestartEpoch.
constexpr std::size_t kTieredEpochs = 12;
constexpr std::size_t kTieredRestartEpoch = 6;
constexpr const char* kTieredIni = R"ini(
[dataset]
preset = imagenet
scale = 0.03
[model]
name = resnet50
[run]
strategy = baseline
batch_size = 128
cache_fraction = 0.10
num_gpus = 1
[storage]
latency_ms = 4.5
parallelism = 2
parallel_cap = 6
ssd_enabled = true
ssd_items = 0
[ssd]
capacity_mb = 4
segment_mb = 1
bloom_bits_per_key = 10
[faults]
enabled = true
transient_prob = 0.02
spike_prob = 0.0
timeout_ms = 0
[resilience]
max_attempts = 6
[wal]
compact_every_epochs = 1
sync_every_append = false
)ini";

enum class Kind { kSpider, kTiered };

struct Workload {
    Kind kind;
    SimConfig config;
};

Workload make_workload(Kind kind, std::uint64_t seed, const ScratchDir& dir) {
    const bool spider = kind == Kind::kSpider;
    SimConfig config = spider::sim::sim_config_from(
        spider::util::Config::parse_string(spider ? kSpiderIni : kTieredIni));
    config.dataset.seed = seed;
    config.seed = seed;
    // Host independence: nothing defaults from hardware_concurrency.
    config.worker_threads = 1;
    config.cache_shards = 1;
    if (!spider) {
        config.epochs = kTieredEpochs;
        config.restart_epoch = kTieredRestartEpoch;
        config.ssd.path = dir.sub("segments");
        config.wal_dir = dir.sub("wal");
        config.faults.seed = 0xFA017ULL ^ (seed * 0x9E3779B97F4A7C15ULL);
    }
    return {kind, std::move(config)};
}

std::string epoch_tag(std::size_t epoch) {
    return "epoch " + std::to_string(epoch) + ": ";
}

/// Properties every run must have, whatever the seed.
void check_run(Outcome& out, const Workload& w, const RunResult& r,
               std::size_t dataset_size, std::size_t num_classes) {
    out.expect(r.epochs.size() == w.config.epochs, "all epochs ran");
    storage::SimDuration sum{};
    for (const EpochMetrics& em : r.epochs) {
        const std::string at = epoch_tag(em.epoch);
        sum += em.epoch_time;
        out.expect(em.hits + em.misses == em.accesses,
                   at + "hits + misses == accesses");
        out.expect(em.fault_skips == 0 && em.fault_substitutions == 0,
                   at + "no fetch skipped or substituted");
        if (w.kind == Kind::kSpider) {
            out.expect(em.accesses == dataset_size,
                       at + "accesses == dataset size");
            out.expect(em.importance_hits + em.homophily_hits == em.hits,
                       at + "importance + homophily hits == hits");
        } else {
            out.expect(em.accesses >= dataset_size,
                       at + "every sample accessed");
            out.expect(em.ssd_hits + em.ssd_misses == em.accesses - em.hits,
                       at + "ssd hits + misses == tier consults");
            if (em.epoch == w.config.restart_epoch) {
                out.expect(em.restored_items > 0,
                           at + "warm restart restored items");
            }
        }
    }
    out.expect(sum == r.total_time, "epoch times sum to total_time");
    out.expect(r.best_accuracy > 2.0 / static_cast<double>(num_classes),
               "best accuracy well above chance");
}

std::uint64_t failed_ops(const RunResult& r) {
    std::uint64_t failed = 0;
    for (const EpochMetrics& em : r.epochs) {
        failed += em.fault_skips + em.fault_substitutions;
    }
    return failed;
}

std::uint64_t total_accesses(const RunResult& r) {
    std::uint64_t total = 0;
    for (const EpochMetrics& em : r.epochs) total += em.accesses;
    return total;
}

std::size_t total_steps(const RunResult& r, std::size_t batch) {
    std::size_t steps = 0;
    for (const EpochMetrics& em : r.epochs) {
        steps += (em.accesses + batch - 1) / batch;
    }
    return steps;
}

bool same_decisions(const RunResult& a, const RunResult& b) {
    if (a.epochs.size() != b.epochs.size()) return false;
    for (std::size_t e = 0; e < a.epochs.size(); ++e) {
        const EpochMetrics& x = a.epochs[e];
        const EpochMetrics& y = b.epochs[e];
        if (x.accesses != y.accesses || x.hits != y.hits ||
            x.importance_hits != y.importance_hits ||
            x.homophily_hits != y.homophily_hits ||
            x.ssd_hits != y.ssd_hits || x.misses != y.misses ||
            x.test_accuracy != y.test_accuracy ||
            x.epoch_time != y.epoch_time) {
            return false;
        }
    }
    return true;
}

/// Reopens the tier's segment files and compares every record with the
/// sample's features regenerated from the dataset seed.
void check_segments(Outcome& out, const SimConfig& config,
                    const PayloadOracle& oracle) {
    storage::SsdBlockStoreConfig store_config;
    store_config.dir = config.ssd.path;
    store_config.segment_bytes = config.ssd.segment_mb << 20;
    store_config.bloom_bits_per_key = config.ssd.bloom_bits_per_key;
    storage::SsdBlockStore store{store_config};
    const std::vector<std::uint32_t> ids = store.live_ids();
    std::size_t equal = 0;
    for (const std::uint32_t id : ids) {
        const auto bytes = store.read(id);
        if (bytes.has_value() && oracle.matches(id, *bytes)) ++equal;
    }
    out.expect(!ids.empty(), "segment files hold records after the run");
    out.expect(equal == ids.size(),
               "every reopened record equals the regenerated features (" +
                   std::to_string(equal) + "/" + std::to_string(ids.size()) +
                   ")");
}

/// Independent oracles over the reference run's recorded request stream.
void check_stream(Outcome& out, const Workload& w, const RunResult& r,
                  std::size_t cache_items) {
    const auto& records = r.access_trace.records();
    out.expect(records.size() == total_accesses(r),
               "recorded stream covers every access");
    if (w.kind == Kind::kSpider) {
        std::vector<std::uint32_t> stream;
        stream.reserve(records.size());
        std::uint64_t importance_hits = 0;
        for (const auto& rec : records) {
            stream.push_back(rec.requested);
            if (rec.outcome == spider::trace::Outcome::kImportanceHit) {
                ++importance_hits;
            }
        }
        const std::uint64_t bound = belady_hits(stream, cache_items);
        out.detail("oracle.belady_hits", static_cast<double>(bound), "count");
        out.detail("oracle.importance_hits",
                   static_cast<double>(importance_hits), "count");
        out.expect(importance_hits <= bound,
                   "importance hits <= Belady hits at cache_items");
        return;
    }
    LruReplay replay{cache_items};
    std::vector<std::uint64_t> replay_hits(r.epochs.size(), 0);
    std::uint32_t current = 0;
    for (const auto& rec : records) {
        if (rec.epoch != current) {
            current = rec.epoch;
            if (current == w.config.restart_epoch) replay.clear();
        }
        if (replay.access(rec.requested) && rec.epoch < replay_hits.size()) {
            ++replay_hits[rec.epoch];
        }
    }
    for (const EpochMetrics& em : r.epochs) {
        out.expect(em.hits == replay_hits[em.epoch],
                   epoch_tag(em.epoch) + "LRU hits == independent replay (" +
                       std::to_string(em.hits) + " vs " +
                       std::to_string(replay_hits[em.epoch]) + ")");
    }
}

// ------------------------------------------------------------ traced loop

/// The members of core::SpiderCache, built as its constructor builds them,
/// so each call can be timed on its own.
struct SpiderParts {
    SpiderParts(const SimConfig& c, const spider::data::SyntheticDataset& ds,
                std::size_t cache_items)
        : homophily{c.strategy == spider::sim::StrategyKind::kSpider},
          elastic_enabled{c.elastic_enabled},
          total_epochs{c.epochs},
          index{ann_config(c)},
          scorer{index, c.scorer,
                 [&ds](std::uint32_t id) { return ds.label_of(id); }},
          cache{cache_items, homophily ? c.elastic.r_start : 1.0,
                c.cache_shards == 0 ? 1 : c.cache_shards,
                c.cache_lockfree_reads, c.policy},
          elastic{c.elastic},
          scores(ds.size(), 0.0),
          sampler{scores, spider::util::Rng{c.seed},
                  c.spider_sampler_floor} {}

    static spider::ann::HnswConfig ann_config(const SimConfig& c) {
        spider::ann::HnswConfig ann;
        ann.dim = c.model.sim_embedding_dim;
        ann.seed = c.seed ^ 0xA11CE5ULL;
        return ann;
    }

    [[nodiscard]] double score_std() const {
        spider::util::RunningStats stats;
        for (const double s : scores) {
            if (s > 0.0) stats.add(s);
        }
        return stats.stddev();
    }

    bool homophily;
    bool elastic_enabled;
    std::size_t total_epochs;
    spider::ann::HnswIndex index;
    spider::core::GraphImportanceScorer scorer;
    spider::cache::TwoLayerSemanticCache cache;
    spider::core::ElasticCacheManager elastic;
    std::vector<double> scores;
    spider::core::GraphIsSampler sampler;
    std::size_t epoch = 0;
    std::uint64_t upsert_distances = 0;
    std::uint64_t score_distances = 0;
    std::uint64_t scored = 0;
};

/// Counters the traced loop gathers beside its spans.
struct TracedCounters {
    std::size_t ssd_resident_min = std::numeric_limits<std::size_t>::max();
    std::uint64_t block_reads = 0;
    std::uint64_t disk_reads = 0;
    std::uint64_t segments_collected = 0;
    std::uint64_t fetch_retries = 0;
    double space_amp = 0.0;
};

constexpr std::uint32_t kDemandContext = 1;
constexpr std::uint32_t kSkipped = 0xFFFFFFFFU;

RunResult traced_run(const SimConfig& c,
                     const spider::data::SyntheticDataset& ds, SpanLog& log,
                     LayerCounts& layers, TracedCounters& tc) {
    SpanLog* const L = &log;
    const std::size_t n = ds.size();
    const auto cache_items = static_cast<std::size_t>(
        std::llround(c.cache_fraction * static_cast<double>(n)));
    const bool spider_kind = spider::sim::uses_graph_is(c.strategy);

    std::unique_ptr<SpiderParts> sp;
    std::unique_ptr<spider::cache::LruCache> lru;
    std::unique_ptr<spider::core::Sampler> sampler;
    const auto build_strategy = [&] {
        sampler = std::make_unique<spider::core::UniformSampler>(
            n, spider::util::Rng{c.seed ^ 0xC0FFEEULL});
        if (spider_kind) {
            sp = std::make_unique<SpiderParts>(c, ds, cache_items);
        } else {
            lru = std::make_unique<spider::cache::LruCache>(cache_items);
        }
    };
    build_strategy();

    spider::nn::MlpConfig mlp;
    mlp.input_dim = ds.feature_dim();
    mlp.hidden_dims = c.model.sim_hidden_dims;
    mlp.num_classes = ds.num_classes();
    mlp.sgd = c.sgd;
    mlp.seed = c.seed ^ 0x11DDULL;
    spider::nn::MlpClassifier model{mlp};

    const std::size_t global_batch = c.batch_size;
    const std::size_t fetch_slots = std::min(
        c.remote.parallelism, std::max<std::size_t>(c.storage_parallel_cap, 1));
    storage::RemoteStore remote{ds, c.remote};
    const double per_fetch_ms = storage::to_ms(remote.fetch_cost(0));

    RunResult result;
    storage::VirtualClock clock;
    auto ssd = std::make_unique<storage::SsdTier>(c.ssd);
    ssd->clear_store();
    const auto payload =
        [&ds](std::uint32_t id) -> std::span<const std::uint8_t> {
        const auto& f = ds.sample(id).features;
        return {reinterpret_cast<const std::uint8_t*>(f.data()),
                f.size() * sizeof(float)};
    };
    const bool ssd_block = ssd->block_mode();
    spider::util::Rng aug_rng{c.seed ^ 0xA067ULL};

    std::unique_ptr<storage::CacheWal> wal;
    if (!c.wal_dir.empty()) {
        wal = std::make_unique<storage::CacheWal>(storage::WalConfig{
            .enabled = true,
            .dir = c.wal_dir,
            .sync_every_append = c.wal_sync_every_append,
        });
    }
    const spider::cache::ResidencyListener listener =
        [&wal, L](const spider::cache::ResidencyRecord& record) {
            const ScopedSpan span{L, SpanName::kWalAppend, record.id};
            wal->append(record);
        };
    if (wal) {
        // Only the SSD tier logs: neither workload gives SpiderCache a WAL.
        ssd->set_residency_listener(listener);
        const ScopedSpan span{L, SpanName::kWalCompact};
        wal->compact({});
    }
    const bool faulty = c.faults.enabled;
    std::unique_ptr<storage::ResilientStore> resilient;
    if (faulty) {
        resilient = std::make_unique<storage::ResilientStore>(
            remote, c.faults, c.resilience);
    }

    // Folds a tier's block-store counters into the run totals (a restart
    // replaces the tier, and with it the counters).
    const auto fold_tier_stats = [&tc, &ssd] {
        const storage::SsdBlockStoreStats s = ssd->block_stats();
        tc.block_reads += s.reads;
        tc.disk_reads += s.disk_reads;
        tc.segments_collected += s.segments_collected;
    };

    for (std::size_t epoch = 0; epoch < c.epochs; ++epoch) {
        const auto etag = static_cast<std::uint32_t>(epoch);  // span tag
        std::vector<std::uint32_t> order;
        std::uint64_t restored = 0;
        {
            const ScopedSpan root{L, SpanName::kEpochBegin, etag};
            model.set_learning_rate(spider::nn::cosine_lr(
                c.sgd.learning_rate, c.lr_min, epoch, c.epochs));
            if (epoch != 0 && epoch == c.restart_epoch) {
                if (wal) wal->drop_unflushed();
                ssd->drop_unflushed();
                fold_tier_stats();
                if (resilient) {
                    tc.fetch_retries += resilient->counters().retries;
                }
                ssd.reset();
                build_strategy();
                const ScopedSpan span{L, SpanName::kRecovery, etag};
                ssd = std::make_unique<storage::SsdTier>(c.ssd);
                if (faulty) {
                    resilient = std::make_unique<storage::ResilientStore>(
                        remote, c.faults, c.resilience);
                }
                if (wal) {
                    ssd->set_residency_listener(listener);
                    restored += ssd->restore(wal->load().ssd);
                }
            }
            ssd->reset_counters();
            const ScopedSpan span{L, SpanName::kEpochOrder, etag};
            order = sp ? sp->sampler.epoch_order(sp->epoch)
                       : sampler->epoch_order(epoch);
        }

        EpochMetrics em;
        em.epoch = epoch;
        em.restored_items = restored;
        double loss_sum = 0.0;
        std::size_t loss_batches = 0;
        std::unordered_set<std::uint32_t> refilled;

        for (std::size_t start = 0; start < order.size();
             start += global_batch) {
            const ScopedSpan step{
                L, SpanName::kStep,
                static_cast<std::uint32_t>(start / global_batch)};
            const std::size_t count =
                std::min(global_batch, order.size() - start);
            const storage::SimDuration batch_now = clock.now();
            std::vector<std::uint32_t> served(count);
            std::vector<std::uint32_t> skipped;
            std::uint64_t hits = 0;
            std::uint64_t ssd_hits = 0;
            std::uint64_t misses = 0;
            std::uint64_t batch_ok = 0;
            std::uint64_t batch_failed = 0;
            double fault_extra_ms = 0.0;

            for (std::size_t i = 0; i < count; ++i) {
                const std::uint32_t id = order[start + i];
                served[i] = id;
                bool hit = false;
                if (sp) {
                    const spider::cache::Lookup lookup = traced(
                        L, SpanName::kLookup, id,
                        [&] { return sp->cache.lookup(id); });
                    served[i] = lookup.served_id;
                    if (lookup.kind == spider::cache::HitKind::kImportance) {
                        hit = true;
                        ++em.importance_hits;
                    } else if (lookup.kind ==
                               spider::cache::HitKind::kHomophily) {
                        hit = true;
                        ++em.homophily_hits;
                    } else {
                        const ScopedSpan span{L, SpanName::kAdmit, id};
                        (void)sp->cache.on_miss_fetched(
                            id, id < sp->scores.size() ? sp->scores[id] : 0.0);
                    }
                } else {
                    hit = traced(L, SpanName::kLruTouch, id,
                                 [&] { return lru->touch(id); });
                    if (!hit) {
                        const ScopedSpan span{L, SpanName::kLruAdmit, id};
                        (void)lru->admit(id);
                    }
                }
                if (hit) {
                    ++hits;
                    continue;
                }
                if (traced(L, SpanName::kSsdRead, id,
                           [&] { return ssd->fetch(id); })) {
                    ++ssd_hits;
                    continue;
                }
                bool fetched = true;
                {
                    const ScopedSpan span{L, SpanName::kRemoteFetch, id};
                    if (!faulty) {
                        (void)remote.fetch(id);
                    } else {
                        const storage::FetchResult r =
                            resilient->fetch(id, batch_now, kDemandContext);
                        if (r.ok) {
                            ++batch_ok;
                            fault_extra_ms +=
                                storage::to_ms(r.cost) - per_fetch_ms;
                        } else {
                            ++batch_failed;
                            fault_extra_ms += storage::to_ms(r.cost);
                            fetched = false;
                        }
                    }
                }
                if (!fetched) {
                    // Neither frontend used here offers a surrogate, so a
                    // failed fetch takes the skip-and-refill rung.
                    served[i] = kSkipped;
                    ++em.fault_skips;
                    skipped.push_back(id);
                    continue;
                }
                ++misses;
                {
                    const ScopedSpan span{L, SpanName::kSsdAppend, id};
                    if (ssd_block) {
                        ssd->insert(id, payload(id));
                    } else {
                        ssd->insert(id);
                    }
                }
                if (ssd_block) {
                    if (ssd->block_stats().segments_collected > 0) {
                        tc.ssd_resident_min = std::min(
                            tc.ssd_resident_min, ssd->resident_items());
                    }
                }
            }

            em.hits += hits;
            em.ssd_hits += ssd_hits;
            em.misses += ssd_hits + misses + batch_failed;
            em.accesses += count;
            if (start == 0) em.cold_start_misses += misses;
            if (faulty) {
                for (const std::uint32_t id : skipped) {
                    if (refilled.insert(id).second) order.push_back(id);
                }
                resilient->on_batch_end(batch_failed, batch_ok, batch_now);
                std::erase(served, kSkipped);
            }

            const std::size_t miss_rounds =
                (misses + fetch_slots - 1) / fetch_slots;
            const double fault_ms =
                faulty ? std::max(0.0, fault_extra_ms) /
                             static_cast<double>(fetch_slots)
                       : 0.0;
            const double load_ms =
                per_fetch_ms * static_cast<double>(miss_rounds) +
                storage::to_ms(ssd->batch_read_cost(ssd_hits, fetch_slots)) +
                c.hit_cost_ms * static_cast<double>(hits) /
                    static_cast<double>(fetch_slots) +
                fault_ms;
            em.fault_time += storage::from_ms(fault_ms);

            double stage2_scale = 1.0;
            if (!served.empty()) {
                spider::tensor::Matrix features;
                std::vector<std::uint32_t> labels;
                {
                    const ScopedSpan span{L, SpanName::kGather};
                    features = ds.gather_features_augmented(served, aug_rng);
                    labels = ds.gather_labels(served);
                }
                const spider::nn::ForwardResult fwd =
                    traced(L, SpanName::kForward, 0,
                           [&] { return model.forward(features, labels); });
                loss_sum += fwd.mean_loss;
                ++loss_batches;
                const std::vector<std::uint8_t> mask =
                    sampler->train_mask(served, fwd.per_sample_loss);
                if (!mask.empty()) {
                    const auto trained = static_cast<double>(std::count(
                        mask.begin(), mask.end(), std::uint8_t{1}));
                    stage2_scale = trained / static_cast<double>(mask.size());
                }
                {
                    const ScopedSpan span{L, SpanName::kBackward};
                    model.backward_and_step(labels, mask);
                }
                sampler->observe_losses(served, fwd.per_sample_loss);
                if (sp) {
                    // core::SpiderCache::observe_batch, call by call.
                    const std::uint64_t d0 = sp->index.distance_computations();
                    for (std::size_t i = 0; i < served.size(); ++i) {
                        const ScopedSpan span{L, SpanName::kUpsert, served[i]};
                        (void)sp->scorer.update_embedding(
                            served[i], fwd.embeddings.row(i));
                    }
                    const std::uint64_t d1 = sp->index.distance_computations();
                    std::vector<spider::core::ScoreResult> results =
                        traced(L, SpanName::kScoreBatch, 0, [&] {
                            return sp->scorer.score_batch(served, nullptr);
                        });
                    sp->upsert_distances += d1 - d0;
                    sp->score_distances +=
                        sp->index.distance_computations() - d1;
                    sp->scored += served.size();
                    std::size_t max_degree = 0;
                    std::uint32_t max_id = 0;
                    std::vector<std::uint32_t> max_neighbors;
                    {
                        const ScopedSpan span{L, SpanName::kRescore};
                        for (std::size_t i = 0; i < served.size(); ++i) {
                            const std::uint32_t id = served[i];
                            spider::core::ScoreResult& r = results[i];
                            if (id < sp->scores.size()) {
                                sp->scores[id] = r.score;
                                sp->cache.update_importance_score(id, r.score);
                            }
                            if (r.close_neighbor_ids.size() > max_degree) {
                                max_degree = r.close_neighbor_ids.size();
                                max_id = id;
                                max_neighbors = std::move(r.close_neighbor_ids);
                            }
                        }
                    }
                    if (sp->homophily && max_degree > 0) {
                        const ScopedSpan span{L, SpanName::kHomophily, max_id};
                        (void)sp->cache.update_homophily(max_id, max_neighbors);
                    }
                }
            }

            const double batch_fraction = static_cast<double>(served.size()) /
                                          static_cast<double>(global_batch);
            const double stage1_ms =
                load_ms + c.model.forward_ms * batch_fraction;
            const double stage2_ms =
                c.model.backward_ms * stage2_scale * batch_fraction;
            const double is_ms = c.model.is_ms * batch_fraction;
            const storage::SimDuration step_time =
                spider::core::pipelined_batch_time(
                    stage1_ms, stage2_ms, is_ms, c.model.long_is_pipeline,
                    spider_kind, c.pipeline_is, 0.0);
            clock.advance(step_time);
            em.load_time += storage::from_ms(load_ms);
            em.compute_time += storage::from_ms(
                c.model.forward_ms * batch_fraction + stage2_ms);
            if (spider_kind) em.is_time += storage::from_ms(is_ms);
            em.epoch_time += step_time;
        }

        const ScopedSpan root{L, SpanName::kEpochEnd, etag};
        em.train_loss = loss_batches == 0
                            ? 0.0
                            : loss_sum / static_cast<double>(loss_batches);
        em.test_accuracy = traced(L, SpanName::kEvaluate, 0, [&] {
            return model.evaluate(ds.test_features(), ds.test_labels());
        });
        if (sp) {
            const ScopedSpan span{L, SpanName::kEndEpoch};
            em.score_std = sp->score_std();
            const double ratio = sp->elastic.on_epoch(
                em.score_std, em.test_accuracy, sp->epoch, sp->total_epochs);
            ++sp->epoch;
            if (sp->elastic_enabled && sp->homophily) {
                sp->cache.set_imp_ratio(ratio);
            }
            em.imp_ratio = sp->cache.imp_ratio();
        } else {
            spider::util::RunningStats stats;
            for (std::uint32_t id = 0; id < n; ++id) {
                stats.add(sampler->importance_of(id));
            }
            em.score_std = stats.stddev();
        }
        em.ssd_misses = ssd->misses();
        if (wal && (epoch + 1) % c.wal_compact_every_epochs == 0) {
            const ScopedSpan span{L, SpanName::kWalCompact, etag};
            spider::cache::RestoreImage image;
            image.ssd = ssd->dump_residency();
            wal->compact(image);
        }
        {
            const ScopedSpan span{L, SpanName::kSsdFlush, etag};
            ssd->flush();
        }
        result.epochs.push_back(em);
        result.best_accuracy = std::max(result.best_accuracy, em.test_accuracy);
    }
    result.total_time = clock.now();
    result.final_accuracy =
        result.epochs.empty() ? 0.0 : result.epochs.back().test_accuracy;

    fold_tier_stats();
    if (resilient) tc.fetch_retries += resilient->counters().retries;
    if (ssd_block && ssd->resident_items() > 0) {
        const double payload_bytes =
            static_cast<double>(ds.feature_dim() * sizeof(float));
        tc.space_amp = static_cast<double>(ssd->bytes_used()) /
                       (static_cast<double>(ssd->resident_items()) *
                        payload_bytes);
    }
    if (sp) {
        layers.ann_upserts = static_cast<double>(sp->scorer.applied_updates());
        layers.ann_upserts_skipped =
            static_cast<double>(sp->scorer.skipped_updates());
        layers.ann_dist_per_upsert =
            sp->scorer.applied_updates() == 0
                ? 0.0
                : static_cast<double>(sp->upsert_distances) /
                      static_cast<double>(sp->scorer.applied_updates());
        layers.core_dist_per_score =
            sp->scored == 0 ? 0.0
                            : static_cast<double>(sp->score_distances) /
                                  static_cast<double>(sp->scored);
    }
    return result;
}

void add_run_details(Outcome& out, const RunResult& r) {
    out.detail("sim_minutes", r.total_minutes(), "min");
    out.detail("top1_accuracy", r.best_accuracy, "ratio");
    out.detail("final_accuracy", r.final_accuracy, "ratio");
    std::uint64_t hits = 0;
    std::uint64_t accesses = 0;
    std::uint64_t ssd_hits = 0;
    for (const EpochMetrics& em : r.epochs) {
        hits += em.hits;
        accesses += em.accesses;
        ssd_hits += em.ssd_hits;
    }
    out.detail("hits", static_cast<double>(hits), "count");
    out.detail("accesses", static_cast<double>(accesses), "count");
    out.detail("ssd_hits", static_cast<double>(ssd_hits), "count");
}

Outcome run_train(const Args& args, Kind kind) {
    Outcome out;
    const ScratchDir dir{std::filesystem::path{args.out_dir} / "tmp",
                         args.workload};
    const Workload w = make_workload(kind, args.seed, dir);

    // Set-up: dataset generation and simulator construction, eleven times
    // (a few milliseconds each for the small dataset).
    std::vector<double> setups;
    std::unique_ptr<spider::sim::TrainingSimulator> sim;
    for (int i = 0; i < 11; ++i) {
        sim.reset();
        const auto t0 = Clock::now();
        sim = std::make_unique<spider::sim::TrainingSimulator>(w.config);
        setups.push_back(seconds_since(t0));
    }
    const spider::data::SyntheticDataset& ds = sim->dataset();
    const std::size_t n = ds.size();
    const auto cache_items = static_cast<std::size_t>(
        std::llround(w.config.cache_fraction * static_cast<double>(n)));
    out.detail("dataset_size", static_cast<double>(n), "count");
    out.detail("cache_items", static_cast<double>(cache_items), "count");

    if (!args.trace) {
        std::vector<double> rates;
        std::vector<double> step_us;
        std::optional<RunResult> first;
        const auto t_begin = Clock::now();
        while (!first || seconds_since(t_begin) < args.seconds) {
            const auto t0 = Clock::now();
            RunResult r = sim->run();
            const double wall = seconds_since(t0);
            const std::uint64_t accesses = total_accesses(r);
            rates.push_back(static_cast<double>(accesses) / wall);
            step_us.push_back(
                wall * 1e6 /
                static_cast<double>(total_steps(r, w.config.batch_size)));
            check_run(out, w, r, n, ds.num_classes());
            out.attempted += accesses;
            out.failed += failed_ops(r);
            if (!first) {
                first = std::move(r);
            } else {
                out.expect(same_decisions(*first, r),
                           "repeated run() gives identical epochs");
            }
        }
        if (kind == Kind::kTiered) {
            check_segments(out, w.config, PayloadOracle{w.config.dataset});
        }
        out.metric("setup_s", median(setups), "s");
        out.metric("ops_per_s", median(rates), "1/s");
        const auto [lo, hi] = std::minmax_element(setups.begin(), setups.end());
        out.detail("setup_s_min", *lo, "s");
        out.detail("setup_s_max", *hi, "s");
        out.metric("latency_us", median(step_us), "us");
        out.metric("hit_ratio", first->average_hit_ratio(), "ratio");
        out.metric("peak_rss_mb", peak_rss_mib(), "MiB");
        out.detail("runs", static_cast<double>(rates.size()), "count");
        add_run_details(out, *first);
        return out;
    }

    // Traced run: the reference run() records its request stream.
    SimConfig ref_config = w.config;
    ref_config.record_trace = true;
    sim.reset();
    sim = std::make_unique<spider::sim::TrainingSimulator>(ref_config);
    const auto t_ref = Clock::now();
    const RunResult ref = sim->run();
    const double ref_wall = seconds_since(t_ref);
    check_run(out, w, ref, n, sim->dataset().num_classes());
    check_stream(out, w, ref, cache_items);
    if (kind == Kind::kTiered) {
        check_segments(out, w.config, PayloadOracle{w.config.dataset});
    }
    out.attempted += total_accesses(ref);
    out.failed += failed_ops(ref);
    add_run_details(out, ref);

    Tracer tracer;
    SpanLog& log = tracer.new_log("trainer");
    LayerCounts layers;
    TracedCounters tc;
    const auto t_traced = Clock::now();
    const RunResult traced =
        traced_run(w.config, sim->dataset(), log, layers, tc);
    const double traced_wall = seconds_since(t_traced);

    out.expect(traced.epochs.size() == ref.epochs.size(),
               "traced run has every epoch");
    for (std::size_t e = 0;
         e < std::min(traced.epochs.size(), ref.epochs.size()); ++e) {
        const EpochMetrics& a = traced.epochs[e];
        const EpochMetrics& b = ref.epochs[e];
        const std::string at = epoch_tag(e);
        out.expect(a.accesses == b.accesses && a.hits == b.hits &&
                       a.importance_hits == b.importance_hits &&
                       a.homophily_hits == b.homophily_hits &&
                       a.ssd_hits == b.ssd_hits && a.misses == b.misses,
                   at + "traced hits equal run() (" + std::to_string(a.hits) +
                       " vs " + std::to_string(b.hits) + ")");
        out.expect(a.test_accuracy == b.test_accuracy,
                   at + "traced accuracy equals run()");
        out.expect(a.epoch_time == b.epoch_time,
                   at + "traced virtual time equals run()");
        out.expect(a.restored_items == b.restored_items,
                   at + "traced restore equals run()");
    }

    layers.disk_reads_per_read =
        tc.block_reads == 0 ? 0.0
                            : static_cast<double>(tc.disk_reads) /
                                  static_cast<double>(tc.block_reads);
    layers.segments_collected = static_cast<double>(tc.segments_collected);
    layers.space_amp = tc.space_amp;
    layers.fetch_retries = static_cast<double>(tc.fetch_retries);
    std::uint64_t ssd_hits = 0;
    std::uint64_t consults = 0;
    for (const EpochMetrics& em : traced.epochs) {
        ssd_hits += em.ssd_hits;
        consults += em.accesses - em.hits;
    }
    layers.ssd_hit_ratio = consults == 0 ? 0.0
                                         : static_cast<double>(ssd_hits) /
                                               static_cast<double>(consults);
    layers.ssd_resident_min =
        tc.ssd_resident_min == std::numeric_limits<std::size_t>::max()
            ? 0.0
            : static_cast<double>(tc.ssd_resident_min);
    layers.other_ms_per_epoch =
        (traced_wall * 1e9 - tracer.layer_covered_ns()) / 1e6 /
        static_cast<double>(std::max<std::size_t>(w.config.epochs, 1));
    layers.overhead_pct = (traced_wall / ref_wall - 1.0) * 100.0;
    add_layer_metrics(out, tracer, layers);
    out.detail("reference_wall_s", ref_wall, "s");
    out.detail("traced_wall_s", traced_wall, "s");
    dump_spans(args, tracer, out);
    return out;
}

}  // namespace

Outcome run_train_spider(const Args& args) {
    return run_train(args, Kind::kSpider);
}

Outcome run_train_tiered(const Args& args) {
    return run_train(args, Kind::kTiered);
}

}  // namespace perfbench
