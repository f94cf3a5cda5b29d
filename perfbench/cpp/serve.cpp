// The served-cache workload: an in-process SpiderServer with the production
// miss path of tools/spider_server_main.cpp (a block-mode SsdTier in front
// of a RemoteStore), one tenant, and three closed-loop clients that each
// flush pipelines of eight frames: ~85% GET_DATA, ~10% PUT_SCORE and ~5%
// PUT_NEIGHBORS over Zipf-skewed ids, eight times as many ids as the cache
// holds. Every reply is checked on the client side, outside the timed
// round trip.

#include <dirent.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <exception>
#include <fstream>
#include <memory>
#include <optional>
#include <random>
#include <set>
#include <sstream>
#include <thread>

#include "data/presets.hpp"
#include "oracles.hpp"
#include "server/client.hpp"
#include "server/server.hpp"
#include "storage/remote_store.hpp"
#include "storage/ssd_tier.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

namespace server = spider::server;
namespace storage = spider::storage;

constexpr std::size_t kCacheItems = 4096;
constexpr std::size_t kIdSpace = 8 * kCacheItems;
constexpr std::size_t kClients = 3;
constexpr std::size_t kPipeline = 8;
constexpr std::size_t kNeighbors = 8;
constexpr double kZipfExponent = 0.9;
constexpr std::size_t kWarmupFrames = 48 * 1024;
constexpr std::size_t kSetups = 5;
constexpr std::uint8_t kTenant = 0;

/// Zipf-distributed ids: rank r is drawn with weight 1/(r+1)^s, and ranks
/// map to ids through a seeded permutation so popularity is not id order.
class ZipfIds {
public:
    ZipfIds(std::size_t n, double exponent, std::uint64_t seed)
        : cdf_(n), id_of_rank_(n) {
        double total = 0.0;
        for (std::size_t r = 0; r < n; ++r) {
            total += 1.0 / std::pow(static_cast<double>(r + 1), exponent);
            cdf_[r] = total;
        }
        for (double& c : cdf_) c /= total;
        for (std::size_t r = 0; r < n; ++r) {
            id_of_rank_[r] = static_cast<std::uint32_t>(r);
        }
        std::mt19937_64 rng{seed};
        std::shuffle(id_of_rank_.begin(), id_of_rank_.end(), rng);
    }

    [[nodiscard]] std::size_t rank(std::mt19937_64& rng) const {
        const double u = std::uniform_real_distribution<double>{}(rng);
        const auto it = std::lower_bound(cdf_.begin(), cdf_.end(), u);
        return std::min<std::size_t>(
            static_cast<std::size_t>(it - cdf_.begin()), cdf_.size() - 1);
    }
    [[nodiscard]] std::uint32_t id(std::size_t rank) const {
        return id_of_rank_[rank % id_of_rank_.size()];
    }

private:
    std::vector<double> cdf_;
    std::vector<std::uint32_t> id_of_rank_;
};

/// Server, miss path and hooks. The hooks run on the server's loop thread
/// only; `hook_log` is that thread's span log in a traced phase.
struct Rig {
    Rig(const Args& args, const spider::data::DatasetSpec& spec)
        : dir{std::filesystem::path{args.out_dir} / "tmp", args.workload},
          dataset{spec},
          remote{dataset, storage::RemoteStoreConfig{
                              .latency_per_sample = storage::from_ms(4.5),
                              .bytes_per_ms = 1.25e6,
                              .parallelism = 2,
                          }},
          ssd{storage::SsdTierConfig{
              .enabled = true,
              .capacity_items = 0,
              .path = dir.sub("segments"),
              .capacity_mb = 0,
              .segment_mb = 1,
              .bloom_bits_per_key = 10,
          }},
          srv{server_config(),
              [this](std::uint8_t, std::uint32_t id, storage::SimDuration) {
                  return miss_fetch(id);
              },
              [this](std::uint8_t, std::uint32_t id) {
                  const ScopedSpan span{hook_log, SpanName::kPayloadRead, id};
                  return sample_bytes(id);
              }} {}

    static server::ServerConfig server_config() {
        server::ServerConfig config;
        config.port = 0;
        config.max_pipeline = 64;
        config.cache_items = kCacheItems;
        // Explicit, so the shard count does not follow the host's cores.
        config.cache_shards = 4;
        config.lockfree_reads = true;
        config.tenants = {server::TenantSpec{.capacity_pct = 100.0,
                                             .imp_ratio = 0.9,
                                             .policies = {}}};
        return config;
    }

    [[nodiscard]] std::vector<std::uint8_t> sample_bytes(
        std::uint32_t id) const {
        const auto& f =
            dataset.sample(id % static_cast<std::uint32_t>(dataset.size()))
                .features;
        const auto* p = reinterpret_cast<const std::uint8_t*>(f.data());
        return {p, p + f.size() * sizeof(float)};
    }

    server::MissOutcome miss_fetch(std::uint32_t id) {
        const ScopedSpan hook{hook_log, SpanName::kMissHook, id};
        std::optional<std::vector<std::uint8_t>> stored =
            traced(hook_log, SpanName::kSsdRead, id,
                   [&] { return ssd.fetch_payload(id); });
        if (stored) {
            return {.ok = true,
                    .from_ssd = true,
                    .payload = std::move(*stored)};
        }
        {
            const ScopedSpan span{hook_log, SpanName::kRemoteFetch, id};
            (void)remote.fetch(id % static_cast<std::uint32_t>(dataset.size()));
        }
        std::vector<std::uint8_t> payload = sample_bytes(id);
        {
            const ScopedSpan span{hook_log, SpanName::kSsdAppend, id};
            ssd.insert(id, payload);
        }
        return {.ok = true, .from_ssd = false, .payload = std::move(payload)};
    }

    ScratchDir dir;
    spider::data::SyntheticDataset dataset;
    storage::RemoteStore remote;
    storage::SsdTier ssd;
    SpanLog* hook_log = nullptr;
    server::SpiderServer srv;
};

/// What one client saw in one phase.
struct ClientTally {
    std::uint64_t frames = 0;
    std::uint64_t failed = 0;
    std::uint64_t gets = 0;
    std::uint64_t memory_hits = 0;
    std::uint64_t homophily_hits = 0;
    std::uint64_t ssd_served = 0;
    std::uint64_t bad_payloads = 0;
    std::uint64_t bad_homophily = 0;
    std::uint64_t bad_replies = 0;
    std::vector<double> flush_us;

    void merge(const ClientTally& o) {
        frames += o.frames;
        failed += o.failed;
        gets += o.gets;
        memory_hits += o.memory_hits;
        homophily_hits += o.homophily_hits;
        ssd_served += o.ssd_served;
        bad_payloads += o.bad_payloads;
        bad_homophily += o.bad_homophily;
        bad_replies += o.bad_replies;
        flush_us.insert(flush_us.end(), o.flush_us.begin(), o.flush_us.end());
    }
};

enum class FrameKind : std::uint8_t { kGetData, kPutScore, kPutNeighbors };

/// One closed-loop client: build a pipeline, flush it, check the replies.
class ClientLoop {
public:
    ClientLoop(const ZipfIds& zipf, const PayloadOracle& oracle,
               NeighborLog& log, std::uint64_t seed)
        : zipf_{zipf}, oracle_{oracle}, log_{log}, rng_{seed} {}

    /// Sends one pipeline of `frames` frames; `get_only` for warm-up.
    void flush_once(server::Client& client, std::size_t frames, bool get_only,
                    ClientTally& tally, SpanLog* span_log) {
        kinds_.clear();
        ids_.clear();
        for (std::size_t f = 0; f < frames; ++f) {
            const std::size_t rank = zipf_.rank(rng_);
            const std::uint32_t id = zipf_.id(rank);
            const double u = std::uniform_real_distribution<double>{}(rng_);
            // Popular samples carry higher scores, with per-request noise.
            const double score =
                (1.0 + u) / std::sqrt(static_cast<double>(rank + 1));
            if (get_only || u < 0.85) {
                client.queue_get_data(kTenant, id, score);
                kinds_.push_back(FrameKind::kGetData);
            } else if (u < 0.95) {
                client.queue_put_score(kTenant, id, score * 2.0);
                kinds_.push_back(FrameKind::kPutScore);
            } else {
                neighbors_.clear();
                for (std::size_t k = 1; k <= kNeighbors; ++k) {
                    neighbors_.push_back(zipf_.id(rank + k));
                }
                log_.record(id, neighbors_);
                client.queue_put_neighbors(kTenant, id, neighbors_);
                kinds_.push_back(FrameKind::kPutNeighbors);
            }
            ids_.push_back(id);
        }
        std::vector<server::Response> replies;
        {
            const ScopedSpan span{span_log, SpanName::kFlush};
            const auto t0 = Clock::now();
            replies = client.flush();
            tally.flush_us.push_back(seconds_since(t0) * 1e6);
        }
        tally.frames += frames;
        if (replies.size() != frames) {
            tally.bad_replies += frames;
            tally.failed += frames;
            return;
        }
        for (std::size_t f = 0; f < frames; ++f) check(replies[f], f, tally);
    }

private:
    void check(const server::Response& reply, std::size_t f,
               ClientTally& tally) const {
        if (reply.status != server::Status::kOk) {
            ++tally.failed;
            return;
        }
        if (kinds_[f] != FrameKind::kGetData) {
            const auto want = kinds_[f] == FrameKind::kPutScore
                                  ? server::Op::kPutScore
                                  : server::Op::kPutNeighbors;
            if (reply.op != want) ++tally.bad_replies;
            return;
        }
        ++tally.gets;
        const auto data = server::decode_get_data_reply(reply.payload);
        if (reply.op != server::Op::kGetData || !data) {
            ++tally.bad_replies;
            return;
        }
        const server::GetReply& base = data->base;
        switch (base.kind) {
            case server::ServeKind::kFetchFailed:
                ++tally.failed;
                return;
            case server::ServeKind::kImportanceHit:
                ++tally.memory_hits;
                break;
            case server::ServeKind::kHomophilyHit:
                ++tally.memory_hits;
                ++tally.homophily_hits;
                if (!log_.holds(base.served_id, ids_[f])) ++tally.bad_homophily;
                break;
            case server::ServeKind::kMissSsd:
                ++tally.ssd_served;
                break;
            case server::ServeKind::kMissAdmitted:
            case server::ServeKind::kMissRejected:
                break;
        }
        if (base.kind != server::ServeKind::kHomophilyHit &&
            base.served_id != ids_[f]) {
            ++tally.bad_replies;
        }
        if (!oracle_.matches(base.served_id, data->payload)) {
            ++tally.bad_payloads;
        }
    }

    const ZipfIds& zipf_;
    const PayloadOracle& oracle_;
    NeighborLog& log_;
    std::mt19937_64 rng_;
    std::vector<FrameKind> kinds_;
    std::vector<std::uint32_t> ids_;
    std::vector<std::uint32_t> neighbors_;
};

std::uint64_t client_seed(std::uint64_t seed, std::size_t client) {
    return seed * 0x9E3779B97F4A7C15ULL + 0x5E7E + client;
}

struct Phase {
    ClientTally tally;
    double wall = 0.0;
    /// Frames completed per second in each one-second window.
    std::vector<double> window_rates;
};

/// Runs the three clients for `seconds`: client 0 on the calling thread,
/// the others on threads of their own, client i pinned to CPU slot i + 1
/// (the loop thread has slot 0), so the phase uses one thread per core.
Phase run_phase(Rig& rig, std::vector<ClientLoop>& loops, double seconds,
                const std::vector<SpanLog*>& client_logs) {
    std::vector<server::Client> clients(kClients);
    for (server::Client& c : clients) c.connect("127.0.0.1", rig.srv.port());
    std::vector<ClientTally> tallies(kClients);
    std::atomic<bool> stop{false};
    std::atomic<std::size_t> ready{0};
    std::atomic<bool> go{false};
    std::atomic<std::uint64_t> frames{0};
    std::vector<std::exception_ptr> errors(kClients);
    const auto run_client = [&](std::size_t i) {
        try {
            loops[i].flush_once(clients[i], kPipeline, false, tallies[i],
                                client_logs[i]);
            frames.fetch_add(kPipeline, std::memory_order_relaxed);
        } catch (...) {
            // A broken connection ends the phase; the error is rethrown
            // after every client thread has been joined.
            errors[i] = std::current_exception();
            stop.store(true);
        }
    };
    std::vector<std::thread> threads;
    threads.reserve(kClients - 1);
    for (std::size_t i = 1; i < kClients; ++i) {
        threads.emplace_back([&, i] {
            pin_thread(0, i + 1);
            ready.fetch_add(1);
            while (!go.load()) std::this_thread::yield();
            while (!stop.load(std::memory_order_relaxed)) run_client(i);
        });
    }
    const PinnedScope pinned{1};
    while (ready.load() < kClients - 1) std::this_thread::yield();
    Phase phase;
    const auto t0 = Clock::now();
    const auto deadline = t0 + std::chrono::duration_cast<Clock::duration>(
                                   std::chrono::duration<double>(seconds));
    auto window_start = t0;
    std::uint64_t window_frames = 0;
    go.store(true);
    while (!stop.load(std::memory_order_relaxed)) {
        run_client(0);
        const auto now = Clock::now();
        if (now < deadline && now - window_start < std::chrono::seconds(1)) {
            continue;
        }
        const std::uint64_t done = frames.load(std::memory_order_relaxed);
        const double span =
            std::chrono::duration<double>(now - window_start).count();
        if (span >= 0.5) {
            phase.window_rates.push_back(
                static_cast<double>(done - window_frames) / span);
        }
        window_start = now;
        window_frames = done;
        if (now >= deadline) stop.store(true);
    }
    for (std::thread& t : threads) t.join();
    for (const std::exception_ptr& e : errors) {
        if (e) std::rethrow_exception(e);
    }
    phase.wall = seconds_since(t0);
    for (const ClientTally& t : tallies) phase.tally.merge(t);
    return phase;
}

std::set<long> task_ids() {
    std::set<long> ids;
    if (DIR* d = ::opendir("/proc/self/task")) {
        while (const dirent* e = ::readdir(d)) {
            if (e->d_name[0] != '.') ids.insert(std::atol(e->d_name));
        }
        ::closedir(d);
    }
    return ids;
}

/// CPU time (user + system) a thread of this process has used, in µs.
double thread_cpu_us(long tid) {
    std::ifstream stat{"/proc/self/task/" + std::to_string(tid) + "/stat"};
    std::string text;
    std::getline(stat, text);
    const auto close = text.rfind(')');
    if (close == std::string::npos) return 0.0;
    std::istringstream fields{text.substr(close + 2)};
    std::string field;
    double utime = 0.0;
    double stime = 0.0;
    // Fields after the command name start at field 3 (state); utime and
    // stime are fields 14 and 15.
    for (int index = 3; index <= 15 && (fields >> field); ++index) {
        if (index == 14) utime = std::stod(field);
        if (index == 15) stime = std::stod(field);
    }
    return (utime + stime) * 1e6 / static_cast<double>(::sysconf(_SC_CLK_TCK));
}

void check_tally(Outcome& out, const ClientTally& t, const std::string& phase) {
    out.expect(t.bad_payloads == 0,
               phase + ": every GET_DATA payload equals the served id's "
                       "regenerated features (" +
                   std::to_string(t.bad_payloads) + " differ)");
    out.expect(t.bad_homophily == 0,
               phase + ": every homophily hit serves a key sent with the "
                       "requested id in PUT_NEIGHBORS (" +
                   std::to_string(t.bad_homophily) + " do not)");
    out.expect(t.bad_replies == 0,
               phase + ": every reply matches its request (" +
                   std::to_string(t.bad_replies) + " do not)");
}

}  // namespace

Outcome run_serve_mixed(const Args& args) {
    Outcome out;
    spider::data::DatasetSpec spec =
        spider::data::cifar10_like(0.06, args.seed);
    spec.num_samples = kIdSpace;
    const PayloadOracle oracle{spec};
    const ZipfIds zipf{kIdSpace, kZipfExponent, args.seed ^ 0x21FFULL};
    NeighborLog neighbor_log;

    // Set-up: dataset, server construction and start, and an untimed
    // warm-up that fills the cache and the SSD tier; five times. The
    // warm-up client runs on the first client's CPU, never the loop's.
    std::vector<double> setups;
    std::unique_ptr<Rig> rig;
    std::set<long> loop_threads;
    ClientTally warm;
    for (std::size_t i = 0; i < kSetups; ++i) {
        const PinnedScope pinned{1};
        rig.reset();
        warm = {};
        const auto t0 = Clock::now();
        rig = std::make_unique<Rig>(args, spec);
        const std::set<long> before = task_ids();
        rig->srv.start();
        loop_threads.clear();
        for (const long tid : task_ids()) {
            if (!before.contains(tid)) loop_threads.insert(tid);
        }
        for (const long tid : loop_threads) {
            pin_thread(static_cast<pid_t>(tid), 0);
        }
        server::Client client;
        client.connect("127.0.0.1", rig->srv.port());
        ClientLoop warmer{zipf, oracle, neighbor_log,
                          client_seed(args.seed, 99)};
        for (std::size_t sent = 0; sent < kWarmupFrames; sent += 64) {
            warmer.flush_once(client, 64, true, warm, nullptr);
        }
        setups.push_back(seconds_since(t0));
    }
    check_tally(out, warm, "warm-up");
    out.expect(warm.failed == 0, "warm-up: no request failed");

    std::vector<ClientLoop> loops;
    loops.reserve(kClients);
    for (std::size_t i = 0; i < kClients; ++i) {
        loops.emplace_back(zipf, oracle, neighbor_log,
                             client_seed(args.seed, i));
    }
    const std::vector<SpanLog*> untraced(kClients, nullptr);
    const server::StatsReply s0 = rig->srv.stats();
    Phase phase;
    LayerCounts layers;
    Tracer tracer;
    if (!args.trace) {
        phase = run_phase(*rig, loops, args.seconds, untraced);
    } else {
        // Untraced half, then traced half: the throughput difference is
        // the tracing overhead.
        const Phase plain =
            run_phase(*rig, loops, args.seconds / 2.0, untraced);
        check_tally(out, plain.tally, "untraced half");
        out.attempted += plain.tally.frames;
        out.failed += plain.tally.failed;

        std::vector<SpanLog*> logs;
        for (std::size_t i = 0; i < kClients; ++i) {
            logs.push_back(&tracer.new_log("client" + std::to_string(i)));
        }
        // The hook log is set while no request is in flight; the loop
        // thread reads it only inside hooks.
        rig->hook_log = &tracer.new_log("server-loop");
        const server::StatsReply t0_stats = rig->srv.stats();
        double cpu0 = 0.0;
        for (const long tid : loop_threads) cpu0 += thread_cpu_us(tid);
        const storage::SsdBlockStoreStats b0 = rig->ssd.block_stats();
        phase = run_phase(*rig, loops, args.seconds / 2.0, logs);
        const ClientTally& tally = phase.tally;
        double cpu1 = 0.0;
        for (const long tid : loop_threads) cpu1 += thread_cpu_us(tid);
        const server::StatsReply t1_stats = rig->srv.stats();
        const storage::SsdBlockStoreStats b1 = rig->ssd.block_stats();

        const auto frames =
            static_cast<double>(t1_stats.frames - t0_stats.frames);
        const auto batches =
            static_cast<double>(t1_stats.batches - t0_stats.batches);
        layers.frames_per_batch = batches == 0.0 ? 0.0 : frames / batches;
        layers.loop_cpu_us_per_op =
            frames == 0.0 ? 0.0 : (cpu1 - cpu0) / frames;
        const auto gets =
            static_cast<double>(std::max<std::uint64_t>(tally.gets, 1));
        layers.memory_hit_ratio = static_cast<double>(tally.memory_hits) / gets;
        layers.ssd_served_ratio = static_cast<double>(tally.ssd_served) / gets;
        const auto block_reads = static_cast<double>(b1.reads - b0.reads);
        layers.disk_reads_per_read =
            block_reads == 0.0
                ? 0.0
                : static_cast<double>(b1.disk_reads - b0.disk_reads) /
                      block_reads;
        layers.segments_collected = static_cast<double>(b1.segments_collected);
        const std::size_t resident = rig->ssd.resident_items();
        layers.space_amp =
            resident == 0
                ? 0.0
                : static_cast<double>(rig->ssd.bytes_used()) /
                      (static_cast<double>(resident) *
                       static_cast<double>(spec.feature_dim * sizeof(float)));
        layers.overhead_pct =
            (median(plain.window_rates) / median(phase.window_rates) - 1.0) *
            100.0;
    }
    const ClientTally& tally = phase.tally;
    check_tally(out, tally, "timed");
    out.attempted += tally.frames;
    out.failed += tally.failed;

    // STATS over the wire: every frame sent was answered, none in error.
    server::Client admin;
    admin.connect("127.0.0.1", rig->srv.port());
    const server::StatsReply stats = admin.stats();
    const std::uint64_t sent = s0.frames + out.attempted;
    out.expect(stats.frames == sent,
               "STATS frames (" + std::to_string(stats.frames) +
                   ") equal the frames sent (" + std::to_string(sent) + ")");
    out.expect(stats.errors == 0, "STATS errors == 0");
    out.expect(stats.dropped_frames == 0, "STATS dropped_frames == 0");
    admin.close();
    rig->srv.stop();
    rig->hook_log = nullptr;

    const auto gets =
        static_cast<double>(std::max<std::uint64_t>(tally.gets, 1));
    out.detail("serve_p50_us", percentile(tally.flush_us, 50.0), "us");
    out.detail("serve_p99_us", percentile(tally.flush_us, 99.0), "us");
    out.detail("flushes", static_cast<double>(tally.flush_us.size()), "count");
    out.detail("mean_ops_per_s", static_cast<double>(tally.frames) / phase.wall,
               "1/s");
    out.detail("homophily_hits", static_cast<double>(tally.homophily_hits),
               "count");
    out.detail("ssd_served_ratio", static_cast<double>(tally.ssd_served) / gets,
               "ratio");
    if (!args.trace) {
        out.metric("setup_s", median(setups), "s");
        out.metric("ops_per_s", median(phase.window_rates), "1/s");
        out.metric("latency_us", percentile(tally.flush_us, 50.0), "us");
        out.metric("hit_ratio", static_cast<double>(tally.memory_hits) / gets,
                   "ratio");
        out.metric("peak_rss_mb", peak_rss_mib(), "MiB");
        return out;
    }
    add_layer_metrics(out, tracer, layers);
    dump_spans(args, tracer, out);
    return out;
}

}  // namespace perfbench
