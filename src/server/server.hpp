#pragma once

// Cache-as-a-service front door (DESIGN.md §10): a poll(2)-driven event
// loop serving the length-prefixed binary protocol of protocol.hpp over
// loopback/LAN TCP. Design points:
//
//   pipelining  a connection may send any number of request frames back
//               to back; the server answers strictly in order.
//   batching    each readable socket is drained to EAGAIN, then every
//               complete frame in the buffer (up to max_pipeline per
//               chunk) is serviced in one pass and the responses leave in
//               a single gathered write — the syscall amplification that
//               bench_netbench measures.
//   lock-free   the hot GET/PROBE path rides the tenant caches' seqlock
//               residency views (PR 5), so the event loop adds zero locks
//               of its own; admissions take only the touched shard's
//               mutex inside the cache.
//
// The loop runs on one background thread (start()/stop()); poll keeps it
// portable (no epoll dependency), and at the few-hundred-connection scale
// of the netbench the fd-scan cost is noise against the cache work.

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "server/protocol.hpp"
#include "server/tenants.hpp"
#include "storage/clock.hpp"

namespace spider::server {

struct ServerConfig {
    std::string host = "127.0.0.1";
    /// 0 = ephemeral; the bound port is reported by port() after start().
    std::uint16_t port = 0;
    /// Frames serviced per connection per batch chunk: the responses of
    /// one chunk are flushed together, so this bounds both the gathered
    /// write size and how long one greedy pipeliner can hold the loop.
    std::size_t max_pipeline = 64;
    /// Server-wide cache budget in items, split across tenants.
    std::size_t cache_items = 4096;
    /// Shard count per tenant cache (0 = auto: min(16, hw, tenant slice)).
    /// An explicit count above a tenant's item slice is rejected.
    std::size_t cache_shards = 0;
    /// Seqlock read path on the tenant caches.
    bool lockfree_reads = true;
    std::vector<TenantSpec> tenants{TenantSpec{}};
};

/// Outcome of a backing-store fetch on the GET miss path.
struct MissOutcome {
    bool ok = true;        ///< false = fetch failed (nothing admitted)
    bool from_ssd = false; ///< served by the shared SSD tier
    /// Sample bytes that came back with the fetch (SSD block-store read
    /// or remote payload). Returned verbatim by GET_DATA; plain GET
    /// ignores it.
    std::vector<std::uint8_t> payload;
};

/// Backing fetch hook: SSD tier + ResilientStore in production wiring
/// (tools/spider_server_main.cpp), a stub in pure-cache deployments and
/// most tests. `now` is the server's virtual clock (steady time since
/// start), which drives fault-model outage windows. Called only from the
/// event-loop thread.
using MissFetchFn = std::function<MissOutcome(
    std::uint8_t tenant, std::uint32_t id, storage::SimDuration now)>;

/// Payload source for GET_DATA requests served from the in-memory cache
/// (a hit never reaches miss_fetch, so the bytes come from here — the
/// dataset/decode layer in production wiring). Empty return = no bytes.
/// Called only from the event-loop thread.
using PayloadReadFn = std::function<std::vector<std::uint8_t>(
    std::uint8_t tenant, std::uint32_t id)>;

class SpiderServer {
public:
    explicit SpiderServer(ServerConfig config, MissFetchFn miss_fetch = {},
                          PayloadReadFn payload_read = {});
    ~SpiderServer();

    SpiderServer(const SpiderServer&) = delete;
    SpiderServer& operator=(const SpiderServer&) = delete;

    /// Binds, listens, and spawns the event-loop thread. Throws
    /// std::runtime_error on socket/bind failure.
    void start();
    /// Idempotent; joins the loop thread and closes every connection.
    void stop();

    [[nodiscard]] bool running() const {
        return running_.load(std::memory_order_acquire);
    }
    /// Bound port (valid after start(); resolves port 0 requests).
    [[nodiscard]] std::uint16_t port() const { return bound_port_; }
    [[nodiscard]] const ServerConfig& config() const { return config_; }

    [[nodiscard]] TenantCacheManager& tenants() { return tenants_; }
    [[nodiscard]] const TenantCacheManager& tenants() const {
        return tenants_;
    }

    /// Snapshot of the server-wide counters (same data the STATS op
    /// returns; safe from any thread).
    [[nodiscard]] StatsReply stats() const;

private:
    struct Conn {
        int fd = -1;
        FrameDecoder decoder;
        std::vector<std::uint8_t> wbuf;
        std::size_t woff = 0;
        bool want_write = false;
        /// Poisoned stream or fatal write error: close once drained.
        bool closing = false;
    };

    void run_loop();
    void accept_ready();
    /// Drains the socket, services buffered frames in max_pipeline-sized
    /// chunks with one gathered flush per chunk. Returns false when the
    /// connection died.
    bool handle_readable(Conn& conn);
    /// Services up to max_pipeline frames; returns frames processed.
    std::size_t service_chunk(Conn& conn);
    void process_frame(Conn& conn, const Frame& frame);
    void error_reply(Conn& conn, Op op, Status status);
    /// Writes wbuf until done or EAGAIN; sets want_write on residue.
    /// Returns false on fatal write error.
    bool flush(Conn& conn);
    void close_conn(int fd);
    [[nodiscard]] storage::SimDuration virtual_now() const;

    ServerConfig config_;
    MissFetchFn miss_fetch_;
    PayloadReadFn payload_read_;
    TenantCacheManager tenants_;

    int listen_fd_ = -1;
    int wake_read_fd_ = -1;
    int wake_write_fd_ = -1;
    std::uint16_t bound_port_ = 0;
    std::thread loop_;
    std::atomic<bool> running_{false};
    std::map<int, Conn> conns_;  // event-loop thread only
    std::chrono::steady_clock::time_point start_time_;

    // Counters: written by the loop thread, read by stats() callers.
    std::atomic<std::uint64_t> conns_accepted_{0};
    std::atomic<std::uint64_t> conns_open_{0};
    std::atomic<std::uint64_t> frames_decoded_{0};
    std::atomic<std::uint64_t> frames_answered_{0};
    std::atomic<std::uint64_t> batches_{0};
    std::atomic<std::uint64_t> single_frame_batches_{0};
    std::atomic<std::uint64_t> max_batch_{0};
    std::atomic<std::uint64_t> gets_{0};
    std::atomic<std::uint64_t> probes_{0};
    std::atomic<std::uint64_t> mget_keys_{0};
    std::atomic<std::uint64_t> put_scores_{0};
    std::atomic<std::uint64_t> errors_{0};
    std::atomic<std::uint64_t> dropped_frames_{0};
    std::atomic<std::uint64_t> bytes_in_{0};
    std::atomic<std::uint64_t> bytes_out_{0};
};

}  // namespace spider::server
