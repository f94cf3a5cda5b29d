#pragma once

// Hierarchical Navigable Small World graph (Malkov & Yashunin, 2018),
// implemented from scratch: multi-layer greedy search, heuristic neighbor
// selection, dynamic insert and in-place update. This is the ANN substrate
// the paper builds its semantic graph on (it uses the hnswlib library; we
// reproduce the algorithm).
//
// Thread-safety: reader/writer *phase* contract. Queries (knn, vector_of,
// degree, contains) may run concurrently with each other — each holds a
// shared lock and uses a pooled per-query search scratch (visited stamps
// and both beam heaps). upsert() is a writer: it takes the lock
// exclusively and works in scratch the index owns, so interleaving
// upserts with queries is correct but serializes. The intended shape (and
// what the batch scorer does) is phased: an update phase of upserts, then
// a scoring phase that fans knn across a thread pool. Spans returned by
// vector_of() point into the index's vector array and are invalidated by
// the next upsert, exactly like iterator invalidation on a std::vector.
//
// Memory layout: every vector lives in one contiguous `size() x dim` row
// array indexed by internal id; nodes hold only their label and per-layer
// adjacency. Distance work is counted per call and published once, before
// the call returns (see distance_computations()).

#include <atomic>
#include <cstdint>
#include <iosfwd>
#include <mutex>
#include <optional>
#include <shared_mutex>
#include <span>
#include <unordered_map>
#include <vector>

#include "ann/bruteforce.hpp"  // Neighbor
#include "util/rng.hpp"

namespace spider::ann {

struct HnswConfig {
    std::size_t dim = 32;
    /// Max links per node on layers > 0; layer 0 allows 2*M.
    std::size_t M = 12;
    /// Beam width during construction.
    std::size_t ef_construction = 64;
    /// Default beam width during search (raise for higher recall).
    std::size_t ef_search = 48;
    std::uint64_t seed = 7;
};

class HnswIndex {
public:
    explicit HnswIndex(HnswConfig config);

    // Movable (indexes are built in factories and returned by value) but
    // not copyable; moving must not race with concurrent queries.
    HnswIndex(HnswIndex&& other) noexcept;
    HnswIndex& operator=(HnswIndex&& other) noexcept;
    HnswIndex(const HnswIndex&) = delete;
    HnswIndex& operator=(const HnswIndex&) = delete;
    ~HnswIndex() = default;

    [[nodiscard]] const HnswConfig& config() const { return config_; }
    [[nodiscard]] std::size_t size() const { return nodes_.size(); }
    [[nodiscard]] bool contains(std::uint32_t label) const;

    /// Inserts a new vector, or — when `label` already exists — replaces
    /// its vector in place and rewires its links at every level (the
    /// "dynamic sample update" the paper relies on: embeddings drift every
    /// epoch as the model trains). Writer: takes the phase lock exclusively.
    void upsert(std::uint32_t label, std::span<const float> vec);

    /// K nearest neighbors by Euclidean distance, ascending. `ef` overrides
    /// ef_search when nonzero. The query label itself is *not* excluded.
    /// Reader: safe to call from many threads concurrently.
    [[nodiscard]] std::vector<Neighbor> knn(std::span<const float> query,
                                            std::size_t k,
                                            std::size_t ef = 0) const;

    /// Current stored vector for a label (empty if absent).
    [[nodiscard]] std::optional<std::span<const float>> vector_of(
        std::uint32_t label) const;

    /// Layer-0 out-degree of a label's node (0 if absent). High-degree
    /// nodes are the homophily-cache candidates.
    [[nodiscard]] std::size_t degree(std::uint32_t label) const;

    /// Estimated resident bytes of the graph + vectors (Table 2 support).
    [[nodiscard]] std::size_t memory_bytes() const;

    /// Number of distance computations since construction (perf counters
    /// for the microbench). Every upsert/knn counts its distances locally
    /// and adds the total with one relaxed atomic add before it returns,
    /// so the value is exact whenever no call is in flight, and exact up
    /// to whole calls while some are.
    [[nodiscard]] std::uint64_t distance_computations() const {
        return dist_comps_.load(std::memory_order_relaxed);
    }

    /// Distance computations made by the most recent upsert or knn call
    /// on the calling thread (on any index) — the per-call share of
    /// distance_computations(). 0 before the thread's first call.
    [[nodiscard]] static std::uint64_t last_call_distance_computations();

    // Binary persistence (ann/serialize.hpp).
    friend void save_index(const HnswIndex& index, std::ostream& os);
    friend HnswIndex load_index(std::istream& is);

private:
    struct Node {
        std::uint32_t label = 0;
        /// links[l] = neighbor internal-ids at layer l; size() = level + 1.
        std::vector<std::vector<std::uint32_t>> links;
        /// in_degree[l] = number of edges pointing at this node at layer l.
        /// The pruning paths preserve in_degree >= 1 so every node stays
        /// reachable by the directed greedy search even under heavy
        /// update churn (embeddings drift every epoch).
        std::vector<std::uint32_t> in_degree;
    };

    struct Candidate {
        float distance;
        std::uint32_t id;
        bool operator<(const Candidate& other) const {
            return distance < other.distance;
        }
        bool operator>(const Candidate& other) const {
            return distance > other.distance;
        }
    };

    /// Per-call search scratch: an epoch-stamped visited array (stamp[id]
    /// == epoch means visited this layer), the two beam heaps, and the
    /// call's distance count. Readers lease one from a pool so concurrent
    /// queries never share one and steady state allocates nothing; the
    /// writer owns its own.
    struct VisitTable {
        std::vector<std::uint32_t> stamp;
        std::uint32_t epoch = 0;
        /// Min-heap by distance (std::greater): the frontier.
        std::vector<Candidate> to_visit;
        /// Max-heap by distance (std::less): the ef best so far. After
        /// search_layer returns it holds them sorted ascending.
        std::vector<Candidate> best;
        /// One expanded node's unvisited neighbors and their distances.
        std::vector<Candidate> fresh;
        std::uint64_t distances = 0;

        /// Starts a new stamp generation (a fresh, empty visited set).
        std::uint32_t next_epoch();
        [[nodiscard]] std::size_t capacity_bytes() const;
    };

    class VisitTablePool {
    public:
        /// Pops a free table (or makes one), sized for >= n nodes, with a
        /// fresh epoch and a zero distance count.
        [[nodiscard]] VisitTable acquire(std::size_t n);
        void release(VisitTable&& table);
        [[nodiscard]] std::size_t capacity_bytes();

    private:
        std::mutex mutex_;
        std::vector<VisitTable> free_;
    };

    /// RAII lease so a table returns to the pool even on exceptions.
    struct VisitLease {
        VisitLease(VisitTablePool& p, std::size_t n)
            : pool{&p}, table{p.acquire(n)} {}
        ~VisitLease() { pool->release(std::move(table)); }
        VisitLease(const VisitLease&) = delete;
        VisitLease& operator=(const VisitLease&) = delete;

        VisitTablePool* pool;
        VisitTable table;
    };

    /// Buffers the writer reuses across upserts; touched only under the
    /// exclusive phase lock, so steady-state upserts allocate nothing.
    struct WriterScratch {
        VisitTable visit;
        std::vector<std::uint32_t> neighbors;  ///< wire_node's selection
        std::vector<std::uint32_t> old_links;  ///< link: previous out-edges
        std::vector<std::uint32_t> keep;       ///< link: last in-edges kept
        std::vector<Candidate> cands;          ///< link: overflow candidates
        std::vector<std::uint32_t> pruned;     ///< link: shrunk back-links
    };

    [[nodiscard]] const float* point(std::uint32_t id) const {
        return points_.data() + static_cast<std::size_t>(id) * config_.dim;
    }
    [[nodiscard]] float* point(std::uint32_t id) {
        return points_.data() + static_cast<std::size_t>(id) * config_.dim;
    }
    /// Squared L2 (monotone in L2; sqrt only at the API edge), counted
    /// into the calling scratch.
    [[nodiscard]] float dist(const float* a, const float* b,
                             VisitTable& scratch) const {
        ++scratch.distances;
        return squared_l2_(a, b, config_.dim);
    }
    /// Prefetches the stored vector of `id` ahead of a distance.
    void prefetch_point(std::uint32_t id) const;
    /// Adds a finished call's distance count to the shared counter.
    void publish_distances(VisitTable& scratch) const;
    [[nodiscard]] std::size_t random_level();
    [[nodiscard]] std::size_t max_links(std::size_t layer) const {
        return layer == 0 ? config_.M * 2 : config_.M;
    }

    /// Greedy descent on one layer: returns the closest node found.
    [[nodiscard]] std::uint32_t greedy_closest(const float* query,
                                               std::uint32_t entry,
                                               std::size_t layer,
                                               VisitTable& scratch) const;

    /// Beam search on one layer; leaves up to `ef` candidates in
    /// `scratch.best`, sorted ascending by distance.
    void search_layer(const float* query, std::uint32_t entry,
                      std::size_t ef, std::size_t layer,
                      VisitTable& scratch) const;

    /// Heuristic neighbor selection (Algorithm 4 of the HNSW paper): keeps
    /// a candidate only if it is closer to the query than to every
    /// already-kept neighbor, preserving graph navigability. Sorts
    /// `candidates` in place and writes the chosen ids to `selected`.
    void select_neighbors(std::vector<Candidate>& candidates, std::size_t m,
                          std::vector<std::uint32_t>& selected,
                          VisitTable& scratch) const;

    /// Connects `id` to `writer_.neighbors` bidirectionally at `layer`,
    /// shrinking any neighbor that exceeds its link budget via the same
    /// heuristic.
    void link(std::uint32_t id, std::size_t layer);

    /// (Re)wires the links of node `id` across all its layers, starting the
    /// descent from the current entry point. Shared by insert and update.
    void wire_node(std::uint32_t id);

    /// upsert() under the held writer lock; leaves the call's distance
    /// count in writer_.visit for upsert() to publish.
    void upsert_locked(std::uint32_t label, std::span<const float> vec);

    HnswConfig config_;
    double level_lambda_;  // 1 / ln(M)
    util::Rng rng_;
    /// The active squared-L2 kernel, resolved once at construction.
    float (*squared_l2_)(const float*, const float*, std::size_t);
    std::vector<Node> nodes_;
    /// Row `id` (config_.dim floats) is node id's vector.
    std::vector<float> points_;
    std::unordered_map<std::uint32_t, std::uint32_t> label_to_id_;
    std::uint32_t entry_point_ = 0;
    std::size_t max_level_ = 0;
    bool empty_ = true;
    mutable std::atomic<std::uint64_t> dist_comps_{0};
    mutable VisitTablePool visit_pool_;
    WriterScratch writer_;
    /// Reader/writer phase lock: queries shared, upserts exclusive.
    mutable std::shared_mutex phase_mutex_;
};

}  // namespace spider::ann
