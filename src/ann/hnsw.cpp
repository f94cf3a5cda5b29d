#include "ann/hnsw.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <functional>
#include <stdexcept>

#include "tensor/simd.hpp"

namespace spider::ann {

namespace {

/// Per-thread copy of the last call's distance count
/// (HnswIndex::last_call_distance_computations).
thread_local std::uint64_t t_last_call_distances = 0;

/// Cache lines of a stored vector worth prefetching ahead of a distance;
/// past a few lines the hardware stream prefetcher has caught on.
constexpr std::size_t kPrefetchBytes = 256;
constexpr std::size_t kCacheLine = 64;

}  // namespace

HnswIndex::HnswIndex(HnswConfig config)
    : config_{config},
      level_lambda_{1.0 / std::log(static_cast<double>(std::max<std::size_t>(config.M, 2)))},
      rng_{config.seed},
      squared_l2_{tensor::simd::active_kernels().squared_l2} {
    if (config_.dim == 0) throw std::invalid_argument{"HnswIndex: dim must be > 0"};
    if (config_.M < 2) throw std::invalid_argument{"HnswIndex: M must be >= 2"};
    if (config_.ef_construction < config_.M) {
        throw std::invalid_argument{"HnswIndex: ef_construction must be >= M"};
    }
}

HnswIndex::HnswIndex(HnswIndex&& other) noexcept
    : config_{other.config_},
      level_lambda_{other.level_lambda_},
      rng_{other.rng_},
      squared_l2_{other.squared_l2_},
      nodes_{std::move(other.nodes_)},
      points_{std::move(other.points_)},
      label_to_id_{std::move(other.label_to_id_)},
      entry_point_{other.entry_point_},
      max_level_{other.max_level_},
      empty_{other.empty_},
      dist_comps_{other.dist_comps_.load(std::memory_order_relaxed)},
      writer_{std::move(other.writer_)} {
    // visit_pool_ / phase_mutex_ start fresh: a moved index has no
    // in-flight queries by precondition.
}

HnswIndex& HnswIndex::operator=(HnswIndex&& other) noexcept {
    if (this != &other) {
        config_ = other.config_;
        level_lambda_ = other.level_lambda_;
        rng_ = other.rng_;
        squared_l2_ = other.squared_l2_;
        nodes_ = std::move(other.nodes_);
        points_ = std::move(other.points_);
        label_to_id_ = std::move(other.label_to_id_);
        entry_point_ = other.entry_point_;
        max_level_ = other.max_level_;
        empty_ = other.empty_;
        dist_comps_.store(other.dist_comps_.load(std::memory_order_relaxed),
                          std::memory_order_relaxed);
        writer_ = std::move(other.writer_);
    }
    return *this;
}

std::uint32_t HnswIndex::VisitTable::next_epoch() {
    ++epoch;
    if (epoch == 0) {  // wrapped: reset stamps
        std::fill(stamp.begin(), stamp.end(), 0);
        epoch = 1;
    }
    return epoch;
}

std::size_t HnswIndex::VisitTable::capacity_bytes() const {
    return stamp.capacity() * sizeof(std::uint32_t) +
           (to_visit.capacity() + best.capacity() + fresh.capacity()) *
               sizeof(Candidate);
}

HnswIndex::VisitTable HnswIndex::VisitTablePool::acquire(std::size_t n) {
    VisitTable table;
    {
        const std::lock_guard lock{mutex_};
        if (!free_.empty()) {
            table = std::move(free_.back());
            free_.pop_back();
        }
    }
    if (table.stamp.size() < n) {
        table.stamp.resize(n, 0);
    }
    table.distances = 0;
    return table;
}

void HnswIndex::VisitTablePool::release(VisitTable&& table) {
    const std::lock_guard lock{mutex_};
    free_.push_back(std::move(table));
}

std::size_t HnswIndex::VisitTablePool::capacity_bytes() {
    const std::lock_guard lock{mutex_};
    std::size_t total = free_.capacity() * sizeof(VisitTable);
    for (const VisitTable& table : free_) total += table.capacity_bytes();
    return total;
}

std::uint64_t HnswIndex::last_call_distance_computations() {
    return t_last_call_distances;
}

bool HnswIndex::contains(std::uint32_t label) const {
    const std::shared_lock lock{phase_mutex_};
    return label_to_id_.contains(label);
}

void HnswIndex::prefetch_point(std::uint32_t id) const {
    const char* bytes = reinterpret_cast<const char*>(point(id));
    const std::size_t len =
        std::min(config_.dim * sizeof(float), kPrefetchBytes);
    for (std::size_t off = 0; off < len; off += kCacheLine) {
        __builtin_prefetch(bytes + off);
    }
}

void HnswIndex::publish_distances(VisitTable& scratch) const {
    t_last_call_distances = scratch.distances;
    if (scratch.distances != 0) {
        dist_comps_.fetch_add(scratch.distances, std::memory_order_relaxed);
    }
    scratch.distances = 0;
}

std::size_t HnswIndex::random_level() {
    const double u = std::max(rng_.uniform(), 1e-12);
    const auto level = static_cast<std::size_t>(-std::log(u) * level_lambda_);
    return std::min<std::size_t>(level, 31);
}

std::uint32_t HnswIndex::greedy_closest(const float* query,
                                        std::uint32_t entry,
                                        std::size_t layer,
                                        VisitTable& scratch) const {
    std::uint32_t current = entry;
    float current_dist = dist(query, point(current), scratch);
    bool improved = true;
    while (improved) {
        improved = false;
        const std::vector<std::uint32_t>& adjacency =
            nodes_[current].links[layer];
        for (std::uint32_t neighbor : adjacency) prefetch_point(neighbor);
        for (std::uint32_t neighbor : adjacency) {
            const float d = dist(query, point(neighbor), scratch);
            if (d < current_dist) {
                current = neighbor;
                current_dist = d;
                improved = true;
            }
        }
    }
    return current;
}

void HnswIndex::search_layer(const float* query, std::uint32_t entry,
                             std::size_t ef, std::size_t layer,
                             VisitTable& scratch) const {
    // One table covers a whole call; a fresh epoch per layer resets the
    // visited set without touching memory.
    std::vector<std::uint32_t>& stamp = scratch.stamp;
    const std::uint32_t epoch = scratch.next_epoch();

    // Binary heaps on the scratch buffers. Which of several equidistant
    // candidates survives, and their final order, follow from exactly
    // these push_heap/pop_heap calls and comparators; knn results are
    // pinned to them (Hnsw.ChurnTraceMatchesParent).
    std::vector<Candidate>& to_visit = scratch.to_visit;  // min-heap
    std::vector<Candidate>& best = scratch.best;  // max-heap: worst on top
    to_visit.clear();
    best.clear();
    const auto push_to_visit = [&to_visit](Candidate c) {
        to_visit.push_back(c);
        std::push_heap(to_visit.begin(), to_visit.end(), std::greater<>{});
    };
    const auto push_best = [&best](Candidate c) {
        best.push_back(c);
        std::push_heap(best.begin(), best.end(), std::less<>{});
    };

    const float entry_dist = dist(query, point(entry), scratch);
    push_to_visit({entry_dist, entry});
    push_best({entry_dist, entry});
    stamp[entry] = epoch;

    while (!to_visit.empty()) {
        const Candidate current = to_visit.front();
        std::pop_heap(to_visit.begin(), to_visit.end(), std::greater<>{});
        to_visit.pop_back();
        if (current.distance > best.front().distance && best.size() >= ef) {
            break;
        }

        // Gather the unvisited neighbors (prefetching their rows), take
        // all their distances, then offer them to the beam in adjacency
        // order — the same decisions as one neighbor at a time, but the
        // row loads overlap instead of each waiting behind a heap update.
        // The gather is branchless: every neighbor is written, and the
        // cursor advances only past unvisited ones.
        const std::vector<std::uint32_t>& adjacency =
            nodes_[current.id].links[layer];
        std::vector<Candidate>& fresh = scratch.fresh;
        fresh.resize(adjacency.size());
        std::size_t count = 0;
        for (std::uint32_t neighbor : adjacency) {
            prefetch_point(neighbor);
            fresh[count].id = neighbor;
            count += stamp[neighbor] != epoch ? 1 : 0;
            stamp[neighbor] = epoch;
        }
        fresh.resize(count);
        for (Candidate& c : fresh) {
            c.distance = dist(query, point(c.id), scratch);
        }
        for (const Candidate& c : fresh) {
            if (best.size() < ef || c.distance < best.front().distance) {
                push_to_visit(c);
                push_best(c);
                if (best.size() > ef) {
                    std::pop_heap(best.begin(), best.end(), std::less<>{});
                    best.pop_back();
                }
            }
        }
    }

    // Ascending by distance: the same pop sequence that draining the
    // max-heap from the back would make.
    for (auto end = best.end(); end - best.begin() > 1; --end) {
        std::pop_heap(best.begin(), end, std::less<>{});
    }
}

void HnswIndex::select_neighbors(std::vector<Candidate>& candidates,
                                 std::size_t m,
                                 std::vector<std::uint32_t>& selected,
                                 VisitTable& scratch) const {
    std::sort(candidates.begin(), candidates.end());
    for (const Candidate& cand : candidates) prefetch_point(cand.id);
    selected.clear();
    for (const Candidate& cand : candidates) {
        if (selected.size() >= m) break;
        // Keep only candidates closer to the query than to any kept
        // neighbor — spreads links across directions (HNSW Algorithm 4).
        bool keep = true;
        for (std::uint32_t kept : selected) {
            const float d_to_kept =
                dist(point(cand.id), point(kept), scratch);
            if (d_to_kept < cand.distance) {
                keep = false;
                break;
            }
        }
        if (keep) selected.push_back(cand.id);
    }
    // Backfill with nearest rejected candidates if underfull (keeps graphs
    // connected in clustered data).
    if (selected.size() < m) {
        // Membership by stamp: one load per candidate.
        const std::uint32_t chosen = scratch.next_epoch();
        for (std::uint32_t kept : selected) scratch.stamp[kept] = chosen;
        for (const Candidate& cand : candidates) {
            if (selected.size() >= m) break;
            if (scratch.stamp[cand.id] != chosen) {
                scratch.stamp[cand.id] = chosen;
                selected.push_back(cand.id);
            }
        }
    }
}

void HnswIndex::link(std::uint32_t id, std::size_t layer) {
    const std::vector<std::uint32_t>& neighbors = writer_.neighbors;
    auto& own_links = nodes_[id].links[layer];
    // Set membership below is by stamp: a fresh epoch per set, members
    // stamped with it (the writer's visited array is free between
    // searches).
    VisitTable& scratch = writer_.visit;
    std::vector<std::uint32_t>& stamp = scratch.stamp;
    // Replace out-edges; maintain the targets' in-degree counters. An old
    // target whose in-degree would hit zero keeps its edge (appended past
    // the budget) — dropping a node's last in-edge would cut it off from
    // the directed search graph.
    std::vector<std::uint32_t>& old_links = writer_.old_links;
    std::vector<std::uint32_t>& keep = writer_.keep;
    old_links.assign(own_links.begin(), own_links.end());
    keep.clear();
    const std::uint32_t in_new = scratch.next_epoch();
    for (std::uint32_t target : neighbors) stamp[target] = in_new;
    for (std::uint32_t old_target : old_links) {
        if (stamp[old_target] == in_new) continue;  // still linked
        auto& count = nodes_[old_target].in_degree[layer];
        if (count <= 1) {
            keep.push_back(old_target);
        } else {
            --count;
        }
    }
    own_links.assign(neighbors.begin(), neighbors.end());
    own_links.insert(own_links.end(), keep.begin(), keep.end());
    const std::uint32_t was_old = scratch.next_epoch();
    for (std::uint32_t target : old_links) stamp[target] = was_old;
    for (std::uint32_t target : neighbors) {
        if (stamp[target] != was_old) ++nodes_[target].in_degree[layer];
    }

    for (std::uint32_t neighbor : neighbors) {
        auto& back = nodes_[neighbor].links[layer];
        if (std::find(back.begin(), back.end(), id) != back.end()) continue;
        back.push_back(id);
        ++nodes_[id].in_degree[layer];
        const std::size_t budget = max_links(layer);
        if (back.size() > budget) {
            // Shrink with the same heuristic, from the neighbor's view —
            // but (a) never prune the edge just added (it may be the
            // updated node's only in-edge) and (b) never prune an edge
            // that is its target's *last* in-edge anywhere: either would
            // make a node unreachable by the directed greedy search.
            std::vector<Candidate>& cands = writer_.cands;
            cands.clear();
            const float* base = point(neighbor);
            for (std::uint32_t other : back) prefetch_point(other);
            for (std::uint32_t other : back) {
                cands.push_back({dist(base, point(other), scratch), other});
            }
            std::vector<std::uint32_t>& pruned = writer_.pruned;
            select_neighbors(cands, budget, pruned, scratch);
            if (std::find(pruned.begin(), pruned.end(), id) == pruned.end()) {
                pruned.back() = id;
            }
            const std::uint32_t kept = scratch.next_epoch();
            for (std::uint32_t target : pruned) stamp[target] = kept;
            for (std::uint32_t other : back) {
                if (stamp[other] == kept) continue;
                auto& count = nodes_[other].in_degree[layer];
                if (count <= 1) {
                    pruned.push_back(other);  // last in-edge: keep (overflow)
                    stamp[other] = kept;
                } else {
                    --count;
                }
            }
            back.assign(pruned.begin(), pruned.end());
        }
    }
}

void HnswIndex::wire_node(std::uint32_t id) {
    const std::size_t node_level = nodes_[id].links.size() - 1;
    const float* query = point(id);
    VisitTable& scratch = writer_.visit;
    if (scratch.stamp.size() < nodes_.size()) {
        scratch.stamp.resize(nodes_.size(), 0);
    }

    std::uint32_t entry = entry_point_;
    // Descend through layers above the node's level greedily.
    for (std::size_t layer = max_level_; layer > node_level; --layer) {
        entry = greedy_closest(query, entry, layer, scratch);
    }
    // From min(max_level_, node_level) down to 0: beam-search and link.
    const std::size_t top = std::min(max_level_, node_level);
    for (std::size_t layer = top + 1; layer-- > 0;) {
        search_layer(query, entry, config_.ef_construction, layer, scratch);
        std::vector<Candidate>& candidates = scratch.best;
        // Exclude self (present when rewiring an updated node).
        candidates.erase(std::remove_if(candidates.begin(), candidates.end(),
                                        [id](const Candidate& c) {
                                            return c.id == id;
                                        }),
                         candidates.end());
        if (!candidates.empty()) {
            entry = candidates.front().id;
            select_neighbors(candidates, max_links(layer), writer_.neighbors,
                             scratch);
            link(id, layer);
        }
    }
}

void HnswIndex::upsert(std::uint32_t label, std::span<const float> vec) {
    if (vec.size() != config_.dim) {
        throw std::invalid_argument{"HnswIndex::upsert: bad dimension"};
    }
    const std::unique_lock lock{phase_mutex_};  // writer phase: exclusive
    upsert_locked(label, vec);
    publish_distances(writer_.visit);
}

void HnswIndex::upsert_locked(std::uint32_t label,
                              std::span<const float> vec) {
    if (auto it = label_to_id_.find(label); it != label_to_id_.end()) {
        // In-place update (the hnswlib updatePoint strategy): replace the
        // vector and rewire the node's *out*-links from a fresh descent,
        // but keep existing in-edges intact. A stale in-edge is merely a
        // sub-optimal long link — distances are always recomputed from the
        // current vectors — while removing it could disconnect the node
        // from the directed search graph entirely.
        const std::uint32_t id = it->second;
        // memmove: `vec` may be a vector_of() span onto this very row.
        std::memmove(point(id), vec.data(), config_.dim * sizeof(float));
        if (nodes_.size() == 1) return;
        if (entry_point_ == id) {
            // Descend from another top node so the (moved) entry doesn't
            // anchor its own search; a linear scan for the max level is
            // fine — updates are rare relative to searches.
            std::uint32_t best = id == 0 ? 1 : 0;
            std::size_t best_level = nodes_[best].links.size() - 1;
            for (std::uint32_t other = 0; other < nodes_.size(); ++other) {
                if (other == id) continue;
                const std::size_t lvl = nodes_[other].links.size() - 1;
                if (lvl > best_level) {
                    best = other;
                    best_level = lvl;
                }
            }
            entry_point_ = best;
            max_level_ = best_level;
        }
        wire_node(id);
        // Updated node may still own the globally max level.
        const std::size_t node_level = nodes_[id].links.size() - 1;
        if (node_level > max_level_) {
            max_level_ = node_level;
            entry_point_ = id;
        }
        return;
    }

    // Append the vector as row `id`. `vec` may point into points_ itself
    // (a vector_of() span), which the growth below would free: remember
    // it as a row offset instead.
    const float* base = points_.data();
    const bool aliased =
        !points_.empty() && std::less_equal<>{}(base, vec.data()) &&
        std::less<>{}(vec.data(), base + points_.size());
    const std::size_t source_offset =
        aliased ? static_cast<std::size_t>(vec.data() - base) : 0;
    const std::size_t row = points_.size();
    points_.resize(row + config_.dim);
    std::copy_n(aliased ? points_.data() + source_offset : vec.data(),
                config_.dim, points_.data() + row);

    Node node;
    node.label = label;
    const std::size_t level = empty_ ? 0 : random_level();
    node.links.resize(level + 1);
    for (std::size_t l = 0; l <= level; ++l) {
        // Room for a full list plus the one back-link that triggers a
        // prune, so steady-state linking never reallocates.
        node.links[l].reserve(max_links(l) + 1);
    }
    node.in_degree.assign(level + 1, 0);
    const auto id = static_cast<std::uint32_t>(nodes_.size());
    nodes_.push_back(std::move(node));
    label_to_id_.emplace(label, id);

    if (empty_) {
        entry_point_ = id;
        max_level_ = level;
        empty_ = false;
        return;
    }

    wire_node(id);
    if (level > max_level_) {
        max_level_ = level;
        entry_point_ = id;
    }
}

std::vector<Neighbor> HnswIndex::knn(std::span<const float> query,
                                     std::size_t k, std::size_t ef) const {
    if (query.size() != config_.dim) {
        throw std::invalid_argument{"HnswIndex::knn: bad dimension"};
    }
    const std::shared_lock lock{phase_mutex_};  // reader phase: shared
    if (empty_ || k == 0) {
        t_last_call_distances = 0;
        return {};
    }

    const std::size_t beam = std::max(ef == 0 ? config_.ef_search : ef, k);
    VisitLease lease{visit_pool_, nodes_.size()};
    VisitTable& scratch = lease.table;

    std::uint32_t entry = entry_point_;
    for (std::size_t layer = max_level_; layer > 0; --layer) {
        entry = greedy_closest(query.data(), entry, layer, scratch);
    }
    search_layer(query.data(), entry, beam, 0, scratch);

    const std::vector<Candidate>& found = scratch.best;
    std::vector<Neighbor> result;
    result.reserve(std::min(k, found.size()));
    for (const Candidate& c : found) {
        if (result.size() >= k) break;
        result.push_back({nodes_[c.id].label, std::sqrt(c.distance)});
    }
    publish_distances(scratch);
    return result;
}

std::optional<std::span<const float>> HnswIndex::vector_of(
    std::uint32_t label) const {
    const std::shared_lock lock{phase_mutex_};
    const auto it = label_to_id_.find(label);
    if (it == label_to_id_.end()) return std::nullopt;
    return std::span<const float>{point(it->second), config_.dim};
}

std::size_t HnswIndex::degree(std::uint32_t label) const {
    const std::shared_lock lock{phase_mutex_};
    const auto it = label_to_id_.find(label);
    if (it == label_to_id_.end()) return 0;
    return nodes_[it->second].links[0].size();
}

std::size_t HnswIndex::memory_bytes() const {
    const std::shared_lock lock{phase_mutex_};
    std::size_t total = sizeof(*this);
    total += points_.capacity() * sizeof(float);
    for (const Node& node : nodes_) {
        total += sizeof(Node);
        total += node.in_degree.capacity() * sizeof(std::uint32_t);
        total += node.links.capacity() * sizeof(std::vector<std::uint32_t>);
        for (const auto& layer_links : node.links) {
            total += layer_links.capacity() * sizeof(std::uint32_t);
        }
    }
    total += label_to_id_.size() *
             (sizeof(std::uint32_t) * 2 + sizeof(void*));  // bucket estimate
    // Search scratch: the writer's buffers and every pooled reader table.
    total += writer_.visit.capacity_bytes() +
             (writer_.neighbors.capacity() + writer_.old_links.capacity() +
              writer_.keep.capacity() + writer_.pruned.capacity()) *
                 sizeof(std::uint32_t) +
             writer_.cands.capacity() * sizeof(Candidate);
    total += visit_pool_.capacity_bytes();
    return total;
}

}  // namespace spider::ann
