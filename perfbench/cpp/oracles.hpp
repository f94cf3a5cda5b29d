#pragma once

// Independent oracles the workloads check the program's outputs against.
// None of them calls the cache, storage or server code under test:
//
//  - LruReplay: an exact LRU over a recorded request stream.
//  - belady_hits: the offline-optimal hit count (Belady's MIN with bypass)
//    of a request stream at a given capacity, an upper bound for any
//    demand-filled cache of that size.
//  - PayloadOracle: a sample's feature bytes, regenerated from the dataset
//    spec and seed in an instance of its own.
//  - NeighborLog: every key and (key, neighbor) pair a workload sent in
//    PUT_NEIGHBORS, so a homophily hit can be traced back to it.

#include <cstdint>
#include <list>
#include <mutex>
#include <span>
#include <unordered_map>
#include <unordered_set>

#include "data/dataset.hpp"

namespace perfbench {

class LruReplay {
public:
    explicit LruReplay(std::size_t capacity) : capacity_{capacity} {}

    /// One request: true on a hit (the id becomes most recent); on a miss
    /// the id is admitted, evicting the least recent when full.
    bool access(std::uint32_t id);
    void clear();
    [[nodiscard]] std::size_t size() const { return where_.size(); }

private:
    std::size_t capacity_;
    std::list<std::uint32_t> order_;  // front = most recent
    std::unordered_map<std::uint32_t, std::list<std::uint32_t>::iterator>
        where_;
};

/// Hits of the offline-optimal policy at `capacity` when a miss may bypass
/// the cache: on a miss the request is kept only if its next use comes
/// before that of some resident, which it then replaces (the resident used
/// furthest in the future).
[[nodiscard]] std::uint64_t belady_hits(std::span<const std::uint32_t> stream,
                                        std::size_t capacity);

class PayloadOracle {
public:
    explicit PayloadOracle(const spider::data::DatasetSpec& spec)
        : dataset_{spec} {}

    [[nodiscard]] std::size_t size() const { return dataset_.size(); }
    /// Does `bytes` equal the feature bytes of sample `id`?
    [[nodiscard]] bool matches(std::uint32_t id,
                               std::span<const std::uint8_t> bytes) const;

private:
    spider::data::SyntheticDataset dataset_;
};

/// Thread-safe log of the keys and (key, neighbor) pairs sent in
/// PUT_NEIGHBORS.
class NeighborLog {
public:
    void record(std::uint32_t key, std::span<const std::uint32_t> neighbors);
    /// May a homophily hit for `id` serve `key`? Yes when `key` was sent
    /// with `id` in its list, or when `id` is itself a key that was sent (a
    /// resident key serves itself).
    [[nodiscard]] bool holds(std::uint32_t key, std::uint32_t id) const;

private:
    mutable std::mutex mu_;
    std::unordered_set<std::uint32_t> keys_;
    std::unordered_set<std::uint64_t> pairs_;
};

}  // namespace perfbench
