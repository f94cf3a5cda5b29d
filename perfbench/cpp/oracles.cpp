#include "oracles.hpp"

#include <cstring>
#include <limits>
#include <set>
#include <utility>
#include <vector>

namespace perfbench {

bool LruReplay::access(std::uint32_t id) {
    if (const auto it = where_.find(id); it != where_.end()) {
        order_.splice(order_.begin(), order_, it->second);
        return true;
    }
    if (capacity_ == 0) return false;
    if (where_.size() == capacity_) {
        where_.erase(order_.back());
        order_.pop_back();
    }
    order_.push_front(id);
    where_[id] = order_.begin();
    return false;
}

void LruReplay::clear() {
    order_.clear();
    where_.clear();
}

std::uint64_t belady_hits(std::span<const std::uint32_t> stream,
                          std::size_t capacity) {
    constexpr std::size_t kNever = std::numeric_limits<std::size_t>::max();
    std::vector<std::size_t> next_use(stream.size(), kNever);
    std::unordered_map<std::uint32_t, std::size_t> seen;
    for (std::size_t i = stream.size(); i-- > 0;) {
        const auto it = seen.find(stream[i]);
        if (it != seen.end()) next_use[i] = it->second;
        seen[stream[i]] = i;
    }
    // Residents ordered by next use; the last one is used furthest ahead.
    std::set<std::pair<std::size_t, std::uint32_t>> by_next;
    std::unordered_map<std::uint32_t, std::size_t> resident;
    std::uint64_t hits = 0;
    for (std::size_t i = 0; i < stream.size(); ++i) {
        const std::uint32_t id = stream[i];
        if (const auto it = resident.find(id); it != resident.end()) {
            ++hits;
            by_next.erase({it->second, id});
            it->second = next_use[i];
            by_next.insert({next_use[i], id});
            continue;
        }
        if (capacity == 0 || next_use[i] == kNever) continue;
        if (resident.size() == capacity) {
            const auto furthest = std::prev(by_next.end());
            if (furthest->first <= next_use[i]) continue;  // bypass
            resident.erase(furthest->second);
            by_next.erase(furthest);
        }
        resident[id] = next_use[i];
        by_next.insert({next_use[i], id});
    }
    return hits;
}

bool PayloadOracle::matches(std::uint32_t id,
                            std::span<const std::uint8_t> bytes) const {
    if (id >= dataset_.size()) return false;
    const std::vector<float>& features = dataset_.sample(id).features;
    return bytes.size() == features.size() * sizeof(float) &&
           std::memcmp(bytes.data(), features.data(), bytes.size()) == 0;
}

void NeighborLog::record(std::uint32_t key,
                         std::span<const std::uint32_t> neighbors) {
    const std::lock_guard lock{mu_};
    keys_.insert(key);
    for (const std::uint32_t id : neighbors) {
        pairs_.insert((static_cast<std::uint64_t>(key) << 32) | id);
    }
}

bool NeighborLog::holds(std::uint32_t key, std::uint32_t id) const {
    const std::lock_guard lock{mu_};
    if (key == id) return keys_.contains(key);
    return pairs_.contains((static_cast<std::uint64_t>(key) << 32) | id);
}

}  // namespace perfbench
