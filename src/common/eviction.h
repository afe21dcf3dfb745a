#ifndef GPL_COMMON_EVICTION_H_
#define GPL_COMMON_EVICTION_H_

#include <iterator>
#include <list>
#include <string>

namespace gpl {

/// How many least-recently-used entries an eviction samples.
inline constexpr int kEvictionWindow = 4;

/// The one eviction policy of the bounded caches (model::TuningCache,
/// pool::SubplanCache): a sampled-window, cost-aware LRU. Among the
/// kEvictionWindow keys at the tail of `lru` (front = most recently used),
/// picks the entry cheapest to recompute and least re-used — the lowest
/// `cost(entry) × (1 + entry.hits)`, where `map` holds the entry of every
/// key in `lru`. The scan starts at the tail and a candidate replaces the
/// victim only on a strictly lower score, so ties evict the less recently
/// used. Deterministic; `lru` must not be empty.
template <typename Map, typename CostFn>
std::list<std::string>::const_iterator PickEvictionVictim(
    const std::list<std::string>& lru, const Map& map, CostFn cost) {
  const auto score = [&](const std::string& key) {
    const auto& entry = map.find(key)->second;
    return cost(entry) * (1.0 + static_cast<double>(entry.hits));
  };
  auto victim = std::prev(lru.end());
  double victim_score = score(*victim);
  auto it = victim;
  for (int scanned = 1; scanned < kEvictionWindow && it != lru.begin();
       ++scanned) {
    --it;
    const double s = score(*it);
    if (s < victim_score) {
      victim = it;
      victim_score = s;
    }
  }
  return victim;
}

}  // namespace gpl

#endif  // GPL_COMMON_EVICTION_H_
