#include "service/result_cache.hpp"

namespace optibfs {

namespace {
/// Map/list node bookkeeping charged per entry on top of the payload.
constexpr std::size_t kPerEntryOverhead = 96;
}  // namespace

ResultCache::ResultCache(std::size_t byte_budget)
    : byte_budget_(byte_budget) {}

std::size_t ResultCache::entry_bytes(const LevelsPtr& levels) {
  return (levels ? levels->size() * sizeof(level_t) : 0) + kPerEntryOverhead;
}

ResultCache::LevelsPtr ResultCache::lookup(std::uint64_t fingerprint,
                                           vid_t source) {
  if (!enabled()) return nullptr;
  std::lock_guard lock(mutex_);
  const auto it = index_.find(Key{fingerprint, source});
  if (it == index_.end()) return nullptr;
  lru_.splice(lru_.begin(), lru_, it->second);  // bump to MRU
  return it->second->levels;
}

void ResultCache::insert(std::uint64_t fingerprint, vid_t source,
                         LevelsPtr levels) {
  if (!enabled() || !levels) return;
  const std::size_t cost = entry_bytes(levels);
  std::lock_guard lock(mutex_);
  const Key key{fingerprint, source};
  if (const auto it = index_.find(key); it != index_.end()) {
    bytes_ -= it->second->bytes;
    lru_.erase(it->second);
    index_.erase(it);
  }
  if (cost > byte_budget_) return;  // would never fit
  lru_.push_front(Entry{key, std::move(levels), cost});
  index_[key] = lru_.begin();
  bytes_ += cost;
  evict_until_within_budget();
}

void ResultCache::evict_until_within_budget() {
  while (bytes_ > byte_budget_ && !lru_.empty()) {
    const Entry& victim = lru_.back();
    bytes_ -= victim.bytes;
    index_.erase(victim.key);
    lru_.pop_back();
    ++evictions_;
  }
}

std::vector<std::pair<vid_t, ResultCache::LevelsPtr>> ResultCache::extract_all(
    std::uint64_t fingerprint) {
  std::vector<std::pair<vid_t, LevelsPtr>> out;
  std::lock_guard lock(mutex_);
  for (auto it = lru_.begin(); it != lru_.end();) {
    if (it->key.fingerprint == fingerprint) {
      out.emplace_back(it->key.source, std::move(it->levels));
      bytes_ -= it->bytes;
      index_.erase(it->key);
      it = lru_.erase(it);
    } else {
      ++it;
    }
  }
  return out;
}

std::size_t ResultCache::entries() const {
  std::lock_guard lock(mutex_);
  return index_.size();
}

std::size_t ResultCache::bytes() const {
  std::lock_guard lock(mutex_);
  return bytes_;
}

std::uint64_t ResultCache::evictions() const {
  std::lock_guard lock(mutex_);
  return evictions_;
}

}  // namespace optibfs
