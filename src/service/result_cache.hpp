// Fingerprint-keyed per-graph BFS result cache.
//
// Keyed by (graph fingerprint, source vertex); the value is the full
// level array of one BFS, shared immutably between the cache, in-flight
// query results, and future hits. The fingerprint is whatever 64-bit
// content identity the owner chooses — the service uses
// DynamicGraph::content_fingerprint (reorder-invariant, batch-chained),
// so re-registering the *same* graph under a different reorder policy
// keeps every cached row valid, while any content change misses by
// construction. extract_all() removes and returns a fingerprint's rows,
// so the dynamic-update path can repair them in place and reinsert and
// a graph replacement can drop the rows of content no longer served.
//
// Eviction is LRU under a byte budget (level arrays dominate, so the
// budget is measured in payload bytes plus a fixed per-entry overhead).
// A budget of 0 disables the cache entirely — lookups miss, inserts
// drop — which the benches use to isolate batching wins from caching
// wins.
#pragma once

#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <utility>
#include <vector>

#include "graph/types.hpp"

namespace optibfs {

class ResultCache {
 public:
  using LevelsPtr = std::shared_ptr<const std::vector<level_t>>;

  explicit ResultCache(std::size_t byte_budget);

  bool enabled() const { return byte_budget_ > 0; }

  /// Returns the cached level array for (fingerprint, source) and marks
  /// it most-recently-used, or nullptr on miss. Thread-safe.
  LevelsPtr lookup(std::uint64_t fingerprint, vid_t source);

  /// Inserts (replaces) an entry and evicts LRU entries until the byte
  /// budget holds. An entry larger than the whole budget is dropped.
  void insert(std::uint64_t fingerprint, vid_t source, LevelsPtr levels);

  /// Removes and returns every (source, levels) row stored under
  /// `fingerprint`, MRU first — the dynamic-update path repairs these in
  /// place and reinserts the survivors under the new fingerprint.
  std::vector<std::pair<vid_t, LevelsPtr>> extract_all(
      std::uint64_t fingerprint);

  // ---- observability (approximate under concurrency, exact when quiesced) ----
  std::size_t entries() const;
  std::size_t bytes() const;
  std::uint64_t evictions() const;

 private:
  struct Key {
    std::uint64_t fingerprint;
    vid_t source;
    bool operator==(const Key&) const = default;
  };
  struct KeyHash {
    std::size_t operator()(const Key& k) const {
      // splitmix-style mix of the two fields.
      std::uint64_t x = k.fingerprint * 0x9E3779B97F4A7C15ull + k.source;
      x ^= x >> 30;
      x *= 0xBF58476D1CE4E5B9ull;
      x ^= x >> 27;
      return static_cast<std::size_t>(x);
    }
  };
  struct Entry {
    Key key;
    LevelsPtr levels;
    std::size_t bytes;
  };

  static std::size_t entry_bytes(const LevelsPtr& levels);
  void evict_until_within_budget();  // requires mutex_ held

  const std::size_t byte_budget_;
  mutable std::mutex mutex_;
  std::list<Entry> lru_;  // front = most recently used
  std::unordered_map<Key, std::list<Entry>::iterator, KeyHash> index_;
  std::size_t bytes_ = 0;
  std::uint64_t evictions_ = 0;
};

}  // namespace optibfs
