#include "service/serving.hpp"

namespace optibfs {

QueryResult finalize_levels_query(
    const Query& query, const GraphSnapshot& snapshot, std::uint64_t version,
    std::shared_ptr<const std::vector<level_t>> levels, bool cache_hit) {
  QueryResult result;
  result.status = QueryStatus::kOk;
  result.cache_hit = cache_hit;
  result.graph_version = version;
  const std::vector<level_t>& lv = *levels;
  switch (query.kind) {
    case QueryKind::kDistance:
      if (query.target != kInvalidVertex) result.distance = lv[query.target];
      break;
    case QueryKind::kPath: {
      result.distance = lv[query.target];
      if (result.distance != kUnvisited) {
        // Walk backwards over the in-edge view: any in-neighbor one
        // level closer is a valid predecessor (the engines'
        // arbitrary-parent rule, applied lazily at query time). The
        // snapshot's for_each_in is delta-aware — deleted base edges
        // are unusable and spilled inserts are usable — and handles
        // the original-vs-internal ID translation on reordered graphs.
        std::vector<vid_t> reversed{query.target};
        vid_t v = query.target;
        for (level_t l = result.distance; l > 0; --l) {
          snapshot.for_each_in(v, [&](vid_t u) {
            if (lv[u] == l - 1) {
              v = u;
              return false;
            }
            return true;
          });
          reversed.push_back(v);
        }
        result.path.assign(reversed.rbegin(), reversed.rend());
      }
      break;
    }
    case QueryKind::kLevelSet:
      for (vid_t v = 0; v < static_cast<vid_t>(lv.size()); ++v) {
        if (lv[v] == query.depth) result.members.push_back(v);
      }
      break;
    case QueryKind::kComponents:
    case QueryKind::kCoreNumber:
    case QueryKind::kRankTopK:
      // Kernel-typed queries are never answered from a level array;
      // the replicas complete them from a SharedKernelMemo instead.
      break;
  }
  result.levels = std::move(levels);
  return result;
}

}  // namespace optibfs
