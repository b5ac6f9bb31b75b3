#ifndef WHYNOT_COMMON_SHARDED_CACHE_H_
#define WHYNOT_COMMON_SHARDED_CACHE_H_

#include <cstddef>
#include <memory>
#include <unordered_map>
#include <utility>
#include <vector>

namespace whynot {

/// A sharded read-mostly map with publish-after-wave semantics — the
/// storage layer of the shared concept-evaluation cache.
///
/// The engine's parallel stages alternate between *waves* (workers run
/// concurrently) and *serial points* (the deterministic merge between
/// waves). This container carries no locks at all; instead it relies on
/// the same protocol that makes the searches deterministic:
///
///  * During a wave the published maps are frozen. Workers call Find /
///    FindShared concurrently — pure reads of an unchanging
///    unordered_map, safe without synchronization. Misses are computed
///    into worker-local overlays, never into this container.
///  * At the serial point the merge thread drains the overlays in
///    linearization order (worker slot 0, 1, ... — a thread-independent
///    order) via Publish. First publish of a key wins; values are
///    shared_ptr so a losing duplicate stays alive in its overlay and
///    worker-held pointers never dangle.
///  * Entries are never removed individually (identity-keyed consumers —
///    the answer-cover bitmaps — require address stability); capacity
///    pressure rejects new publishes instead; the cache is dropped whole
///    together with every consumer.
///
/// Hash-striped shards keep per-map bucket arrays small across
/// incremental publishes (rehashes touch one stripe, not the whole
/// table) and give size() natural chunking.
template <typename Key, typename Value, typename Hasher>
class ShardedPublishCache {
 public:
  explicit ShardedPublishCache(size_t shards = 16)
      : shards_(shards == 0 ? 1 : shards) {}

  /// Wave-safe lookup: a borrowed pointer valid for the cache's lifetime.
  /// Returns nullptr on miss.
  const Value* Find(const Key& key) const {
    const Shard& shard = shards_[ShardOf(key)];
    auto it = shard.find(key);
    return it == shard.end() ? nullptr : it->second.get();
  }

  /// Wave-safe lookup returning shared ownership (the refcount bump is
  /// atomic) — for overlays that embed the value into entries of their
  /// own.
  std::shared_ptr<const Value> FindShared(const Key& key) const {
    const Shard& shard = shards_[ShardOf(key)];
    auto it = shard.find(key);
    return it == shard.end() ? nullptr : it->second;
  }

  /// Serial-point insert, first-publish-wins. Returns true iff `value`
  /// was installed (false: the key was already published; the caller's
  /// value stays owned by the caller).
  bool Publish(const Key& key, std::shared_ptr<const Value> value) {
    Shard& shard = shards_[ShardOf(key)];
    if (!shard.emplace(key, std::move(value)).second) return false;
    ++size_;
    return true;
  }

  size_t size() const { return size_; }

  /// Wave-safe emptiness probe. Overlays consult it before hashing a key
  /// against the published tier: `size_` only changes at serial points,
  /// so during a wave this is a read of a constant — and skipping the
  /// probe while the tier is empty keeps a cold cache's miss path almost
  /// free.
  bool empty() const { return size_ == 0; }

  /// Approximate heap residency of the map structure itself (buckets and
  /// nodes; the pointed-to values are the caller's to account).
  size_t MemoryBytes() const {
    size_t bytes = sizeof(*this);
    for (const Shard& shard : shards_) {
      bytes += shard.bucket_count() * sizeof(void*) +
               shard.size() *
                   (sizeof(std::pair<const Key, std::shared_ptr<const Value>>) +
                    2 * sizeof(void*));
    }
    return bytes;
  }

 private:
  using Shard = std::unordered_map<Key, std::shared_ptr<const Value>, Hasher>;

  size_t ShardOf(const Key& key) const {
    return hasher_(key) % shards_.size();
  }

  Hasher hasher_;
  std::vector<Shard> shards_;
  size_t size_ = 0;  // mutated only at serial points (Publish/Clear)
};

}  // namespace whynot

#endif  // WHYNOT_COMMON_SHARDED_CACHE_H_
