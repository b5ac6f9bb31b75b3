#ifndef WHYNOT_CONCEPTS_CONCEPT_CACHE_H_
#define WHYNOT_CONCEPTS_CONCEPT_CACHE_H_

#include <cstddef>
#include <memory>
#include <optional>
#include <unordered_map>
#include <utility>
#include <vector>

#include "whynot/common/sharded_cache.h"
#include "whynot/common/status.h"
#include "whynot/concepts/ls_eval.h"
#include "whynot/concepts/lub.h"

namespace whynot::ls {

/// Limits of one shared concept cache.
struct ConceptCacheOptions {
  /// Hash stripes of each published tier.
  size_t shards = 16;
  /// Approximate byte budget across all published entries; once reached,
  /// new publishes are *rejected* (counted as evictions) — entries are
  /// never removed, because the answer-cover kernel keys bitmaps by
  /// extension address. 0 means unlimited.
  ///
  /// A rejected entry stays owned by the overlay that computed it, so its
  /// address dies with that overlay. Callers that key a *longer-lived*
  /// LsAnswerCovers by these addresses (an ExplainSession sharing its
  /// covers across requests) must leave this at 0; bounded caches are for
  /// call-local covers, where every identity consumer dies with the
  /// overlay.
  size_t max_bytes = 0;
};

/// Cumulative traffic counters. NOTE: these are observability only, NOT
/// part of the engine's bit-identical stats contract — how many lookups
/// hit the published tier versus a worker-local overlay depends on the
/// wave structure and therefore on the thread count, even though the
/// *values* served are identical everywhere.
struct ConceptCacheStats {
  size_t shared_hits = 0;  // served from the published read-only tier
  size_t local_hits = 0;   // served from a worker overlay's private map
  size_t misses = 0;       // lub + eval computed fresh
  size_t publishes = 0;    // entries merged into the published tier
  size_t evictions = 0;    // publishes rejected by max_bytes
};

class ConceptCacheOverlay;

struct SupportKeyHash {
  size_t operator()(const std::vector<Value>& key) const;
};

struct ConceptHash {
  size_t operator()(const LsConcept& concept_expr) const;
};

/// The shared concept-evaluation cache: memoizes lub(X) together with its
/// evaluated extension across workers, waves, searches, and — held by an
/// ExplainSession — across requests.
///
/// Two tiers, both publish-after-wave (see ShardedPublishCache for the
/// protocol):
///
///  * the *support* tier maps a sort-deduplicated support set X to
///    (lub(X), ⟦lub(X)⟧ᴵ), one instance per lub flavor (selection-free /
///    with-selections) so keys stay plain value vectors;
///  * the *eval* tier maps an LsConcept to its extension, shared by every
///    support key whose lub lands on the same concept — distinct support
///    sets of one lub class reuse one Extension object.
///
/// Determinism: every entry is a pure function of (key, instance), so
/// cache warmth can only change timing and pointer identities — never
/// outputs, deterministic stats, or errors. During a wave the published
/// tiers are frozen and published extensions are *frozen* too
/// (Extension::Freeze at publish time), so concurrent membership probes
/// never race on the lazy representation build.
///
/// Threading contract: Find* from many workers concurrently during a
/// wave; Publish / stats mutation only at serial points. The
/// instance must not change while the cache holds entries (same contract
/// as EvalCache); an explain::Binding holding one is rebuilt when its
/// instance changes.
class ConceptCache {
 public:
  /// One published entry: the canonical lub concept and its extension.
  /// Entries are handed out by address (stable for the cache's lifetime)
  /// — the answer-cover kernel keys cover bitmaps by `ext.get()`.
  struct Entry {
    LsConcept concept;
    std::shared_ptr<const Extension> ext;
  };

  explicit ConceptCache(const rel::Instance* instance,
                        ConceptCacheOptions options = {});

  const rel::Instance& instance() const { return *instance_; }
  const ConceptCacheOptions& options() const { return options_; }

  /// Published support-tier lookup (wave-safe). Null on miss.
  const Entry* FindSupport(bool with_selections,
                           const std::vector<Value>& sorted_key) const;

  /// Published eval-tier lookup (wave-safe; the refcount bump is atomic).
  std::shared_ptr<const Extension> FindEval(
      const LsConcept& concept_expr) const;

  /// Serial point: merges the overlay's pending entries in its insertion
  /// order (first publish of a key wins; the byte budget rejects the
  /// rest), freezes every published extension for concurrent reads, folds
  /// the overlay's traffic counters into stats(), and clears the pending
  /// lists. The overlay's private maps stay valid — workers keep their
  /// entry pointers across waves.
  void Publish(ConceptCacheOverlay* overlay);

  /// Published entries across all tiers.
  size_t size() const;

  /// Approximate residency: published extensions + concepts + keys + map
  /// structure. Feeds ExplainSession::MemoryUsage().
  size_t MemoryBytes() const;

  const ConceptCacheStats& stats() const { return stats_; }

 private:
  friend class ConceptCacheOverlay;

  using SupportTier = ShardedPublishCache<std::vector<Value>, Entry,
                                          SupportKeyHash>;

  SupportTier& tier(bool with_selections) {
    return with_selections ? support_sel_ : support_free_;
  }
  const SupportTier& tier(bool with_selections) const {
    return with_selections ? support_sel_ : support_free_;
  }

  const rel::Instance* instance_;
  ConceptCacheOptions options_;
  SupportTier support_free_;
  SupportTier support_sel_;
  ShardedPublishCache<LsConcept, Extension, ConceptHash> evals_;
  ConceptCacheStats stats_;
  size_t bytes_ = 0;  // approximate, counted at publish
};

/// One worker's (or one serial search's) private view over a shared
/// ConceptCache. Lookups go local map → published tier → compute; misses
/// are recorded in insertion order for the wave-end Publish. The overlay
/// owns its entries via shared_ptr, so a pointer returned here stays
/// valid for the overlay's lifetime even if another overlay wins the
/// publish race for the same key — and local entries keep *one* address
/// per key per overlay, which the cover-bitmap identity keying relies on.
///
/// Strictly single-threaded (like the LubContext and EvalCache it
/// drives): one overlay per worker, one per serial search.
class ConceptCacheOverlay {
 public:
  /// `lub` computes misses (flavor fixed by `with_selections`);
  /// `conjunct_eval`, when non-null, supplies conjunct-level extensions
  /// (a binding's warm EvalCache — concepts share conjuncts heavily), and
  /// an overlay-owned EvalCache is used otherwise. Both must be
  /// single-threaded-owned by the same worker as this overlay.
  ConceptCacheOverlay(ConceptCache* shared, bool with_selections,
                      LubContext* lub, EvalCache* conjunct_eval = nullptr);

  /// Memoized lub + evaluation of a support set. The returned entry is
  /// valid for the overlay's lifetime (or the shared cache's, for
  /// published hits). Lub errors (box-cap ResourceExhausted) pass through
  /// uncached.
  Result<const ConceptCache::Entry*> LubAndEval(const std::vector<Value>& x);

  /// Probe-only variant for generalization sweeps whose candidate keys
  /// are looked up exactly once (the greedy sweeps test support ∪ {b} for
  /// every b and keep almost none): serves from the local / published
  /// tiers when they could hit, otherwise computes the lub fresh —
  /// memoizing only the concept-keyed eval tier. No support-tier record
  /// is created, so a rejected candidate leaves no allocation behind and
  /// never bloats the published tier with probe-once keys. The returned
  /// extension is overlay-lifetime-stable (owned by an eval tier), which
  /// the cover-bitmap identity keying requires; callers that *accept* a
  /// candidate promote it with PromoteLastProbe().
  Result<std::shared_ptr<const Extension>> LubExtTransient(
      const std::vector<Value>& x);

  /// Records the candidate probed by the immediately preceding
  /// *successful* LubExtTransient in the support tier, reusing the lub
  /// and extension that probe already computed (the sweeps accept a
  /// candidate right after probing it, and recomputing the lub on accept
  /// is measurable on small instances). Returns the same entry LubAndEval
  /// would: identical concept value, identical extension address. Must
  /// not be called after a failed probe or any intervening overlay call.
  const ConceptCache::Entry* PromoteLastProbe();

  bool with_selections() const { return with_selections_; }
  /// Entries computed since the last Publish (tests).
  size_t pending() const {
    return pending_support_.size() + pending_evals_.size();
  }

 private:
  friend class ConceptCache;

  using LocalSupportMap =
      std::unordered_map<std::vector<Value>,
                         std::shared_ptr<const ConceptCache::Entry>,
                         SupportKeyHash>;
  using LocalEvalMap =
      std::unordered_map<LsConcept, std::shared_ptr<const Extension>,
                        ConceptHash>;

  /// The lub of a canonical (sorted, deduplicated) key, flavor fixed at
  /// construction.
  Result<LsConcept> LubOfSorted(const std::vector<Value>& sorted_key);

  /// Overlay-lifetime-stable extension of `concept_expr` through the
  /// local and published eval tiers, computing + recording on miss.
  /// Returns the local eval-map node (key: the canonical concept, value:
  /// the stable extension) so callers can reuse both without copies.
  const LocalEvalMap::value_type* EvalThroughTiers(
      const LsConcept& concept_expr);

  ConceptCache* shared_;
  bool with_selections_;
  LubContext* lub_;
  EvalCache* conjunct_eval_;
  std::optional<EvalCache> own_eval_;
  LocalSupportMap local_;
  LocalEvalMap local_evals_;
  // Reused canonical-key buffer of the transient probe (single-threaded
  // overlay; keeps that path allocation-free).
  std::vector<Value> scratch_key_;
  // Where the last LubExtTransient was served from, for PromoteLastProbe:
  // exactly one is set after a successful probe (local support entry /
  // published support entry / freshly computed eval node + scratch_key_).
  const ConceptCache::Entry* last_local_ = nullptr;
  std::shared_ptr<const ConceptCache::Entry> last_shared_;
  const LocalEvalMap::value_type* last_eval_node_ = nullptr;
  // Pending publishes in insertion order — the linearization the serial
  // merge replays. Stored as pointers into the local maps (node handles
  // are stable under rehash), so the miss path never copies a key.
  std::vector<const LocalSupportMap::value_type*> pending_support_;
  std::vector<const LocalEvalMap::value_type*> pending_evals_;
  ConceptCacheStats stats_;  // folded into the shared cache at Publish
};

/// Publishes an overlay on scope exit — the serial searches' way of
/// guaranteeing the merge happens on every return path (including
/// errors; entries are pure, so publishing them is always sound).
class ScopedPublish {
 public:
  ScopedPublish(ConceptCache* cache, ConceptCacheOverlay* overlay)
      : cache_(cache), overlay_(overlay) {}
  ~ScopedPublish() { cache_->Publish(overlay_); }
  ScopedPublish(const ScopedPublish&) = delete;
  ScopedPublish& operator=(const ScopedPublish&) = delete;

 private:
  ConceptCache* cache_;
  ConceptCacheOverlay* overlay_;
};

}  // namespace whynot::ls

#endif  // WHYNOT_CONCEPTS_CONCEPT_CACHE_H_
