#include "whynot/concepts/concept_cache.h"

#include <functional>
#include <string>

#include "whynot/common/algorithm.h"

namespace whynot::ls {
namespace {

inline size_t Mix(size_t h, size_t x) {
  // Boost-style hash combine; good enough for shard striping and bucket
  // placement.
  return h ^ (x + 0x9e3779b97f4a7c15ull + (h << 6) + (h >> 2));
}

// Approximate heap bytes of a support key (the sorted value vector).
size_t KeyBytes(const std::vector<Value>& key) {
  return key.capacity() * sizeof(Value);
}

// Approximate heap bytes of a concept's conjunct list (relation-name and
// selection storage folded into a flat per-conjunct estimate).
size_t ConceptBytes(const LsConcept& c) {
  size_t bytes = sizeof(LsConcept);
  for (const Conjunct& cj : c.conjuncts()) {
    bytes += sizeof(Conjunct) + cj.relation.capacity() +
             cj.selections.capacity() * sizeof(Selection);
  }
  return bytes;
}

// Fixed per-published-entry overhead: the shared_ptr control block and
// the hash-map node the ShardedPublishCache stores it in.
constexpr size_t kNodeOverhead = 4 * sizeof(void*);

}  // namespace

size_t SupportKeyHash::operator()(const std::vector<Value>& key) const {
  size_t h = key.size();
  for (const Value& v : key) h = Mix(h, v.Hash());
  return h;
}

size_t ConceptHash::operator()(const LsConcept& concept_expr) const {
  size_t h = concept_expr.conjuncts().size();
  for (const Conjunct& cj : concept_expr.conjuncts()) {
    h = Mix(h, static_cast<size_t>(cj.kind));
    switch (cj.kind) {
      case Conjunct::Kind::kTop:
        break;
      case Conjunct::Kind::kNominal:
        h = Mix(h, cj.nominal.Hash());
        break;
      case Conjunct::Kind::kProjection:
        h = Mix(h, std::hash<std::string>{}(cj.relation));
        h = Mix(h, static_cast<size_t>(cj.attr));
        for (const Selection& s : cj.selections) {
          h = Mix(h, static_cast<size_t>(s.attr));
          h = Mix(h, static_cast<size_t>(s.op));
          h = Mix(h, s.constant.Hash());
        }
        break;
    }
  }
  return h;
}

ConceptCache::ConceptCache(const rel::Instance* instance,
                           ConceptCacheOptions options)
    : instance_(instance),
      options_(options),
      support_free_(options.shards),
      support_sel_(options.shards),
      evals_(options.shards) {}

const ConceptCache::Entry* ConceptCache::FindSupport(
    bool with_selections, const std::vector<Value>& sorted_key) const {
  return tier(with_selections).Find(sorted_key);
}

std::shared_ptr<const Extension> ConceptCache::FindEval(
    const LsConcept& concept_expr) const {
  return evals_.FindShared(concept_expr);
}

void ConceptCache::Publish(ConceptCacheOverlay* overlay) {
  ConceptCacheStats& os = overlay->stats_;
  stats_.shared_hits += os.shared_hits;
  stats_.local_hits += os.local_hits;
  stats_.misses += os.misses;
  os = ConceptCacheStats{};

  // Eval tier first: its extensions carry the bulk of the bytes, and the
  // support entries below alias them by shared_ptr, so the extension is
  // accounted exactly once.
  for (const auto* node : overlay->pending_evals_) {
    const LsConcept& concept_expr = node->first;
    const std::shared_ptr<const Extension>& ext = node->second;
    ext->Freeze();
    size_t entry_bytes =
        ext->MemoryBytes() + ConceptBytes(concept_expr) + kNodeOverhead;
    if (options_.max_bytes != 0 && bytes_ + entry_bytes > options_.max_bytes) {
      ++stats_.evictions;
      continue;
    }
    if (evals_.Publish(concept_expr, ext)) {
      bytes_ += entry_bytes;
      ++stats_.publishes;
    }
  }
  SupportTier& support = tier(overlay->with_selections_);
  for (const auto* node : overlay->pending_support_) {
    const std::vector<Value>& key = node->first;
    const std::shared_ptr<const Entry>& entry = node->second;
    entry->ext->Freeze();
    size_t entry_bytes = KeyBytes(key) + ConceptBytes(entry->concept) +
                         sizeof(Entry) + kNodeOverhead;
    if (options_.max_bytes != 0 && bytes_ + entry_bytes > options_.max_bytes) {
      ++stats_.evictions;
      continue;
    }
    if (support.Publish(key, entry)) {
      bytes_ += entry_bytes;
      ++stats_.publishes;
    }
  }
  overlay->pending_evals_.clear();
  overlay->pending_support_.clear();
}

size_t ConceptCache::size() const {
  return support_free_.size() + support_sel_.size() + evals_.size();
}

size_t ConceptCache::MemoryBytes() const {
  return bytes_ + support_free_.MemoryBytes() + support_sel_.MemoryBytes() +
         evals_.MemoryBytes();
}

ConceptCacheOverlay::ConceptCacheOverlay(ConceptCache* shared,
                                         bool with_selections, LubContext* lub,
                                         EvalCache* conjunct_eval)
    : shared_(shared),
      with_selections_(with_selections),
      lub_(lub),
      conjunct_eval_(conjunct_eval) {
  if (conjunct_eval_ == nullptr) {
    own_eval_.emplace(&shared->instance());
    conjunct_eval_ = &*own_eval_;
  }
}

Result<LsConcept> ConceptCacheOverlay::LubOfSorted(
    const std::vector<Value>& sorted_key) {
  if (with_selections_) {
    return lub_->LubWithSelectionsSorted(sorted_key);
  }
  return lub_->LubSelectionFreeSorted(sorted_key);
}

const ConceptCacheOverlay::LocalEvalMap::value_type*
ConceptCacheOverlay::EvalThroughTiers(const LsConcept& concept_expr) {
  // The extension tier is keyed by the concept, so distinct support sets
  // in one lub class share a single Extension object. Local map first:
  // within one search most candidate lubs collapse onto concepts this
  // overlay has already evaluated, and either copy of a pure value is
  // interchangeable. One hash: try_emplace both probes and claims the
  // slot, and a published hit is memoized into it so repeat probes stay
  // local.
  auto [it, inserted] = local_evals_.try_emplace(concept_expr);
  if (inserted) {
    if (!shared_->evals_.empty()) {
      it->second = shared_->FindEval(concept_expr);
    }
    if (it->second == nullptr) {
      // Mirrors EvalCache::Eval bit for bit: intersect conjunct extensions
      // in canonical order with the same early-empty break.
      Extension value = Extension::All();
      for (const Conjunct& c : concept_expr.conjuncts()) {
        value = value.Intersect(conjunct_eval_->EvalConjunct(c));
        if (value.empty()) break;
      }
      it->second = std::make_shared<const Extension>(std::move(value));
      pending_evals_.push_back(&*it);
    }
  }
  return &*it;
}

Result<const ConceptCache::Entry*> ConceptCacheOverlay::LubAndEval(
    const std::vector<Value>& x) {
  std::vector<Value> key = x;
  SortUnique(&key);

  // One hash for probe and claim: try_emplace either finds the local
  // entry or inserts the slot the miss path below fills in.
  auto [it, inserted] = local_.try_emplace(std::move(key));
  if (!inserted) {
    ++stats_.local_hits;
    return it->second.get();
  }
  const std::vector<Value>& sorted_key = it->first;
  // The emptiness probe keeps a cold cache's miss path near-free: size_
  // only moves at serial points, so during a wave it reads a constant,
  // and skipping the lookup saves hashing the key against the tier.
  if (!shared_->tier(with_selections_).empty()) {
    if (auto e = shared_->tier(with_selections_).FindShared(sorted_key)) {
      ++stats_.shared_hits;
      // Memoized locally (repeat probes become one-hash local hits); the
      // address handed out stays the published one, so identity keying
      // is unaffected.
      it->second = std::move(e);
      return it->second.get();
    }
  }
  ++stats_.misses;

  Result<LsConcept> lub = LubOfSorted(sorted_key);
  if (!lub.ok()) {
    // Box-cap errors pass through uncached: drop the claimed slot.
    local_.erase(it);
    return lub.status();
  }
  LsConcept concept_expr = std::move(lub).value();
  std::shared_ptr<const Extension> ext =
      EvalThroughTiers(concept_expr)->second;
  it->second = std::make_shared<const ConceptCache::Entry>(
      ConceptCache::Entry{std::move(concept_expr), std::move(ext)});
  pending_support_.push_back(&*it);
  return it->second.get();
}

Result<std::shared_ptr<const Extension>> ConceptCacheOverlay::LubExtTransient(
    const std::vector<Value>& x) {
  // Canonicalizing into the scratch buffer is cost-parity with the
  // defensive copy + sort the general lub entry points would pay anyway
  // (the buffer makes it allocation-free after warm-up), and it leaves
  // the sorted key at hand for PromoteLastProbe. This path runs once per
  // sweep candidate.
  scratch_key_.assign(x.begin(), x.end());
  SortUnique(&scratch_key_);
  last_local_ = nullptr;
  last_shared_ = nullptr;
  last_eval_node_ = nullptr;
  if (!local_.empty()) {
    auto it = local_.find(scratch_key_);
    if (it != local_.end()) {
      ++stats_.local_hits;
      last_local_ = it->second.get();
      return it->second->ext;
    }
  }
  if (!shared_->tier(with_selections_).empty()) {
    if (auto e = shared_->tier(with_selections_).FindShared(scratch_key_)) {
      ++stats_.shared_hits;
      last_shared_ = std::move(e);
      return last_shared_->ext;
    }
  }
  ++stats_.misses;
  Result<LsConcept> lub = LubOfSorted(scratch_key_);
  if (!lub.ok()) return lub.status();
  last_eval_node_ = EvalThroughTiers(std::move(lub).value());
  return last_eval_node_->second;
}

const ConceptCache::Entry* ConceptCacheOverlay::PromoteLastProbe() {
  // Already in the local support map: nothing to record.
  if (last_local_ != nullptr) return last_local_;
  // scratch_key_ still holds the probe's canonical key (no overlay call
  // may intervene, per the contract). The entry value matches what a
  // fresh LubAndEval of the same key would build: same concept value,
  // same eval-tier extension address.
  auto [it, inserted] = local_.try_emplace(scratch_key_);
  if (inserted) {
    if (last_shared_ != nullptr) {
      // Memoize the published entry locally, keeping its address.
      it->second = std::move(last_shared_);
    } else {
      it->second = std::make_shared<const ConceptCache::Entry>(
          ConceptCache::Entry{last_eval_node_->first,
                              last_eval_node_->second});
      pending_support_.push_back(&*it);
    }
  }
  return it->second.get();
}

}  // namespace whynot::ls
