#include "whynot/explain/enumerate.h"

#include <algorithm>
#include <atomic>
#include <deque>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <tuple>
#include <utility>

#include "whynot/common/parallel.h"
#include "whynot/concepts/ls_eval.h"
#include "whynot/explain/search_core.h"

namespace whynot::explain {

namespace {

// A ground element of the independence system: position j generalized by
// active-domain constant `adom[constant_index]`, or — when `constant_index
// == kTopIndex` — by ⊤.
constexpr int kTopIndex = -1;

struct GroundElement {
  int position;
  int constant_index;

  bool operator<(const GroundElement& o) const {
    return std::tie(position, constant_index) <
           std::tie(o.position, o.constant_index);
  }
  bool operator==(const GroundElement& o) const {
    return position == o.position && constant_index == o.constant_index;
  }
};

using ExclusionSet = std::set<GroundElement>;

// State of one greedy completion: per-position support sets, concepts,
// extensions, and the *decision* elements — accepted additions that
// changed an extension. Decisions are the only elements worth branching
// on: excluding an absorbed element cannot change the greedy trajectory.
// Extensions are pointers into the evaluator's lub cache (stable map
// nodes) or its shared ⊤ extension, so the answer-cover kernel can key
// cover bitmaps by identity across nodes.
struct GreedyState {
  std::vector<std::vector<Value>> support;  // constants fed to lub
  std::vector<bool> topped;                 // position generalized to ⊤
  LsExplanation concepts;
  std::vector<const ls::Extension*> exts;
  std::vector<GroundElement> decisions;
};

// Output-dedup key: extensions identified in id space (all extensions
// share the instance pool, so rank-sorted ids + boxed extras are
// canonical — integer comparisons, no values() materialization).
using ExtKey = std::tuple<bool, std::vector<ValueId>, std::vector<Value>>;

/// Evaluates one branch-tree node: deterministic greedy completion under
/// an exclusion set plus the unconstrained-maximality test. The evaluator
/// owns every lazily mutating structure a node touches — the lub context,
/// its concept-cache overlay, the answer covers — so the parallel
/// enumerator can give each pool worker its own evaluator and the serial
/// one can keep a single evaluator across all nodes; only the *published*
/// (frozen, read-only during a wave) tier of the concept cache is shared.
/// Node results are pure functions of the exclusion set, independent of
/// which evaluator computes them.
///
/// Probes use the shared GreedyAndCache (search_core.h): within a greedy
/// sweep the product check "replace position j's cover, AND with all
/// others" has a loop-invariant rest — the AND of the final covers below
/// j and the initial covers above j — so each candidate probe collapses
/// from an m-way AND to a single AND against the cached rest words. This
/// speeds the single-thread path as much as the parallel one.
class NodeEvaluator {
 public:
  NodeEvaluator(const Binding& binding, const Tuple& missing,
                const EnumerateOptions& options, ls::LubContext* lub,
                ls::ConceptCache* cache)
      : missing_(missing),
        options_(options),
        overlay_(cache, options.with_selections, lub),
        adom_(binding.instance()->ActiveDomain()),
        adom_ids_(binding.instance()->ActiveDomainIds()),
        covers_(binding.instance(), &binding.answers()),
        nwords_((binding.answers().size() + 63) / 64),
        top_ext_(ls::Extension::All()) {
    full_.assign(nwords_, ~uint64_t{0});
    size_t rest = binding.answers().size() % 64;
    if (nwords_ > 0 && rest != 0) full_.back() = (uint64_t{1} << rest) - 1;
  }

  // Deterministic greedy maximization under an exclusion set: start from
  // the nominal-pinned tuple and, in fixed (position, constant) order, add
  // every non-excluded generalization that keeps the tuple an explanation.
  Status GreedyComplete(const ExclusionSet& excluded, GreedyState* state) {
    size_t m = missing_.size();
    state->support.resize(m);
    state->topped.assign(m, false);
    state->concepts.resize(m);
    state->exts.resize(m);
    for (size_t j = 0; j < m; ++j) {
      state->support[j] = {missing_[j]};
      WHYNOT_ASSIGN_OR_RETURN(auto ce, LubAndEval(state->support[j]));
      state->concepts[j] = *ce.first;
      state->exts[j] = ce.second;
    }
    if (covers_.ProductIntersects(state->exts)) {
      return Status::Internal(
          "nominal-pinned tuple is not an explanation; contradicts "
          "Section 5.2");
    }

    // The cache snapshots the initial-suffix ANDs here (later positions
    // have not changed yet) and lazily absorbs each position's *final*
    // cover into its prefix as Rest moves past it — cover_at reads the
    // state's current extension at absorption time.
    auto cover_at = [this, state](size_t k) {
      return View(*state->exts[k], k);
    };
    and_cache_.Reset(m, nwords_, full_.data(), cover_at);

    for (size_t j = 0; j < m; ++j) {
      // Loop-invariant rest of the probe at position j: an accepted swap
      // only changes position j itself, so `rest` survives the whole
      // sweep of this position.
      const std::vector<uint64_t>& rest = and_cache_.Rest(j, cover_at);
      for (size_t bi = 0; bi < adom_.size() && !state->topped[j]; ++bi) {
        GroundElement e{static_cast<int>(j), static_cast<int>(bi)};
        if (excluded.count(e) > 0) continue;
        // Inside the current lub extension: adding b leaves the lub
        // unchanged (Lemma 5.1/5.2 minimality), so nothing to decide.
        if (state->exts[j]->ContainsId(adom_ids_[bi])) continue;
        std::vector<Value> extended = state->support[j];
        extended.push_back(adom_[bi]);
        WHYNOT_ASSIGN_OR_RETURN(auto cand, LubAndEval(extended));
        if (!AnyAnd(rest, View(*cand.second, j))) {
          state->support[j] = std::move(extended);
          state->concepts[j] = *cand.first;
          state->exts[j] = cand.second;
          state->decisions.push_back(e);
        }
      }
      if (options_.generalize_to_top && !state->exts[j]->all) {
        GroundElement top{static_cast<int>(j), kTopIndex};
        if (excluded.count(top) == 0 && !AnyAnd(rest, full_.data())) {
          state->topped[j] = true;
          state->concepts[j] = ls::LsConcept::Top();
          state->exts[j] = &top_ext_;
          state->decisions.push_back(top);
        }
      }
    }
    return Status::OK();
  }

  // True iff no *excluded* element can still be added: combined with
  // maximality within ground ∖ F (which the sweep guarantees), this makes
  // the output maximal in the unconstrained system.
  Result<bool> MaximalUnconstrained(const ExclusionSet& excluded,
                                    const GreedyState& state) {
    size_t m = missing_.size();
    // The same prefix/suffix cache over the *final* covers (fixed during
    // this pass); the exclusion set iterates in ascending position order,
    // exactly the non-decreasing j the cache requires.
    auto cover_at = [this, &state](size_t k) {
      return View(*state.exts[k], k);
    };
    and_cache_.Reset(m, nwords_, full_.data(), cover_at);
    for (const GroundElement& e : excluded) {
      size_t j = static_cast<size_t>(e.position);
      if (state.topped[j] || state.exts[j]->all) continue;
      const std::vector<uint64_t>& rest = and_cache_.Rest(j, cover_at);
      if (e.constant_index == kTopIndex) {
        if (options_.generalize_to_top && !AnyAnd(rest, full_.data())) {
          return false;
        }
        continue;
      }
      size_t bi = static_cast<size_t>(e.constant_index);
      if (state.exts[j]->ContainsId(adom_ids_[bi])) continue;  // absorbed
      std::vector<Value> extended = state.support[j];
      extended.push_back(adom_[bi]);
      // Verification probes never accept, so these keys are probed once:
      // the transient path serves warm tiers without recording a
      // support-tier entry (the greedy sweep's candidates, which recur
      // across sibling nodes and requests, stay on the caching path).
      WHYNOT_ASSIGN_OR_RETURN(std::shared_ptr<const ls::Extension> cand,
                              overlay_.LubExtTransient(extended));
      if (!AnyAnd(rest, View(*cand, j))) return false;
    }
    return true;
  }

  /// The overlay to publish at serial points (the enumerator drains it
  /// wave by wave in worker-slot order).
  ls::ConceptCacheOverlay* overlay() { return &overlay_; }

 private:
  // Memoized lub + evaluation through the shared concept cache:
  // branch-tree nodes share long support-set prefixes, so the same lub is
  // requested many times across nodes — and, via the published tier,
  // across workers and requests. The returned pointers are address-stable
  // (shared_ptr-owned entries), which the answer-cover kernel keys its
  // bitmaps by.
  Result<std::pair<const ls::LsConcept*, const ls::Extension*>> LubAndEval(
      const std::vector<Value>& x) {
    WHYNOT_ASSIGN_OR_RETURN(const ls::ConceptCache::Entry* entry,
                            overlay_.LubAndEval(x));
    return std::make_pair<const ls::LsConcept*, const ls::Extension*>(
        &entry->concept, entry->ext.get());
  }

  CoverView View(const ls::Extension& ext, size_t pos) {
    // No answers: nothing to cover, every probe passes (the covers have no
    // per-position columns to index in that case).
    if (nwords_ == 0) return CoverView{full_.data(), nullptr};
    return covers_.Cover(ext, pos);
  }

  // The probe reuses the cover kernel's early-exit AnyAnd (view form for
  // cached cover rows, raw form for the all-alive words); the running
  // prefix/suffix ANDs live in the shared GreedyAndCache.
  static bool AnyAnd(const std::vector<uint64_t>& a, const CoverView& b) {
    return ConceptAnswerCovers::AnyAndView(a, b);
  }
  static bool AnyAnd(const std::vector<uint64_t>& a, const uint64_t* b) {
    return ConceptAnswerCovers::AnyAnd(a, b);
  }

  const Tuple& missing_;
  const EnumerateOptions& options_;
  ls::ConceptCacheOverlay overlay_;
  const std::vector<Value>& adom_;
  const std::vector<ValueId>& adom_ids_;
  LsAnswerCovers covers_;
  size_t nwords_;
  std::vector<uint64_t> full_;  // all answers alive, trailing bits zero
  GreedyAndCache and_cache_;
  const ls::Extension top_ext_;
};

/// Everything the deterministic merge needs from one evaluated node; a
/// plain value type so worker-local extension pointers never escape their
/// evaluator.
struct NodeResult {
  Status status = Status::OK();
  bool maximal = false;
  LsExplanation concepts;
  std::vector<ExtKey> ext_key;
  std::vector<GroundElement> decisions;
};

class Enumerator {
 public:
  Enumerator(Binding& binding, const Tuple& missing,
             const EnumerateOptions& options, EnumerateStats* stats)
      : binding_(binding), missing_(missing), options_(options),
        cache_(&binding.concept_cache()), stats_(stats) {}

  // Exclusion-branching enumeration of maximal independent sets
  // (Lawler-style), specialized to this monotone system:
  //
  //   * One sweep in fixed (position, constant) order under exclusions F
  //     yields a set maximal within ground ∖ F: acceptance only ever makes
  //     later checks stricter, so a rejected element never becomes
  //     acceptable again.
  //   * The output is reported iff no excluded element can be re-added
  //     (then it is maximal unconstrained, i.e. a genuine MGE).
  //   * Children exclude, in turn, each decision element of the output.
  //     Completeness: for a target MGE M and a node with F ∩ M = ∅, if
  //     every decision lies inside M's support then induction over the
  //     sweep shows the output's extensions equal M's (every element of
  //     M's support is attempted and accepted, every acceptance stays
  //     inside M), so the node reports M; otherwise some decision e ∉ M
  //     gives a child with F ∪ {e} still disjoint from M.
  //
  // With more than one pool thread the branch tree expands in FIFO waves:
  // every queued node evaluates in parallel (each worker owns a
  // NodeEvaluator — node results do not depend on which one), then a
  // serial merge consumes the results *in queue order*, replaying the
  // serial loop's accounting — node budget, dedup, delay stats, child
  // discovery — exactly. Outputs and stats are therefore identical for
  // every thread count; nodes past a mid-wave stopping point are wasted
  // speculation, nothing more.
  //
  // This enumeration deliberately stays outside the dominance-pruned
  // frontier machinery (explain/lattice.h) the external-ontology searches
  // share: the frontier needs a finite, pre-enumerated concept space with
  // a closed subsumption matrix to build downset bitmaps over, while the
  // derived ontology OI materializes its concepts on demand as lubs of
  // support sets — the candidate "lists" here are implicit in the
  // exponentially many subsets of the active domain, and maximality is
  // decided by lub probes, not matrix rows. Lawler-style exclusion
  // branching *is* the lattice walk for that implicit space: each sweep
  // lands exactly on a maximal element, and children step down only
  // through explicit exclusions.
  Result<std::vector<LsExplanation>> Run() {
    if (par::NumThreads() > 1) {
      binding_.instance()->WarmForConcurrentReads();
      return RunParallel();
    }
    NodeEvaluator evaluator(binding_, missing_, options_, &binding_.lub(),
                            cache_);
    // Whatever this run computes becomes visible to the next search on
    // the same binding, on success and error paths alike.
    ls::ScopedPublish publish(cache_, evaluator.overlay());
    std::vector<LsExplanation> results;
    std::set<std::vector<ExtKey>> seen_outputs;
    std::set<ExclusionSet> visited;
    std::deque<ExclusionSet> queue;
    queue.push_back({});
    visited.insert({});
    size_t nodes_since_last_output = 0;

    while (!queue.empty()) {
      if (stats_->nodes_expanded >= options_.max_nodes) {
        if (options_.cert == nullptr) {
          return Status::ResourceExhausted(
              "MGE enumeration exceeded max_nodes = " +
              std::to_string(options_.max_nodes));
        }
        halted_ = exec::Stop{exec::StopReason::kBudget, options_.max_nodes};
        remaining_ = queue.size();
        break;
      }
      // Probe = node ordinal (nodes expanded so far) — the wave merge in
      // RunParallel consumes nodes in the same order, so the ordinal at
      // any stop is thread-invariant.
      if (std::optional<exec::Stop> s =
              exec::Check(options_.exec, stats_->nodes_expanded)) {
        if (options_.cert == nullptr) {
          return exec::StopStatus(*s, "MGE enumeration");
        }
        halted_ = *s;
        remaining_ = queue.size();
        break;
      }
      ExclusionSet excluded = std::move(queue.front());
      queue.pop_front();
      ++stats_->nodes_expanded;
      ++nodes_since_last_output;

      GreedyState state;
      WHYNOT_RETURN_IF_ERROR(evaluator.GreedyComplete(excluded, &state));

      WHYNOT_ASSIGN_OR_RETURN(bool maximal,
                              evaluator.MaximalUnconstrained(excluded, state));
      bool fresh_output = false;
      if (maximal) {
        std::vector<ExtKey> ext_key;
        ext_key.reserve(state.exts.size());
        for (const ls::Extension* ext : state.exts) {
          ext_key.emplace_back(ext->all, ext->ids(), ext->extras());
        }
        if (seen_outputs.insert(std::move(ext_key)).second) {
          fresh_output = true;
          stats_->max_delay =
              std::max(stats_->max_delay, nodes_since_last_output);
          nodes_since_last_output = 0;
          results.push_back(state.concepts);
          if (results.size() >= options_.max_results) {
            if (options_.cert != nullptr) {
              halted_ = exec::Stop{exec::StopReason::kBudget,
                                   stats_->nodes_expanded};
              remaining_ = queue.size();
            }
            return Finish(std::move(results));
          }
        } else {
          ++stats_->duplicate_outputs;
        }
      }
      if (!fresh_output && !options_.expand_duplicate_nodes) continue;

      for (const GroundElement& e : state.decisions) {
        ExclusionSet child = excluded;
        child.insert(e);
        if (visited.insert(child).second) {
          queue.push_back(std::move(child));
        } else {
          ++stats_->visited_hits;
        }
      }
    }
    return Finish(std::move(results));
  }

 private:
  // Certifies a (possibly partial) result set: quality is kExact only for
  // an uninterrupted run; any stop downgrades to kLowerBound — every
  // reported element is a verified MGE, but the antichain may be
  // incomplete. `remaining_` counts the branch-tree nodes still queued at
  // the stop, a thread-invariant measure of the unexplored frontier.
  Result<std::vector<LsExplanation>> Finish(
      std::vector<LsExplanation> results) {
    if (options_.cert != nullptr) {
      exec::Progress progress;
      progress.tested = stats_->nodes_expanded;
      progress.remaining = remaining_;
      exec::FillCertificate(options_.cert, halted_.value_or(exec::Stop{}),
                            progress, results.size());
    }
    return results;
  }

  Result<std::vector<LsExplanation>> RunParallel() {
    std::vector<LsExplanation> results;
    std::set<std::vector<ExtKey>> seen_outputs;
    std::set<ExclusionSet> visited;
    std::vector<ExclusionSet> frontier;
    frontier.push_back({});
    visited.insert({});
    size_t nodes_since_last_output = 0;
    std::vector<std::unique_ptr<NodeEvaluator>> workers(
        static_cast<size_t>(par::MaxWorkers()));
    std::vector<std::unique_ptr<ls::LubContext>> worker_lubs(workers.size());

    while (!frontier.empty()) {
      // Only nodes inside the remaining budget can ever be consumed: the
      // merge errors out the moment nodes_expanded hits max_nodes, exactly
      // like the serial pop loop, so evaluating past the budget would be
      // pure wasted work (a wave can exceed it by the full branch
      // fan-out).
      size_t budget = options_.max_nodes > stats_->nodes_expanded
                          ? options_.max_nodes - stats_->nodes_expanded
                          : 0;
      size_t n_eval = std::min(frontier.size(), budget);
      std::vector<NodeResult> evaluated(n_eval);
      // Workers poll for abandonment (real deadline/cancellation only —
      // never fault injection) at node granularity; an abandoned wave is
      // discarded whole below, so skipped nodes cannot leak into results.
      std::atomic<bool> abandon{false};
      par::ParallelForWorker(
          n_eval, 1, &abandon, [&](int w, size_t begin, size_t end) {
            if (exec::ShouldAbandon(options_.exec)) {
              abandon.store(true, std::memory_order_relaxed);
              return;
            }
            size_t slot = static_cast<size_t>(w);
            if (workers[slot] == nullptr) {
              worker_lubs[slot] = std::make_unique<ls::LubContext>(
                  binding_.instance(), binding_.lub_options());
              workers[slot] = std::make_unique<NodeEvaluator>(
                  binding_, missing_, options_, worker_lubs[slot].get(),
                  cache_);
            }
            NodeEvaluator& evaluator = *workers[slot];
            for (size_t i = begin; i < end; ++i) {
              NodeResult& nr = evaluated[i];
              GreedyState state;
              nr.status = evaluator.GreedyComplete(frontier[i], &state);
              if (!nr.status.ok()) continue;
              Result<bool> maximal =
                  evaluator.MaximalUnconstrained(frontier[i], state);
              if (!maximal.ok()) {
                nr.status = maximal.status();
                continue;
              }
              nr.maximal = maximal.value();
              nr.concepts = std::move(state.concepts);
              nr.decisions = std::move(state.decisions);
              if (nr.maximal) {
                nr.ext_key.reserve(state.exts.size());
                for (const ls::Extension* ext : state.exts) {
                  nr.ext_key.emplace_back(ext->all, ext->ids(), ext->extras());
                }
              }
            }
          });
      // Publish-after-wave: drain every live overlay in worker-slot order
      // (a thread-independent linearization) at this serial point, so the
      // lubs one worker computed are published-tier hits for every worker
      // of the next wave. Publishing is sound even for an abandoned wave —
      // entries are pure functions of the instance.
      for (std::unique_ptr<NodeEvaluator>& worker : workers) {
        if (worker != nullptr) cache_->Publish(worker->overlay());
      }
      if (abandon.load(std::memory_order_relaxed)) {
        // The wave may have holes, so none of it is consumed: the partial
        // result is everything merged through the end of the previous
        // wave. Both abandon conditions are monotone, so PollNow resolves
        // the reason; the fallback covers a cancel raced against its own
        // observation.
        exec::Stop s =
            options_.exec->PollNow(stats_->nodes_expanded)
                .value_or(exec::Stop{exec::StopReason::kCancelled,
                                     stats_->nodes_expanded});
        if (options_.cert == nullptr) {
          return exec::StopStatus(s, "MGE enumeration");
        }
        halted_ = s;
        remaining_ = frontier.size();
        break;
      }

      std::vector<ExclusionSet> next;
      for (size_t i = 0; i < frontier.size(); ++i) {
        if (stats_->nodes_expanded >= options_.max_nodes) {
          if (options_.cert == nullptr) {
            return Status::ResourceExhausted(
                "MGE enumeration exceeded max_nodes = " +
                std::to_string(options_.max_nodes));
          }
          halted_ = exec::Stop{exec::StopReason::kBudget, options_.max_nodes};
          remaining_ = (frontier.size() - i) + next.size();
          break;
        }
        // Same probe ordinals, same check order as the serial pop loop.
        if (std::optional<exec::Stop> s =
                exec::Check(options_.exec, stats_->nodes_expanded)) {
          if (options_.cert == nullptr) {
            return exec::StopStatus(*s, "MGE enumeration");
          }
          halted_ = *s;
          remaining_ = (frontier.size() - i) + next.size();
          break;
        }
        ++stats_->nodes_expanded;
        ++nodes_since_last_output;
        NodeResult& nr = evaluated[i];
        if (!nr.status.ok()) return nr.status;
        bool fresh_output = false;
        if (nr.maximal) {
          if (seen_outputs.insert(std::move(nr.ext_key)).second) {
            fresh_output = true;
            stats_->max_delay =
                std::max(stats_->max_delay, nodes_since_last_output);
            nodes_since_last_output = 0;
            results.push_back(std::move(nr.concepts));
            if (results.size() >= options_.max_results) {
              if (options_.cert != nullptr) {
                halted_ = exec::Stop{exec::StopReason::kBudget,
                                     stats_->nodes_expanded};
                remaining_ = (frontier.size() - 1 - i) + next.size();
              }
              return Finish(std::move(results));
            }
          } else {
            ++stats_->duplicate_outputs;
          }
        }
        if (!fresh_output && !options_.expand_duplicate_nodes) continue;
        for (const GroundElement& e : nr.decisions) {
          ExclusionSet child = frontier[i];
          child.insert(e);
          if (visited.insert(child).second) {
            next.push_back(std::move(child));
          } else {
            ++stats_->visited_hits;
          }
        }
      }
      if (halted_.has_value()) break;
      frontier = std::move(next);
    }
    return Finish(std::move(results));
  }

  Binding& binding_;
  const Tuple& missing_;
  const EnumerateOptions& options_;
  ls::ConceptCache* cache_;
  EnumerateStats* stats_;
  std::optional<exec::Stop> halted_;
  size_t remaining_ = 0;
};

}  // namespace

Result<std::vector<LsExplanation>> EnumerateAllMges(
    Binding& binding, const Tuple& missing, const EnumerateOptions& options,
    EnumerateStats* stats) {
  WHYNOT_RETURN_IF_ERROR(binding.Check(/*needs_ontology=*/false));
  EnumerateStats local_stats;
  if (stats == nullptr) stats = &local_stats;
  *stats = EnumerateStats{};
  ls::ConceptCache* concept_cache = &binding.concept_cache();
  const ls::ConceptCacheStats before = concept_cache->stats();
  Enumerator enumerator(binding, missing, options, stats);
  Result<std::vector<LsExplanation>> result = enumerator.Run();
  // Attribute this run's cache traffic (a binding's cache accumulates
  // across requests; the stats block reports per-call deltas).
  const ls::ConceptCacheStats& after = concept_cache->stats();
  stats->cache_shared_hits = after.shared_hits - before.shared_hits;
  stats->cache_local_hits = after.local_hits - before.local_hits;
  stats->cache_misses = after.misses - before.misses;
  stats->cache_publishes = after.publishes - before.publishes;
  stats->cache_evictions = after.evictions - before.evictions;
  return result;
}

Result<std::vector<LsExplanation>> EnumerateAllMges(
    const WhyNotInstance& wni, const EnumerateOptions& options,
    EnumerateStats* stats) {
  Binding binding(wni.instance, wni.answers);
  return EnumerateAllMges(binding, wni.missing, options, stats);
}

}  // namespace whynot::explain
