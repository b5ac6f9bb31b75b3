#include "whynot/explain/why_explanation.h"

#include <algorithm>
#include <memory>
#include <optional>
#include <utility>

#include "whynot/concepts/ls_eval.h"
#include "whynot/explain/search_core.h"
#include "whynot/relational/cq_eval.h"

namespace whynot::explain {

Result<WhyInstance> MakeWhyInstance(const rel::Instance* instance,
                                    const rel::UnionQuery& query,
                                    Tuple present) {
  WHYNOT_ASSIGN_OR_RETURN(std::vector<Tuple> answers,
                          rel::Evaluate(query, *instance));
  if (query.arity() != present.size()) {
    return Status::InvalidArgument("tuple arity does not match query arity");
  }
  if (!std::binary_search(answers.begin(), answers.end(), present)) {
    return Status::InvalidArgument(
        "tuple " + TupleToString(present) +
        " is not in the answer set; ask a why-not question instead");
  }
  WhyInstance wi;
  wi.instance = instance;
  wi.answers = std::move(answers);
  wi.present = std::move(present);
  return wi;
}

namespace {

/// "product ⊆ Ans" in counting form over the answer-cover kernel: the
/// product tuples are pairwise distinct and Ans is duplicate-free, so the
/// product is inside Ans iff |product| equals the number of answers whose
/// every component lies in the corresponding extension — and that number
/// is popcount(⋀_i Cover(e_i, i)), one word-parallel AND instead of a
/// scalar membership pass per (answer, position). An All extension at any
/// position makes the product infinite, hence never ⊆ the finite answer
/// set — unless some other position is empty, making the product empty
/// and vacuously inside.
///
/// ext(C1) × ... × ext(Cm) ⊆ Ans over a bound finite ontology.
bool ProductInsideAnswers(onto::BoundOntology* bound,
                          const std::vector<onto::ConceptId>& concepts,
                          ConceptAnswerCovers* covers) {
  for (onto::ConceptId c : concepts) {
    const onto::ExtSet& e = bound->Ext(c);
    if (!e.is_all() && e.size() == 0) return true;  // vacuously inside
  }
  size_t product_size = 1;
  for (onto::ConceptId c : concepts) {
    const onto::ExtSet& e = bound->Ext(c);
    if (e.is_all()) return false;
    // |product| > |Ans| can never be covered; bail before overflow.
    if (product_size > covers->num_answers() / e.size()) return false;
    product_size *= e.size();
  }
  return covers->CountCovered(concepts) == product_size;
}

}  // namespace

Result<bool> IsWhyExplanation(Binding& binding, const Tuple& present,
                              const Explanation& e) {
  WHYNOT_RETURN_IF_ERROR(binding.Check(/*needs_ontology=*/true));
  onto::BoundOntology* bound = binding.bound();
  if (e.size() != present.size()) {
    return Status::InvalidArgument(
        "explanation arity does not match the tuple");
  }
  for (size_t i = 0; i < e.size(); ++i) {
    ValueId id = bound->pool().Intern(present[i]);
    if (!bound->Ext(e[i]).Contains(id)) return false;
  }
  return ProductInsideAnswers(bound, e, &binding.covers());
}

Result<std::vector<Explanation>> AllMostGeneralWhyExplanations(
    Binding& binding, const Tuple& present, const ExhaustiveOptions& options) {
  WHYNOT_RETURN_IF_ERROR(binding.Check(/*needs_ontology=*/true));
  onto::BoundOntology* bound = binding.bound();
  const size_t max_candidates = options.max_candidates;
  PruneStats* prune_stats = options.prune_stats;
  const exec::ExecContext* exec = options.exec;
  exec::Certificate* cert = options.cert;
  size_t m = present.size();
  std::vector<std::vector<onto::ConceptId>> lists(m);
  for (size_t i = 0; i < m; ++i) {
    ValueId id = bound->pool().Intern(present[i]);
    lists[i] = bound->ConceptsContaining(id);
    if (lists[i].empty()) {
      exec::FillCertificate(cert, exec::Stop{}, exec::Progress{}, 0);
      return std::vector<Explanation>{};
    }
  }
  ConceptAnswerCovers* covers = &binding.covers();
  CandidateSpace space(lists);
  // "product ⊆ Ans" is ≼-downward closed just like avoidance (a smaller
  // product stays inside Ans), so the strategy dispatch is the
  // exhaustive search's verbatim.
  LatticeChoice choice = ChooseStrategy(options.strategy, space,
                                        max_candidates, binding.lattice());
  if (!choice.use_lattice && cert == nullptr &&
      (space.overflow() || space.total() > max_candidates)) {
    return Status::ResourceExhausted(
        "why-explanation enumeration exceeded max_candidates");
  }

  // The product-containment test — the counting AND with its finite-size
  // pre-checks, by far the dominant cost — is a pure function of the
  // candidate, so it shards through the shared candidate filter against a
  // pre-resolved cover table; the antichain pass replays serially over
  // the survivors in candidate order. A candidate the filter admits but a
  // kept explanation dominates is dropped at the replay (domination is
  // checked before insertion), so the antichain is exactly the serial
  // reference's. The table resolves covers for *every* list concept up
  // front — worth it only when workers will hammer it; the serial
  // odometer path keeps the lazy per-probe covers (most candidates never
  // get probed past the domination prefilter below). The frontier path
  // always resolves the table: its predicate shards per wave regardless
  // of thread count.
  std::optional<CoverTable> table;
  if (choice.use_lattice || par::NumThreads() > 1) {
    table.emplace(covers, lists);
    table->ResolveSizes(bound, lists);
  }

  std::vector<Explanation> antichain;
  Explanation current(m);
  auto dominated = [&](const Explanation& e) {
    for (const Explanation& kept : antichain) {
      if (LessGeneral(*bound, e, kept)) return true;
    }
    return false;
  };
  auto pred = [&](const std::vector<size_t>& idx) {
    if (table.has_value()) return table->ProductInsideAt(idx);
    for (size_t i = 0; i < m; ++i) current[i] = lists[i][idx[i]];
    return ProductInsideAnswers(bound, current, covers);
  };
  auto consume = [&](const std::vector<size_t>& idx) {
    for (size_t i = 0; i < m; ++i) current[i] = lists[i][idx[i]];
    if (dominated(current)) return true;
    antichain.erase(
        std::remove_if(antichain.begin(), antichain.end(),
                       [&](const Explanation& kept) {
                         return StrictlyLessGeneral(*bound, kept, current);
                       }),
        antichain.end());
    antichain.push_back(current);
    return true;
  };
  const bool certified = cert != nullptr;
  exec::Stop stop;
  exec::Progress progress;
  exec::Stop* stop_p = certified ? &stop : nullptr;
  if (choice.use_lattice) {
    LatticeFrontierHooks hooks;
    hooks.pred = pred;
    hooks.consume = consume;
    PruneStats local_ps;
    PruneStats* ps = certified ? &local_ps : prune_stats;
    WHYNOT_RETURN_IF_ERROR(LatticeFilterSpace(space, *choice.lattice, lists,
                                              max_candidates, hooks, ps, exec,
                                              stop_p));
    if (certified) {
      progress.tested = local_ps.products_enumerated;
      progress.remaining = local_ps.products_skipped;
      if (prune_stats != nullptr) AccumulatePruneStats(prune_stats, local_ps);
    }
  } else {
    WHYNOT_RETURN_IF_ERROR(ParallelFilterSpace(
        space, exec, stop_p, certified ? max_candidates : SIZE_MAX, pred,
        consume,
        // Serial prefilter: the domination check is two subsumption matrix
        // probes against a short antichain — far cheaper than the counting
        // containment test it saves (the parallel path filters first and
        // re-checks domination at the replay above, same output).
        [&](const std::vector<size_t>& idx) {
          for (size_t i = 0; i < m; ++i) current[i] = lists[i][idx[i]];
          return dominated(current);
        }));
    if (certified) {
      size_t total = space.overflow() ? SIZE_MAX : space.total();
      progress.tested =
          stop.reason != exec::StopReason::kNone ? stop.at : total;
      progress.remaining = total - progress.tested;
    }
  }
  std::sort(antichain.begin(), antichain.end());
  exec::FillCertificate(cert, stop, progress, antichain.size());
  return antichain;
}

// --- Why-explanations w.r.t. the derived ontology OI ----------------------

namespace {

/// ext(C1) × ... × ext(Cm) ⊆ Ans over LS extensions — the same counting
/// core over the LS answer-cover kernel. `covers` must be built over the
/// sort-deduped answer vector; position `swap_pos` (if set) is read from
/// `repl` instead of exts[swap_pos], the probe form of the greedy search.
bool LsProductInsideAnswers(LsAnswerCovers* covers,
                            const std::vector<const ls::Extension*>& exts,
                            size_t swap_pos = SIZE_MAX,
                            const ls::Extension* repl = nullptr) {
  auto ext_at = [&](size_t i) -> const ls::Extension& {
    return i == swap_pos ? *repl : *exts[i];
  };
  for (size_t i = 0; i < exts.size(); ++i) {
    const ls::Extension& e = ext_at(i);
    if (!e.all && e.CardinalityOrInfinite() == 0) return true;
  }
  size_t product_size = 1;
  for (size_t i = 0; i < exts.size(); ++i) {
    const ls::Extension& e = ext_at(i);
    if (e.all) return false;
    size_t size = e.CardinalityOrInfinite();
    if (product_size > covers->num_answers() / size) return false;
    product_size *= size;
  }
  return covers->CountCovered(exts, swap_pos, repl) == product_size;
}

bool LsWhyInside(Binding& binding, const Tuple& present,
                 const LsExplanation& e) {
  if (e.size() != present.size()) return false;
  const ValuePool& pool = binding.instance()->pool();
  std::vector<const ls::Extension*> exts;
  exts.reserve(e.size());
  for (size_t i = 0; i < e.size(); ++i) {
    const ls::Extension& ext = binding.eval_cache().Eval(e[i]);
    if (!ext.ContainsInterned(pool.Lookup(present[i]), present[i])) {
      return false;
    }
    exts.push_back(&ext);
  }
  return LsProductInsideAnswers(&binding.ls_covers(), exts);
}

}  // namespace

Result<bool> IsLsWhyExplanation(Binding& binding, const Tuple& present,
                                const LsExplanation& e) {
  WHYNOT_RETURN_IF_ERROR(binding.Check(/*needs_ontology=*/false));
  return LsWhyInside(binding, present, e);
}

Result<LsExplanation> IncrementalWhySearch(Binding& binding,
                                           const Tuple& present,
                                           const IncrementalOptions& options) {
  WHYNOT_RETURN_IF_ERROR(binding.Check(/*needs_ontology=*/false));
  const exec::ExecContext* exec = options.exec;
  exec::Certificate* cert = options.cert;
  LsAnswerCovers* covers = &binding.ls_covers();
  size_t m = present.size();
  const ValuePool& pool = binding.instance()->pool();

  // The whole greedy sweep is serial, so the binding's serial overlay over
  // the shared cache suffices; published on every return path (including
  // certified stops) so later searches on the binding reuse the lubs.
  ls::ConceptCacheOverlay& overlay =
      binding.serial_overlay(options.with_selections);
  ls::ScopedPublish publish(&binding.concept_cache(), &overlay);

  std::vector<std::vector<Value>> support(m);
  LsExplanation e(m);
  std::vector<const ls::Extension*> exts(m);
  for (size_t j = 0; j < m; ++j) {
    support[j] = {present[j]};
    WHYNOT_ASSIGN_OR_RETURN(const ls::ConceptCache::Entry* entry,
                            overlay.LubAndEval(support[j]));
    e[j] = entry->concept;
    exts[j] = entry->ext.get();
  }
  // Unlike the why-not case, the nominal-pinned start can already fail:
  // lub({a_j}) may denote more than {a_j} only through columns, but the
  // nominal conjunct pins it, so the product here is exactly {a} ⊆ Ans.
  if (!LsProductInsideAnswers(covers, exts)) {
    return Status::Internal(
        "nominal-pinned tuple is not a why-explanation; the product of "
        "nominals is {a} which must be inside Ans");
  }

  // One probe per generalization candidate in fixed sweep order, exactly
  // the IncrementalSearch convention; a stop leaves `e` a sound
  // why-explanation (every acceptance preserves product ⊆ Ans).
  size_t probes = 0;
  std::optional<exec::Stop> halted;
  const std::vector<Value>& adom = binding.instance()->ActiveDomain();
  const std::vector<ValueId>& adom_ids = binding.instance()->ActiveDomainIds();
  for (size_t j = 0; j < m && !halted.has_value(); ++j) {
    ValueId present_id = pool.Lookup(present[j]);
    for (size_t bi = 0; bi < adom.size(); ++bi) {
      size_t probe = probes++;
      if (std::optional<exec::Stop> s = exec::Check(exec, probe)) {
        if (cert == nullptr) {
          return exec::StopStatus(*s, "incremental why search");
        }
        halted = *s;
        break;
      }
      if (exts[j]->ContainsId(adom_ids[bi])) continue;
      std::vector<Value> extended = support[j];
      extended.push_back(adom[bi]);
      // Probe-once candidates take the transient path (no support-tier
      // record); an acceptance is promoted in place, reusing the lub and
      // extension the probe just computed, so the binding's cache carries
      // it to later requests.
      WHYNOT_ASSIGN_OR_RETURN(std::shared_ptr<const ls::Extension> cand_ext,
                              overlay.LubExtTransient(extended));
      if (cand_ext->ContainsInterned(present_id, present[j]) &&
          LsProductInsideAnswers(covers, exts, j, cand_ext.get())) {
        const ls::ConceptCache::Entry* entry = overlay.PromoteLastProbe();
        support[j] = std::move(extended);
        e[j] = entry->concept;
        exts[j] = entry->ext.get();
      }
    }
  }
  if (cert != nullptr) {
    size_t total = m * adom.size();
    exec::Progress progress;
    progress.tested = halted.has_value() ? halted->at : total;
    progress.remaining = total - progress.tested;
    exec::FillCertificate(cert, halted.value_or(exec::Stop{}), progress, 1,
                          exec::Quality::kHeuristic);
  }
  return e;
}

Result<bool> CheckWhyMgeDerived(Binding& binding, const Tuple& present,
                                const LsExplanation& candidate,
                                const IncrementalOptions& options) {
  WHYNOT_RETURN_IF_ERROR(binding.Check(/*needs_ontology=*/false));
  const rel::Instance* instance = binding.instance();
  const bool with_selections = options.with_selections;
  const exec::ExecContext* exec = options.exec;
  ls::EvalCache* cache = &binding.eval_cache();
  LsAnswerCovers* covers = &binding.ls_covers();
  ls::ConceptCache* concept_cache = &binding.concept_cache();
  if (!LsWhyInside(binding, present, candidate)) return false;
  std::vector<const ls::Extension*> exts;
  exts.reserve(candidate.size());
  for (const ls::LsConcept& c : candidate) {
    exts.push_back(&cache->Eval(c));
  }
  const std::vector<Value>& adom = instance->ActiveDomain();
  const std::vector<ValueId>& adom_ids = instance->ActiveDomainIds();

  if (par::NumThreads() > 1 && adom.size() >= 4) {
    // The per-constant probes — lub, eval, counting AND — are independent
    // reads of a fixed instance, so each position's sweep shards over adom
    // ranges through the shared lex-min sweep (search_core.h). Workers
    // keep their own LubContext / EvalCache / covers (all three have lazy
    // single-threaded caches); the instance itself is pre-warmed. The
    // serial loop returns at the *smallest* bi that either errors or
    // breaks maximality, which is exactly the sweep's winning outcome —
    // identical for every thread count.
    instance->WarmForConcurrentReads();
    struct Worker {
      ls::LubContext lub;
      ls::EvalCache cache;
      LsAnswerCovers covers;
      // The worker's view of the shared concept cache: published-tier
      // reads during the sweep, misses kept worker-local until the serial
      // publish below. Declared after lub/cache — it drives both.
      ls::ConceptCacheOverlay overlay;
      std::vector<const ls::Extension*> exts;
      Worker(const rel::Instance* instance, const std::vector<Tuple>* answers,
             const ls::LubOptions& options, const LsExplanation& candidate,
             ls::ConceptCache* shared, bool with_selections)
          : lub(instance, options), cache(instance), covers(instance, answers),
            overlay(shared, with_selections, &lub, &cache) {
        exts.reserve(candidate.size());
        for (const ls::LsConcept& c : candidate) exts.push_back(&cache.Eval(c));
      }
    };
    std::vector<std::unique_ptr<Worker>> workers(
        static_cast<size_t>(par::MaxWorkers()));
    auto make_worker = [&]() {
      return std::make_unique<Worker>(instance, &binding.answers(),
                                      binding.lub_options(), candidate,
                                      concept_cache, with_selections);
    };
    for (size_t j = 0; j < candidate.size(); ++j) {
      // Position-granular probe at the same serial point as the serial
      // loop below: the sweep's internal schedule is thread-dependent, so
      // probes must not depend on it. A boolean check has no partial
      // result — stops are always errors here.
      if (std::optional<exec::Stop> s = exec::Check(exec, j)) {
        return exec::StopStatus(*s, "why CHECK-MGE");
      }
      std::optional<ProbeOutcome> outcome = LexMinSweep<Worker, ProbeOutcome>(
          adom.size(), 8, &workers, make_worker,
          [&](Worker& wk, size_t bi) -> std::optional<ProbeOutcome> {
            if (wk.exts[j]->ContainsId(adom_ids[bi])) return std::nullopt;
            std::vector<Value> extended = wk.exts[j]->values();
            extended.push_back(adom[bi]);
            // Maximality probes never accept a candidate — transient
            // path, no support-tier record (the keys are whole extension
            // value lists, expensive to copy and hash).
            Result<std::shared_ptr<const ls::Extension>> cand =
                wk.overlay.LubExtTransient(extended);
            if (!cand.ok()) return ProbeOutcome{false, cand.status()};
            if (LsProductInsideAnswers(&wk.covers, wk.exts, j, cand->get())) {
              return ProbeOutcome{true, Status::OK()};
            }
            return std::nullopt;
          },
          exec);
      // Publish-after-sweep: drain the worker overlays in slot order (a
      // thread-independent linearization) at this serial point, so later
      // positions — and later searches on the same binding — reuse
      // the lubs this sweep computed.
      for (std::unique_ptr<Worker>& wk : workers) {
        if (wk != nullptr) concept_cache->Publish(&wk->overlay);
      }
      // An abandoned sweep may have skipped ranges; resolve the stop
      // before trusting (or discarding) its outcome.
      if (exec::ShouldAbandon(exec)) {
        exec::Stop s = exec->PollNow(j).value_or(
            exec::Stop{exec::StopReason::kCancelled, j});
        return exec::StopStatus(s, "why CHECK-MGE");
      }
      if (outcome.has_value()) {
        if (!outcome->error.ok()) return outcome->error;
        if (outcome->broken) return false;
      }
    }
  } else {
    // Serial maximality probes through a single overlay over the shared
    // cache; published on every return path so later searches on the same
    // binding start warm.
    ls::ConceptCacheOverlay overlay(concept_cache, with_selections,
                                    &binding.lub(), cache);
    ls::ScopedPublish publish(concept_cache, &overlay);
    for (size_t j = 0; j < candidate.size(); ++j) {
      if (std::optional<exec::Stop> s = exec::Check(exec, j)) {
        return exec::StopStatus(*s, "why CHECK-MGE");
      }
      for (size_t bi = 0; bi < adom.size(); ++bi) {
        if (exts[j]->ContainsId(adom_ids[bi])) continue;
        std::vector<Value> extended = exts[j]->values();
        extended.push_back(adom[bi]);
        // Probe-once keys: transient path, no support-tier record — see
        // the parallel branch above.
        WHYNOT_ASSIGN_OR_RETURN(std::shared_ptr<const ls::Extension> cand_ext,
                                overlay.LubExtTransient(extended));
        // lub(ext ∪ {b}) is strictly more general than the candidate's
        // position (it contains b); if the tuple stays a why-explanation,
        // the candidate is not most general.
        if (LsProductInsideAnswers(covers, exts, j, cand_ext.get())) {
          return false;
        }
      }
    }
  }
  return true;
}

// --- One-shot forms: a temporary binding per call -------------------------

Result<bool> IsWhyExplanation(onto::BoundOntology* bound,
                              const WhyInstance& wi, const Explanation& e) {
  Binding binding(bound, wi.answers);
  return IsWhyExplanation(binding, wi.present, e);
}

Result<std::vector<Explanation>> AllMostGeneralWhyExplanations(
    onto::BoundOntology* bound, const WhyInstance& wi,
    const ExhaustiveOptions& options) {
  Binding binding(bound, wi.answers);
  return AllMostGeneralWhyExplanations(binding, wi.present, options);
}

bool IsLsWhyExplanation(const WhyInstance& wi, const LsExplanation& e) {
  Binding binding(wi.instance, wi.answers);
  return LsWhyInside(binding, wi.present, e);
}

Result<LsExplanation> IncrementalWhySearch(const WhyInstance& wi,
                                           const IncrementalOptions& options) {
  Binding binding(wi.instance, wi.answers);
  return IncrementalWhySearch(binding, wi.present, options);
}

Result<bool> CheckWhyMgeDerived(const WhyInstance& wi,
                                const LsExplanation& candidate,
                                const IncrementalOptions& options) {
  Binding binding(wi.instance, wi.answers);
  return CheckWhyMgeDerived(binding, wi.present, candidate, options);
}

}  // namespace whynot::explain
