#include "whynot/explain/exhaustive.h"

#include <algorithm>
#include <utility>

#include "whynot/explain/search_core.h"

namespace whynot::explain {

namespace {

/// C(a_i): the concepts whose extension contains a_i (line 1 of
/// Algorithm 1).
Result<std::vector<std::vector<onto::ConceptId>>> CandidateLists(
    Binding& binding, const Tuple& missing) {
  WHYNOT_RETURN_IF_ERROR(binding.Check(/*needs_ontology=*/true));
  onto::BoundOntology* bound = binding.bound();
  std::vector<std::vector<onto::ConceptId>> lists(missing.size());
  for (size_t i = 0; i < missing.size(); ++i) {
    ValueId id = bound->pool().Intern(missing[i]);
    lists[i] = bound->ConceptsContaining(id);
    if (lists[i].empty()) return lists;  // no explanation can exist
  }
  return lists;
}

/// Enumerates the candidate product, calling `visit` on every tuple that
/// avoids Ans (line 2 of Algorithm 1). `visit` returns false to abort.
/// The avoidance test is the answer-cover kernel — per (position, concept)
/// cover bitmaps resolved once per candidate list (CoverTable), each
/// candidate one m-way word-parallel AND with early exit. The enumeration
/// itself dispatches through ChooseStrategy: in-budget products run the
/// shared chunked candidate filter (ParallelFilterSpace, sharded
/// avoidance ANDs, survivors visited serially in the serial odometer's
/// order); over-budget products on a consistent binding — or any product
/// under kLattice — run the dominance-pruned frontier
/// (LatticeFilterSpace), which visits exactly the ≼-maximal survivors in
/// the same serial order, so MGE callers see bit-identical output.
/// `stop` / `progress` (both null or both set — set iff the caller wants a
/// certificate) make stops return OK with the deterministic partial
/// prefix; see ExhaustiveOptions::cert.
template <typename Visit>
Status EnumerateExplanations(
    Binding& binding, const std::vector<std::vector<onto::ConceptId>>& lists,
    const ExhaustiveOptions& options, Visit visit, exec::Stop* stop = nullptr,
    exec::Progress* progress = nullptr) {
  size_t m = lists.size();
  for (const auto& list : lists) {
    if (list.empty()) return Status::OK();
  }
  CandidateSpace space(lists);
  LatticeChoice choice = ChooseStrategy(options.strategy, space,
                                        options.max_candidates,
                                        binding.lattice());

  if (!choice.use_lattice && stop == nullptr &&
      (space.overflow() || space.total() > options.max_candidates)) {
    return Status::ResourceExhausted(
        "candidate enumeration exceeded max_candidates (the space is "
        "exponential in the query arity, Theorem 5.2)");
  }
  CoverTable table(&binding.covers(), lists);
  std::vector<onto::ConceptId> current(m);
  auto pred = [&](const std::vector<size_t>& idx) {
    return !table.ProductAnyAt(idx);
  };
  auto consume = [&](const std::vector<size_t>& idx) {
    for (size_t i = 0; i < m; ++i) current[i] = lists[i][idx[i]];
    return visit(current);
  };

  if (choice.use_lattice) {
    LatticeFrontierHooks hooks;
    hooks.pred = pred;
    hooks.consume = consume;
    PruneStats local_ps;
    PruneStats* ps = progress != nullptr ? &local_ps : options.prune_stats;
    Status st =
        LatticeFilterSpace(space, *choice.lattice, lists,
                           options.max_candidates, hooks, ps, options.exec,
                           stop);
    if (progress != nullptr) {
      progress->tested = local_ps.products_enumerated;
      progress->remaining = local_ps.products_skipped;
      if (options.prune_stats != nullptr) {
        AccumulatePruneStats(options.prune_stats, local_ps);
      }
    }
    return st;
  }
  // With a certificate requested the odometer budget becomes a kBudget
  // stop at ordinal max_candidates — the budget-truncated prefix — instead
  // of the pre-emptive ResourceExhausted above.
  Status st = ParallelFilterSpace(space, options.exec, stop,
                                  stop != nullptr ? options.max_candidates
                                                  : SIZE_MAX,
                                  pred, consume);
  if (progress != nullptr) {
    size_t total = space.overflow() ? SIZE_MAX : space.total();
    size_t tested = stop != nullptr && stop->reason != exec::StopReason::kNone
                        ? stop->at
                        : total;
    progress->tested = tested;
    progress->remaining =
        total == SIZE_MAX ? SIZE_MAX : total - std::min(tested, total);
  }
  return st;
}

}  // namespace

Result<std::vector<Explanation>> ExhaustiveSearchAllMge(
    Binding& binding, const Tuple& missing, const ExhaustiveOptions& options) {
  WHYNOT_ASSIGN_OR_RETURN(std::vector<std::vector<onto::ConceptId>> lists,
                          CandidateLists(binding, missing));
  onto::BoundOntology* bound = binding.bound();

  // Line 2: the set X of all explanations. (On the frontier path X is
  // already the maximal antichain, so lines 3-5 below pass it through.)
  std::vector<Explanation> x;
  exec::Stop stop;
  exec::Progress progress;
  bool certified = options.cert != nullptr;
  WHYNOT_RETURN_IF_ERROR(EnumerateExplanations(
      binding, lists, options,
      [&x](const Explanation& e) {
        x.push_back(e);
        return true;
      },
      certified ? &stop : nullptr, certified ? &progress : nullptr));

  // Lines 3-5: remove every explanation strictly less general than another.
  std::vector<bool> removed(x.size(), false);
  for (size_t i = 0; i < x.size(); ++i) {
    if (removed[i]) continue;
    for (size_t j = 0; j < x.size(); ++j) {
      if (i == j || removed[j]) continue;
      if (StrictlyLessGeneral(*bound, x[j], x[i])) removed[j] = true;
    }
  }
  // Also collapse equivalent explanations (mutually ≤), keeping the first.
  std::vector<Explanation> result;
  for (size_t i = 0; i < x.size(); ++i) {
    if (removed[i]) continue;
    bool duplicate = false;
    for (const Explanation& kept : result) {
      if (LessGeneral(*bound, kept, x[i]) && LessGeneral(*bound, x[i], kept)) {
        duplicate = true;
        break;
      }
    }
    if (!duplicate) result.push_back(x[i]);
  }
  std::sort(result.begin(), result.end());
  exec::FillCertificate(options.cert, stop, progress, result.size());
  return result;
}

Result<std::vector<Explanation>> PrunedSearchAllMge(
    Binding& binding, const Tuple& missing, const ExhaustiveOptions& options) {
  WHYNOT_ASSIGN_OR_RETURN(std::vector<std::vector<onto::ConceptId>> lists,
                          CandidateLists(binding, missing));
  onto::BoundOntology* bound = binding.bound();

  std::vector<Explanation> antichain;
  exec::Stop stop;
  exec::Progress progress;
  bool certified = options.cert != nullptr;
  WHYNOT_RETURN_IF_ERROR(EnumerateExplanations(
      binding, lists, options,
      [&](const Explanation& e) {
        // Skip candidates dominated by (or equivalent to) a kept one.
        for (const Explanation& kept : antichain) {
          if (LessGeneral(*bound, e, kept)) return true;
        }
        // Remove kept ones strictly dominated by the candidate.
        antichain.erase(
            std::remove_if(antichain.begin(), antichain.end(),
                           [&](const Explanation& kept) {
                             return StrictlyLessGeneral(*bound, kept, e);
                           }),
            antichain.end());
        antichain.push_back(e);
        return true;
      },
      certified ? &stop : nullptr, certified ? &progress : nullptr));
  std::sort(antichain.begin(), antichain.end());
  exec::FillCertificate(options.cert, stop, progress, antichain.size());
  return antichain;
}

Result<std::vector<Explanation>> ExhaustiveSearchAllMge(
    onto::BoundOntology* bound, const WhyNotInstance& wni,
    const ExhaustiveOptions& options) {
  Binding binding(bound, wni.answers);
  return ExhaustiveSearchAllMge(binding, wni.missing, options);
}

Result<std::vector<Explanation>> PrunedSearchAllMge(
    onto::BoundOntology* bound, const WhyNotInstance& wni,
    const ExhaustiveOptions& options) {
  Binding binding(bound, wni.answers);
  return PrunedSearchAllMge(binding, wni.missing, options);
}

}  // namespace whynot::explain
