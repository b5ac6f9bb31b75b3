#include "whynot/explain/cardinality.h"

#include <algorithm>
#include <optional>
#include <utility>

#include "whynot/explain/existence.h"
#include "whynot/explain/search_core.h"

namespace whynot::explain {

Degree DegreeOf(onto::BoundOntology* bound, const Explanation& e) {
  Degree d;
  for (onto::ConceptId c : e) {
    const onto::ExtSet& ext = bound->Ext(c);
    if (ext.is_all()) {
      d.infinite = true;
    } else {
      d.finite += ext.size();
    }
  }
  return d;
}

Result<std::optional<CardinalityResult>> ExactCardMaximal(
    Binding& binding, const Tuple& missing, const ExhaustiveOptions& options) {
  WHYNOT_RETURN_IF_ERROR(binding.Check(/*needs_ontology=*/true));
  onto::BoundOntology* bound = binding.bound();
  // Enumerate the full candidate product (as in Algorithm 1 line 2) and
  // keep the highest-degree explanation.
  size_t m = missing.size();
  std::vector<std::vector<onto::ConceptId>> lists(m);
  for (size_t i = 0; i < m; ++i) {
    ValueId id = bound->pool().Intern(missing[i]);
    lists[i] = bound->ConceptsContaining(id);
    if (lists[i].empty()) {
      exec::FillCertificate(options.cert, exec::Stop{}, exec::Progress{}, 0);
      return std::optional<CardinalityResult>();
    }
  }
  CandidateSpace space(lists);

  // The degree objective is ≼-monotone only when every candidate
  // extension is finite: the degree order compares finite parts even
  // between two infinite degrees, so with an All component a *less*
  // general tuple can rank strictly higher. Any All candidate therefore
  // pins the search to the odometer — the frontier would stop at maximal
  // passing products and could miss the degree winner below them.
  bool any_all = false;
  for (const auto& list : lists) {
    for (onto::ConceptId c : list) {
      if (bound->Ext(c).is_all()) {
        any_all = true;
        break;
      }
    }
    if (any_all) break;
  }
  LatticeChoice choice =
      any_all ? LatticeChoice{}
              : ChooseStrategy(options.strategy, space, options.max_candidates,
                               binding.lattice());
  if (!choice.use_lattice && options.cert == nullptr &&
      (space.overflow() || space.total() > options.max_candidates)) {
    return Status::ResourceExhausted(
        "exact >card-maximal enumeration exceeded max_candidates "
        "(Proposition 6.4: no PTIME algorithm exists unless P=NP)");
  }
  // Pre-resolved cover table: the avoidance ANDs — the dominant cost —
  // shard through the shared candidate filter, while the degree front
  // replays serially over the survivors in the serial odometer's order.
  // On spaces large enough to amortize the setup, degrees come from the
  // table's resolved sizes (a handful of adds per survivor, even when
  // nothing is filtered); tiny spaces keep the direct DegreeOf, whose
  // two warm extension loads per survivor undercut the table build. The
  // frontier path always resolves sizes: its hooks need degrees with no
  // side effects on the consume scratch.
  CoverTable table(&binding.covers(), lists);
  const bool table_degree = choice.use_lattice || space.total() >= 4096;
  if (table_degree) table.ResolveSizes(bound, lists);

  // The running winners: every maximum-degree explanation seen so far
  // that no other maximum-degree explanation strictly dominates, in
  // arrival order. The front (rather than a first-wins ratchet) is what
  // makes the two strategies agree on the witness: the frontier only
  // replays ≼-maximal survivors, so the canonical pick has to be the
  // earliest *undominated* witness — which, degree being monotone here,
  // is exactly the earliest maximal one the odometer also keeps.
  std::vector<CardinalityResult> front;
  Explanation current(m);
  auto degree_at = [&](const std::vector<size_t>& idx) {
    Degree d;
    if (table_degree) {
      table.DegreeAt(idx, &d.infinite, &d.finite);
    } else {
      for (size_t i = 0; i < m; ++i) current[i] = lists[i][idx[i]];
      d = DegreeOf(bound, current);
    }
    return d;
  };
  auto pred = [&](const std::vector<size_t>& idx) {
    return !table.ProductAnyAt(idx);
  };
  auto consume = [&](const std::vector<size_t>& idx) {
    Degree d = degree_at(idx);
    if (!front.empty() && front.front().degree > d) return true;
    for (size_t i = 0; i < m; ++i) current[i] = lists[i][idx[i]];
    if (front.empty() || d > front.front().degree) {
      front.clear();
      front.push_back(CardinalityResult{current, d});
      return true;
    }
    // Degree tie: keep only witnesses no tying explanation strictly
    // dominates, earliest first.
    for (const CardinalityResult& k : front) {
      if (StrictlyLessGeneral(*bound, current, k.explanation)) return true;
    }
    front.erase(
        std::remove_if(front.begin(), front.end(),
                       [&](const CardinalityResult& k) {
                         return StrictlyLessGeneral(*bound, k.explanation,
                                                    current);
                       }),
        front.end());
    front.push_back(CardinalityResult{current, d});
    return true;
  };

  const bool certified = options.cert != nullptr;
  exec::Stop stop;
  exec::Progress progress;
  exec::Stop* stop_p = certified ? &stop : nullptr;
  if (choice.use_lattice) {
    // Branch and bound on the degree: on_pass tracks the best degree over
    // *passing* products as the wave merge reaches them; a failing
    // product strictly beaten by that bound cannot hold a tying witness
    // anywhere in its downset (degrees only shrink along ≼), so its
    // expansion is cut. Ties must expand — a downset member can still
    // join the front.
    std::optional<Degree> best_degree;
    LatticeFrontierHooks hooks;
    hooks.pred = pred;
    hooks.consume = consume;
    hooks.on_pass = [&](const std::vector<size_t>& idx) {
      Degree d = degree_at(idx);
      if (!best_degree.has_value() || d > *best_degree) best_degree = d;
    };
    hooks.expand = [&](const std::vector<size_t>& idx) {
      return !best_degree.has_value() || !(*best_degree > degree_at(idx));
    };
    PruneStats local_ps;
    PruneStats* ps = certified ? &local_ps : options.prune_stats;
    WHYNOT_RETURN_IF_ERROR(LatticeFilterSpace(space, *choice.lattice, lists,
                                              options.max_candidates, hooks,
                                              ps, options.exec, stop_p));
    if (certified) {
      progress.tested = local_ps.products_enumerated;
      progress.remaining = local_ps.products_skipped;
      if (options.prune_stats != nullptr) {
        AccumulatePruneStats(options.prune_stats, local_ps);
      }
    }
  } else {
    WHYNOT_RETURN_IF_ERROR(ParallelFilterSpace(
        space, options.exec, stop_p,
        certified ? options.max_candidates : SIZE_MAX, pred, consume));
    if (certified) {
      size_t total = space.overflow() ? SIZE_MAX : space.total();
      progress.tested =
          stop.reason != exec::StopReason::kNone ? stop.at : total;
      progress.remaining = total - progress.tested;
    }
  }
  exec::FillCertificate(options.cert, stop, progress,
                        front.empty() ? 0 : front.front().degree.finite);
  if (front.empty()) return std::optional<CardinalityResult>();
  return std::optional<CardinalityResult>(std::move(front.front()));
}

Result<std::optional<CardinalityResult>> GreedyCardinalityClimb(
    Binding& binding, const Tuple& missing, const ExistenceOptions& options) {
  WHYNOT_RETURN_IF_ERROR(binding.Check(/*needs_ontology=*/true));
  onto::BoundOntology* bound = binding.bound();
  ConceptAnswerCovers* covers = &binding.covers();
  const exec::ExecContext* exec = options.exec;
  exec::Certificate* cert = options.cert;
  // The greedy certificate is filled by hand rather than through
  // FillCertificate: a converged climb is still only a local optimum, so
  // its quality never rises above kHeuristic.
  size_t probes = 0;
  auto fill_cert = [&](const exec::Stop& stop, size_t best) {
    if (cert == nullptr) return;
    cert->quality = exec::Quality::kHeuristic;
    cert->stop = stop.reason;
    cert->progress = exec::Progress{};
    cert->progress.tested = probes;
    cert->progress.best_so_far = best;
  };
  Explanation seed;
  // The seed search runs with the default budget and strategy; only
  // execution control carries over.
  ExistenceOptions eopts;
  eopts.exec = exec;
  exec::Certificate seed_cert;
  eopts.cert = cert != nullptr ? &seed_cert : nullptr;
  WHYNOT_ASSIGN_OR_RETURN(bool exists,
                          ExistsExplanation(binding, missing, eopts, &seed));
  if (!exists) {
    // Either no explanation exists or the seed search itself was stopped;
    // the seed certificate's stop distinguishes the two.
    if (cert != nullptr) {
      cert->quality = exec::Quality::kHeuristic;
      cert->stop = seed_cert.stop;
      cert->progress = seed_cert.progress;
    }
    return std::optional<CardinalityResult>();
  }

  // Per-position candidate lists are loop-invariant; hoist them out of
  // the climb.
  std::vector<std::vector<onto::ConceptId>> candidates(missing.size());
  for (size_t i = 0; i < missing.size(); ++i) {
    candidates[i] =
        bound->ConceptsContaining(bound->pool().Intern(missing[i]));
  }

  Explanation current = seed;
  Degree degree = DegreeOf(bound, current);
  // Stops are observed once per candidate examined, always at the serial
  // acceptance point — the parallel path's sharded ANDs are pure and
  // index-addressed, so the climb state at any stop ordinal is identical
  // for every thread count. A stopped climb returns the current (sound)
  // explanation when certified; the certificate's stop records where the
  // climb was cut.
  std::optional<exec::Stop> halted;
  auto check = [&]() -> Status {
    size_t probe = probes++;
    if (std::optional<exec::Stop> s = exec::Check(exec, probe)) {
      if (cert == nullptr) return exec::StopStatus(*s, "greedy climb");
      halted = *s;
    }
    return Status::OK();
  };
  bool improved = true;
  while (improved && !halted.has_value()) {
    improved = false;
    for (size_t i = 0; i < current.size() && !halted.has_value(); ++i) {
      // Positions other than i are stable across this candidate sweep
      // (an accepted swap only changes position i), so their covers AND
      // once; each candidate is one word-parallel intersect-any.
      std::vector<uint64_t> base = covers->AndAllExcept(current, i);
      const std::vector<onto::ConceptId>& list = candidates[i];
      if (par::NumThreads() <= 1) {
        for (onto::ConceptId c : list) {
          WHYNOT_RETURN_IF_ERROR(check());
          if (halted.has_value()) break;
          if (c == current[i]) continue;
          if (ConceptAnswerCovers::AnyAndView(base, covers->Cover(c, i))) {
            continue;
          }
          Explanation probe = current;
          probe[i] = c;
          Degree d = DegreeOf(bound, probe);
          if (d > degree) {
            current = std::move(probe);
            degree = d;
            improved = true;
          }
        }
        continue;
      }
      // The ANDs are the sweep's hot part and independent per candidate,
      // so they shard across the pool into an index-addressed validity
      // mask; the acceptance scan — whose degree threshold ratchets
      // within the sweep — replays serially in candidate order, exactly
      // as the serial loop.
      std::vector<CoverView> cover_at =
          CoverTable::ResolveList(covers, list, i);
      std::vector<uint8_t> valid(list.size(), 0);
      par::ParallelFor(list.size(), 64, [&](size_t begin, size_t end) {
        for (size_t c = begin; c < end; ++c) {
          valid[c] = !ConceptAnswerCovers::AnyAndView(base, cover_at[c]);
        }
      });
      for (size_t c = 0; c < list.size(); ++c) {
        WHYNOT_RETURN_IF_ERROR(check());
        if (halted.has_value()) break;
        if (list[c] == current[i] || !valid[c]) continue;
        Explanation probe = current;
        probe[i] = list[c];
        Degree d = DegreeOf(bound, probe);
        if (d > degree) {
          current = std::move(probe);
          degree = d;
          improved = true;
        }
      }
    }
  }
  fill_cert(halted.value_or(exec::Stop{}), degree.finite);
  return std::optional<CardinalityResult>(CardinalityResult{current, degree});
}

Result<std::optional<CardinalityResult>> ExactCardMaximal(
    onto::BoundOntology* bound, const WhyNotInstance& wni,
    const ExhaustiveOptions& options) {
  Binding binding(bound, wni.answers);
  return ExactCardMaximal(binding, wni.missing, options);
}

Result<std::optional<CardinalityResult>> GreedyCardinalityClimb(
    onto::BoundOntology* bound, const WhyNotInstance& wni,
    const ExistenceOptions& options) {
  Binding binding(bound, wni.answers);
  return GreedyCardinalityClimb(binding, wni.missing, options);
}

}  // namespace whynot::explain
