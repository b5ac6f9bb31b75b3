// Experiment E20 (DESIGN.md): Proposition 6.4 — computing a >card-maximal
// explanation admits no PTIME algorithm (nor a PTIME constant-factor
// approximation) unless P=NP. We compare the exponential exact enumeration
// against the greedy hill-climb on set-cover-shaped families and report the
// quality gap.
//
// Expected shape: exact time explodes with the cover bound while greedy
// stays flat; the counters expose exact vs greedy degrees (greedy ≤ exact,
// sometimes strictly).

#include <benchmark/benchmark.h>

#include "whynot/whynot.h"

namespace wn = whynot;

namespace {

std::unique_ptr<wn::explain::SetCoverWhyNot> MakeReduction(size_t bound_k,
                                                           uint64_t seed) {
  wn::explain::SetCoverInstance sc = wn::explain::RandomSetCover(
      /*universe=*/2 * bound_k + 2, /*num_sets=*/bound_k + 4,
      /*set_size=*/3, bound_k, seed);
  auto reduction = wn::explain::ReduceSetCoverToWhyNot(sc);
  if (!reduction.ok()) return nullptr;
  return std::move(reduction).value();
}

void BM_Cardinality_Exact(benchmark::State& state) {
  auto reduction = MakeReduction(static_cast<size_t>(state.range(0)), 23);
  if (reduction == nullptr) {
    state.SkipWithError("reduction");
    return;
  }
  wn::onto::BoundOntology bound(reduction->ontology.get(),
                                reduction->instance.get());
  wn::explain::ExhaustiveOptions options;
  options.max_candidates = 500000000;
  double degree = 0;
  for (auto _ : state) {
    auto r = wn::explain::ExactCardMaximal(&bound, reduction->wni, options);
    if (!r.ok()) {
      state.SkipWithError(r.status().ToString().c_str());
      break;
    }
    if (r->has_value()) degree = static_cast<double>((**r).degree.finite);
    benchmark::DoNotOptimize(r);
  }
  state.counters["cover_bound"] = static_cast<double>(state.range(0));
  state.counters["exact_degree"] = degree;
}
BENCHMARK(BM_Cardinality_Exact)->DenseRange(2, 6);

/// Deep-lattice exact cardinality: same layered multi-parent family as
/// BM_Exhaustive_DeepLattice (see bench_exhaustive.cpp), with the frontier
/// additionally branch-and-bounding on the degree. The raw product is
/// |concepts|^3 ≈ 10⁶–10⁷; the exact odometer enumeration would be
/// hopeless at the tracked budget, while the frontier completes exactly.
void BM_Cardinality_DeepLatticeExact(benchmark::State& state) {
  int depth = static_cast<int>(state.range(0));
  wn::rel::Schema schema;
  auto schema_or = wn::workload::RandomSchema(1, {2});
  if (!schema_or.ok()) {
    state.SkipWithError("schema");
    return;
  }
  schema = std::move(schema_or).value();
  wn::rel::Instance instance(&schema);
  std::vector<wn::Value> domain;
  for (int i = 0; i < 48; ++i) domain.push_back(wn::Value(i));
  wn::Tuple missing = {domain[1], domain[2], domain[3]};
  std::vector<wn::Value> pinned = {domain[1], domain[2], domain[3]};
  wn::workload::LatticeOntologyOptions opts;
  opts.depth = depth;
  opts.width = 8;
  auto ontology_or =
      wn::workload::RandomLatticeOntology(domain, pinned, opts, 1234);
  if (!ontology_or.ok()) {
    state.SkipWithError("ontology");
    return;
  }
  std::unique_ptr<wn::onto::ExplicitOntology> ontology =
      std::move(ontology_or).value();
  wn::onto::BoundOntology bound(ontology.get(), &instance);
  wn::workload::Rng rng(1234 ^ 0xdeadbeefull);
  std::vector<wn::Tuple> answers;
  for (int a = 0; a < 64; ++a) {
    wn::Tuple t = {domain[rng.Below(domain.size())],
                   domain[rng.Below(domain.size())],
                   domain[rng.Below(domain.size())]};
    if (t != missing) answers.push_back(std::move(t));
  }
  auto wni_or =
      wn::explain::MakeWhyNotInstanceFromAnswers(&instance, answers, missing);
  if (!wni_or.ok()) {
    state.SkipWithError("wni");
    return;
  }
  wn::explain::ExhaustiveOptions options;
  options.strategy = wn::explain::SearchStrategy::kLattice;
  options.max_candidates = 2000000;
  wn::explain::PruneStats stats;
  options.prune_stats = &stats;
  // One binding across iterations: the lattice (and the answer covers)
  // stay warm, so the loop measures the pruned search itself.
  wn::explain::Binding binding(&bound, wni_or.value().answers);
  double degree = 0;
  for (auto _ : state) {
    stats = {};
    auto r = wn::explain::ExactCardMaximal(binding, wni_or.value().missing,
                                           options);
    if (!r.ok()) {
      state.SkipWithError(r.status().ToString().c_str());
      break;
    }
    if (r->has_value()) degree = static_cast<double>((**r).degree.finite);
    benchmark::DoNotOptimize(r);
  }
  double concepts = static_cast<double>(bound.NumConcepts());
  state.counters["raw_product"] = concepts * concepts * concepts;
  state.counters["prune_enumerated"] =
      static_cast<double>(stats.products_enumerated);
  state.counters["prune_skipped"] =
      static_cast<double>(stats.products_skipped);
  state.counters["prune_downset_hits"] =
      static_cast<double>(stats.downset_hits);
  state.counters["prune_waves"] = static_cast<double>(stats.waves);
  state.counters["exact_degree"] = degree;
}
BENCHMARK(BM_Cardinality_DeepLatticeExact)->Arg(12)->Arg(25);

void BM_Cardinality_Greedy(benchmark::State& state) {
  auto reduction = MakeReduction(static_cast<size_t>(state.range(0)), 23);
  if (reduction == nullptr) {
    state.SkipWithError("reduction");
    return;
  }
  wn::onto::BoundOntology bound(reduction->ontology.get(),
                                reduction->instance.get());
  double degree = 0;
  bool found = true;
  for (auto _ : state) {
    auto r = wn::explain::GreedyCardinalityClimb(&bound, reduction->wni);
    if (!r.ok()) {
      state.SkipWithError(r.status().ToString().c_str());
      break;
    }
    found = r->has_value();
    if (found) degree = static_cast<double>((**r).degree.finite);
    benchmark::DoNotOptimize(r);
  }
  state.counters["cover_bound"] = static_cast<double>(state.range(0));
  state.counters["greedy_degree"] = degree;
  state.SetLabel(found ? "explanation found" : "no explanation");
}
BENCHMARK(BM_Cardinality_Greedy)->DenseRange(2, 6);

}  // namespace
