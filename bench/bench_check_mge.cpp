// Experiment E15 (DESIGN.md): Theorem 5.1.1 — CHECK-MGE is solvable in
// polynomial time, and Proposition 5.2 — CHECK-MGE w.r.t. OI is PTIME for
// selection-free LS.
//
// Expected shape: low-polynomial growth in both the ontology size (external
// case) and the instance size (derived case).

#include <benchmark/benchmark.h>

#include "whynot/whynot.h"

namespace wn = whynot;

namespace {

void BM_CheckMge_External(benchmark::State& state) {
  auto world =
      wn::workload::MakeScaledWorld(3, static_cast<int>(state.range(0)), 4);
  if (!world.ok()) {
    state.SkipWithError("world");
    return;
  }
  wn::onto::BoundOntology bound(world->ontology.get(), world->instance.get());
  auto wni = wn::explain::MakeWhyNotInstance(world->instance.get(),
                                             wn::workload::ConnectedViaQuery(),
                                             world->missing_pair);
  if (!wni.ok()) {
    state.SkipWithError("wni");
    return;
  }
  auto mges = wn::explain::ExhaustiveSearchAllMge(&bound, wni.value());
  if (!mges.ok() || mges->empty()) {
    state.SkipWithError("no MGE");
    return;
  }
  const wn::explain::Explanation& candidate = mges->front();
  for (auto _ : state) {
    auto r = wn::explain::CheckMgeExternal(&bound, wni.value(), candidate);
    if (!r.ok() || !r.value()) state.SkipWithError("check failed");
    benchmark::DoNotOptimize(r);
  }
  state.counters["concepts"] = bound.NumConcepts();
}
BENCHMARK(BM_CheckMge_External)->RangeMultiplier(2)->Range(2, 32);

void BM_CheckMge_DerivedSelectionFree(benchmark::State& state) {
  auto world =
      wn::workload::MakeScaledWorld(2, 2, static_cast<int>(state.range(0)));
  if (!world.ok()) {
    state.SkipWithError("world");
    return;
  }
  auto wni = wn::explain::MakeWhyNotInstance(world->instance.get(),
                                             wn::workload::ConnectedViaQuery(),
                                             world->missing_pair);
  if (!wni.ok()) {
    state.SkipWithError("wni");
    return;
  }
  wn::explain::IncrementalOptions options;
  auto mge = wn::explain::IncrementalSearch(wni.value(), options);
  if (!mge.ok()) {
    state.SkipWithError("incremental failed");
    return;
  }
  for (auto _ : state) {
    auto r = wn::explain::CheckMgeDerived(wni.value(), mge.value());
    if (!r.ok() || !r.value()) state.SkipWithError("check failed");
    benchmark::DoNotOptimize(r);
  }
  state.counters["facts"] = static_cast<double>(world->instance->NumFacts());
}
BENCHMARK(BM_CheckMge_DerivedSelectionFree)
    ->RangeMultiplier(2)
    ->Range(4, 32);

}  // namespace
