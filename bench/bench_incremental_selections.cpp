// Experiment E17 (DESIGN.md): Theorem 5.4 and Lemma 5.2 — INCREMENTAL
// SEARCH WITH SELECTIONS is EXPTIME in general but PTIME for bounded schema
// arity; the cost driver is the canonical-box enumeration, exponential in
// the relation arity.
//
// Expected shape: at fixed arity, polynomial growth in the number of rows;
// at fixed rows, multiplicative growth per added attribute.

#include <benchmark/benchmark.h>

#include "whynot/whynot.h"

namespace wn = whynot;
namespace rel = whynot::rel;

namespace {

struct Fixture {
  std::unique_ptr<rel::Schema> schema;
  std::unique_ptr<rel::Instance> instance;
  wn::explain::WhyNotInstance wni;
};

/// A single relation of the given arity with `rows` rows over a small value
/// pool; the why-not question asks about a fresh pair.
std::unique_ptr<Fixture> MakeFixture(int arity, int rows, int domain) {
  auto f = std::make_unique<Fixture>();
  f->schema = std::make_unique<rel::Schema>();
  std::vector<std::string> attrs;
  for (int a = 0; a < arity; ++a) attrs.push_back("a" + std::to_string(a));
  if (!f->schema->AddRelation("R", attrs).ok()) return nullptr;
  auto instance = wn::workload::RandomInstance(f->schema.get(), rows, domain,
                                               /*seed=*/11);
  if (!instance.ok()) return nullptr;
  f->instance = std::make_unique<rel::Instance>(std::move(instance).value());
  std::vector<wn::Value> adom = f->instance->ActiveDomain();
  if (adom.size() < 4) return nullptr;
  std::vector<wn::Tuple> answers = {{adom[0], adom[1]}, {adom[2], adom[3]}};
  wn::Tuple missing = {adom[1], adom[2]};
  auto wni = wn::explain::MakeWhyNotInstanceFromAnswers(f->instance.get(),
                                                        answers, missing);
  if (!wni.ok()) return nullptr;
  f->wni = std::move(wni).value();
  return f;
}

void BM_IncrementalSelections_RowSweepFixedArity(benchmark::State& state) {
  auto f = MakeFixture(/*arity=*/2, static_cast<int>(state.range(0)),
                       /*domain=*/10);
  if (f == nullptr) {
    state.SkipWithError("fixture");
    return;
  }
  wn::explain::IncrementalOptions options;
  options.with_selections = true;
  for (auto _ : state) {
    // One-shot call, so a fresh lub context per iteration: the box
    // construction is the cost under measurement (Lemma 5.2).
    auto r = wn::explain::IncrementalSearch(f->wni, options);
    if (!r.ok()) state.SkipWithError(r.status().ToString().c_str());
    benchmark::DoNotOptimize(r);
  }
  state.counters["rows"] = static_cast<double>(state.range(0));
}
BENCHMARK(BM_IncrementalSelections_RowSweepFixedArity)
    ->RangeMultiplier(2)
    ->Range(8, 64);

void BM_IncrementalSelections_AritySweep(benchmark::State& state) {
  auto f = MakeFixture(static_cast<int>(state.range(0)), /*rows=*/10,
                       /*domain=*/6);
  if (f == nullptr) {
    state.SkipWithError("fixture");
    return;
  }
  wn::explain::IncrementalOptions options;
  options.with_selections = true;
  wn::ls::LubOptions lub;
  lub.max_boxes_per_relation = 100000000;
  size_t boxes = 0;
  for (auto _ : state) {
    // Fresh binding per iteration (cold lub boxes), with the raised limit.
    wn::explain::Binding binding(f->instance.get(), f->wni.answers, nullptr,
                                 lub);
    auto r = wn::explain::IncrementalSearch(binding, f->wni.missing, options);
    if (!r.ok()) state.SkipWithError(r.status().ToString().c_str());
    boxes = binding.lub().NumBoxes("R");
    benchmark::DoNotOptimize(r);
  }
  state.counters["arity"] = static_cast<double>(state.range(0));
  state.counters["canonical_boxes"] = static_cast<double>(boxes);
}
BENCHMARK(BM_IncrementalSelections_AritySweep)->DenseRange(1, 4);

}  // namespace
