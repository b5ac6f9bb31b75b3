// PR 6: the dominance-pruned frontier enumeration (explain/lattice.h,
// LatticeFilterSpace) must be *observationally identical* to the odometer
// on consistent bindings: same explanations, same enumeration order, same
// cardinality witness — and, like every search in the engine, identical
// at WHYNOT_THREADS ∈ {1, 2, 8}, including its pruning stats. The sweeps
// below drive random tree ontologies and random deep multi-parent lattice
// ontologies through every rebased entry point under both strategies.

#include <gtest/gtest.h>

#include <optional>
#include <tuple>
#include <vector>

#include "test_util.h"

namespace whynot {
namespace {

using workload::Rng;

constexpr int kThreadCounts[] = {1, 2, 8};

struct Fixture {
  rel::Schema schema;
  std::unique_ptr<rel::Instance> instance;
  std::unique_ptr<onto::ExplicitOntology> ontology;
  std::unique_ptr<onto::BoundOntology> bound;
  explain::WhyNotInstance wni;
  explain::WhyInstance wi;
  bool ok = false;
};

/// Random fixture over either generator family. `deep` picks the layered
/// multi-parent lattice (whose per-position candidate lists are the whole
/// concept set, thanks to pinning); otherwise the tree family.
Fixture MakeFixture(uint64_t seed, bool deep) {
  Fixture f;
  f.schema = testutil::SimpleSchema();
  f.instance = std::make_unique<rel::Instance>(&f.schema);
  std::vector<Value> domain;
  for (int i = 0; i < 10; ++i) domain.push_back(Value(i));
  Rng rng(seed * 77 + (deep ? 13 : 0));
  Tuple missing = {domain[rng.Below(domain.size())],
                   domain[rng.Below(domain.size())]};
  if (deep) {
    workload::LatticeOntologyOptions opts;
    opts.depth = 5;
    opts.width = 4;
    opts.keep_num = 3;
    opts.keep_den = 4;
    auto onto_or =
        workload::RandomLatticeOntology(domain, missing, opts, seed);
    EXPECT_TRUE(onto_or.ok());
    f.ontology = std::move(onto_or).value();
  } else {
    auto onto_or = workload::RandomTreeOntology(domain, 12, seed);
    EXPECT_TRUE(onto_or.ok());
    f.ontology = std::move(onto_or).value();
  }
  f.bound = std::make_unique<onto::BoundOntology>(f.ontology.get(),
                                                  f.instance.get());
  std::vector<Tuple> answers;
  for (int a = 0; a < 10; ++a) {
    Tuple t = {domain[rng.Below(domain.size())],
               domain[rng.Below(domain.size())]};
    if (t != missing) answers.push_back(std::move(t));
  }
  if (answers.empty()) return f;
  auto wni_or =
      explain::MakeWhyNotInstanceFromAnswers(f.instance.get(), answers,
                                             missing);
  if (!wni_or.ok()) return f;  // missing collided with an answer
  f.wni = std::move(wni_or).value();
  f.wi.instance = f.instance.get();
  f.wi.answers = f.wni.answers;
  f.wi.present = f.wi.answers[rng.Below(f.wi.answers.size())];
  f.ok = true;
  return f;
}

/// Both generator families are consistent by construction (declared
/// subsumption always comes with extension inclusion), which is what
/// makes the frontier results bit-identical — assert it so a generator
/// regression fails loudly here instead of as a mystery divergence.
TEST(LatticePrune, GeneratorsAreConsistent) {
  for (uint64_t seed = 1; seed <= 5; ++seed) {
    for (bool deep : {false, true}) {
      Fixture f = MakeFixture(seed, deep);
      if (!f.ok) continue;
      explain::ConceptLattice lattice(f.bound.get());
      EXPECT_TRUE(lattice.consistent()) << "seed " << seed << " deep " << deep;
      EXPECT_GT(lattice.depth(), 1u);
    }
  }
}

class LatticeEquivalenceTest : public ::testing::TestWithParam<uint64_t> {};

/// The core equivalence: every rebased search returns the same value
/// under kOdometer and kLattice, and the kLattice value (with its stats)
/// is identical at every thread count. The references run one-shot (a
/// fresh binding per call); the kLattice runs share one binding reused
/// across searches and thread counts, so its lattice and covers are warm.
TEST_P(LatticeEquivalenceTest, FrontierMatchesOdometerEverywhere) {
  uint64_t seed = GetParam();
  for (bool deep : {false, true}) {
    Fixture f = MakeFixture(seed, deep);
    if (!f.ok) continue;

    explain::ExhaustiveOptions odo;
    odo.strategy = explain::SearchStrategy::kOdometer;
    ASSERT_OK_AND_ASSIGN(std::vector<explain::Explanation> ref_exhaustive,
                         explain::ExhaustiveSearchAllMge(f.bound.get(), f.wni,
                                                         odo));
    ASSERT_OK_AND_ASSIGN(std::vector<explain::Explanation> ref_pruned,
                         explain::PrunedSearchAllMge(f.bound.get(), f.wni,
                                                     odo));
    ASSERT_OK_AND_ASSIGN(std::optional<explain::CardinalityResult> ref_card,
                         explain::ExactCardMaximal(f.bound.get(), f.wni, odo));
    ASSERT_OK_AND_ASSIGN(
        std::vector<explain::Explanation> ref_why,
        explain::AllMostGeneralWhyExplanations(f.bound.get(), f.wi, odo));

    std::optional<std::tuple<size_t, size_t, size_t, size_t>> ref_stats;
    explain::Binding binding(f.bound.get(), f.wni.answers);
    for (int threads : kThreadCounts) {
      par::SetNumThreads(threads);
      explain::ExhaustiveOptions lat;
      lat.strategy = explain::SearchStrategy::kLattice;
      explain::PruneStats stats;
      lat.prune_stats = &stats;

      ASSERT_OK_AND_ASSIGN(
          std::vector<explain::Explanation> got_exhaustive,
          explain::ExhaustiveSearchAllMge(binding, f.wni.missing, lat));
      EXPECT_EQ(got_exhaustive, ref_exhaustive)
          << "seed " << seed << " deep " << deep << " threads " << threads;
      ASSERT_OK_AND_ASSIGN(
          std::vector<explain::Explanation> got_pruned,
          explain::PrunedSearchAllMge(binding, f.wni.missing, lat));
      EXPECT_EQ(got_pruned, ref_pruned)
          << "seed " << seed << " deep " << deep << " threads " << threads;

      ASSERT_OK_AND_ASSIGN(
          std::optional<explain::CardinalityResult> got_card,
          explain::ExactCardMaximal(binding, f.wni.missing, lat));
      ASSERT_EQ(got_card.has_value(), ref_card.has_value());
      if (got_card.has_value()) {
        EXPECT_EQ(got_card->explanation, ref_card->explanation)
            << "seed " << seed << " deep " << deep << " threads " << threads;
        EXPECT_TRUE(got_card->degree == ref_card->degree);
      }

      ASSERT_OK_AND_ASSIGN(
          std::vector<explain::Explanation> got_why,
          explain::AllMostGeneralWhyExplanations(binding, f.wi.present, lat));
      EXPECT_EQ(got_why, ref_why)
          << "seed " << seed << " deep " << deep << " threads " << threads;

      // The stats are part of the deterministic contract: waves, tested
      // products, and dominance skips must not depend on the pool width.
      auto stat_tuple = std::make_tuple(stats.products_enumerated,
                                        stats.products_skipped,
                                        stats.downset_hits, stats.waves);
      if (!ref_stats.has_value()) {
        ref_stats = stat_tuple;
      } else {
        EXPECT_TRUE(stat_tuple == *ref_stats)
            << "prune stats diverged at threads=" << threads << " seed "
            << seed;
      }
    }
    par::SetNumThreads(0);
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, LatticeEquivalenceTest,
                         ::testing::Range<uint64_t>(1, 26));

/// kAuto escalation: an over-budget space on a consistent binding must
/// silently escalate to the frontier and return the odometer's answer
/// (computed here with a generous odometer budget as the reference).
TEST(LatticePrune, AutoEscalatesPastBudget) {
  for (uint64_t seed = 1; seed <= 8; ++seed) {
    Fixture f = MakeFixture(seed, /*deep=*/true);
    if (!f.ok) continue;
    explain::ExhaustiveOptions odo;
    odo.strategy = explain::SearchStrategy::kOdometer;
    ASSERT_OK_AND_ASSIGN(std::vector<explain::Explanation> ref,
                         explain::PrunedSearchAllMge(f.bound.get(), f.wni,
                                                     odo));
    explain::ExhaustiveOptions tight;  // kAuto
    tight.max_candidates = 50;         // far below the raw product
    explain::PruneStats stats;
    tight.prune_stats = &stats;
    auto got = explain::PrunedSearchAllMge(f.bound.get(), f.wni, tight);
    // The frontier may legitimately exhaust the *tested* budget too; what
    // it must never do is return a wrong antichain.
    if (got.ok()) {
      EXPECT_EQ(got.value(), ref) << "seed " << seed;
      EXPECT_GT(stats.products_enumerated, 0u);
    } else {
      EXPECT_EQ(got.status().code(), StatusCode::kResourceExhausted);
    }
  }
}

/// The frontier budget is on products *tested*: a kLattice run whose
/// frontier stays tiny completes even when the raw product is far past
/// max_candidates, and reports the skipped mass in its stats.
TEST(LatticePrune, BudgetCountsTestedProductsOnly) {
  Fixture f = MakeFixture(3, /*deep=*/true);
  ASSERT_TRUE(f.ok);
  explain::ExhaustiveOptions lat;
  lat.strategy = explain::SearchStrategy::kLattice;
  lat.max_candidates = 100000;
  explain::PruneStats stats;
  lat.prune_stats = &stats;
  ASSERT_OK_AND_ASSIGN(std::vector<explain::Explanation> got,
                       explain::PrunedSearchAllMge(f.bound.get(), f.wni, lat));
  (void)got;
  EXPECT_LE(stats.products_enumerated, lat.max_candidates);
  EXPECT_GT(stats.products_skipped + stats.products_enumerated,
            stats.products_enumerated);  // some mass was actually skipped
}

/// Existence under kLattice restricts candidates to ≼-minimal concepts —
/// the boolean must agree with the unrestricted backtracker, and any
/// witness it produces must be a genuine explanation.
TEST(LatticePrune, ExistenceMinimalRestrictionAgrees) {
  for (uint64_t seed = 1; seed <= 25; ++seed) {
    for (bool deep : {false, true}) {
      Fixture f = MakeFixture(seed, deep);
      if (!f.ok) continue;
      ASSERT_OK_AND_ASSIGN(bool ref,
                           explain::ExistsExplanation(f.bound.get(), f.wni));
      explain::ExistenceOptions opts;
      opts.strategy = explain::SearchStrategy::kLattice;
      explain::Explanation witness;
      ASSERT_OK_AND_ASSIGN(bool got,
                           explain::ExistsExplanation(f.bound.get(), f.wni,
                                                      &witness, opts));
      EXPECT_EQ(got, ref) << "seed " << seed << " deep " << deep;
      if (got) {
        ASSERT_OK_AND_ASSIGN(
            bool valid, explain::IsExplanation(f.bound.get(), f.wni, witness));
        EXPECT_TRUE(valid);
      }
    }
  }
}

/// Scalar reference for the Hasse reduction, kept verbatim from the
/// pre-word-parallel implementation: O(n) intermediate scan per pair.
std::vector<std::pair<int32_t, int32_t>> ScalarHasseEdges(
    const onto::BoolMatrix& closure) {
  int32_t n = closure.size();
  std::vector<int32_t> rep = onto::EquivalenceClassReps(closure);
  std::vector<std::pair<int32_t, int32_t>> edges;
  for (int32_t i = 0; i < n; ++i) {
    if (rep[static_cast<size_t>(i)] != i) continue;
    for (int32_t j = 0; j < n; ++j) {
      if (i == j || rep[static_cast<size_t>(j)] != j) continue;
      if (!closure.Get(i, j) || closure.Get(j, i)) continue;
      bool covered = true;
      for (int32_t k = 0; k < n; ++k) {
        if (k == i || k == j || rep[static_cast<size_t>(k)] != k) continue;
        bool i_below_k = closure.Get(i, k) && !closure.Get(k, i);
        bool k_below_j = closure.Get(k, j) && !closure.Get(j, k);
        if (i_below_k && k_below_j) {
          covered = false;
          break;
        }
      }
      if (covered) edges.emplace_back(i, j);
    }
  }
  return edges;
}

/// The word-parallel HasseEdges must reproduce the scalar reference —
/// edges *and* their order — on random pre-orders with equivalence
/// classes (random 2-cycles force non-trivial class grouping).
TEST(LatticePrune, WordParallelHasseMatchesScalarReference) {
  for (uint64_t seed = 1; seed <= 30; ++seed) {
    Rng rng(seed);
    int32_t n = 5 + static_cast<int32_t>(rng.Below(80));
    onto::BoolMatrix m(n);
    for (int32_t e = 0; e < 3 * n; ++e) {
      int32_t a = static_cast<int32_t>(rng.Below(static_cast<uint64_t>(n)));
      int32_t b = static_cast<int32_t>(rng.Below(static_cast<uint64_t>(n)));
      m.Set(a, b);
      if (rng.Chance(1, 8)) m.Set(b, a);  // occasional equivalence
    }
    onto::ReflexiveTransitiveClosure(&m);
    EXPECT_EQ(onto::HasseEdges(m), ScalarHasseEdges(m)) << "seed " << seed;
  }
}

}  // namespace
}  // namespace whynot
