// Determinism gate for the parallel execution layer (PR 4): every
// explanation search must produce bit-identical results — including
// enumeration order, witnesses, stats, and error outcomes — at
// WHYNOT_THREADS ∈ {1, 2, 8}. The 1-thread run takes the serial code
// paths verbatim and serves as the reference; the multi-thread runs
// exercise the sharded warm-up, the candidate fan-outs, and the
// deterministic index-ordered merges.

#include <gtest/gtest.h>

#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "test_util.h"
#include "whynot/common/algorithm.h"

namespace whynot {
namespace {

using workload::Rng;

constexpr int kThreadCounts[] = {1, 2, 8};

/// Runs `fn` at each thread count and asserts every result equals the
/// 1-thread reference. `fn` must rebuild all per-run state itself.
template <typename T>
void ExpectSameAtAllThreadCounts(const std::function<T()>& fn,
                                 const std::string& what) {
  std::optional<T> reference;
  for (int threads : kThreadCounts) {
    par::SetNumThreads(threads);
    T got = fn();
    if (!reference.has_value()) {
      reference = std::move(got);
    } else {
      EXPECT_TRUE(got == *reference)
          << what << " diverged at WHYNOT_THREADS=" << threads;
    }
  }
  par::SetNumThreads(0);  // back to the environment / hardware default
}

/// The search form of the gate: at each thread count `fn` runs once on a
/// fresh binding from `make` (the one-shot state) and once on a single
/// binding reused by every run, and every result must equal the 1-thread
/// fresh reference.
template <typename T>
void ExpectSameWithBindings(
    const std::function<std::unique_ptr<explain::Binding>()>& make,
    const std::function<T(explain::Binding&)>& fn, const std::string& what) {
  std::unique_ptr<explain::Binding> reused = make();
  std::optional<T> reference;
  for (int threads : kThreadCounts) {
    par::SetNumThreads(threads);
    std::unique_ptr<explain::Binding> fresh = make();
    for (explain::Binding* b : {fresh.get(), reused.get()}) {
      T got = fn(*b);
      if (!reference.has_value()) {
        reference = std::move(got);
      } else {
        EXPECT_TRUE(got == *reference)
            << what << " diverged at WHYNOT_THREADS=" << threads
            << (b == reused.get() ? " (reused binding)" : "");
      }
    }
  }
  par::SetNumThreads(0);
}

struct ExternalFixture {
  rel::Schema schema;
  std::unique_ptr<rel::Instance> instance;
  std::unique_ptr<onto::ExplicitOntology> ontology;
  explain::WhyNotInstance wni;
};

ExternalFixture MakeExternalFixture(uint64_t seed) {
  ExternalFixture f;
  auto schema = workload::RandomSchema(2, {2, 2});
  EXPECT_TRUE(schema.ok());
  f.schema = std::move(schema).value();
  auto instance =
      workload::RandomInstance(&f.schema, /*rows_per_relation=*/30,
                               /*domain=*/12, seed);
  EXPECT_TRUE(instance.ok());
  f.instance = std::make_unique<rel::Instance>(std::move(instance).value());

  const std::vector<Value>& adom = f.instance->ActiveDomain();
  auto ontology = workload::RandomTreeOntology(adom, /*num_concepts=*/40,
                                               seed ^ 0x9e3779b9ull);
  EXPECT_TRUE(ontology.ok());
  f.ontology = std::move(ontology).value();

  Rng rng(seed ^ 0x51ull);
  f.wni.instance = f.instance.get();
  size_t m = 2;
  f.wni.missing = {adom[rng.Below(adom.size())], adom[rng.Below(adom.size())]};
  for (int a = 0; a < 14; ++a) {
    Tuple t;
    for (size_t j = 0; j < m; ++j) t.push_back(adom[rng.Below(adom.size())]);
    if (t != f.wni.missing) f.wni.answers.push_back(std::move(t));
  }
  SortUnique(&f.wni.answers);
  return f;
}

class ParallelDeterminismTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ParallelDeterminismTest, WarmupAndConceptsContaining) {
  ExternalFixture f = MakeExternalFixture(GetParam());
  ExpectSameAtAllThreadCounts<std::vector<std::string>>(
      [&] {
        onto::BoundOntology bound(f.ontology.get(), f.instance.get());
        bound.WarmExtensions();
        // Serialize pool-dependent state: every extension as ids plus the
        // concepts containing each missing-tuple constant. Byte-identical
        // warm-up means identical pool ids, so the id vectors must match.
        std::vector<std::string> out;
        for (onto::ConceptId c = 0; c < bound.NumConcepts(); ++c) {
          const onto::ExtSet& e = bound.Ext(c);
          std::string s = e.is_all() ? "all" : "";
          if (!e.is_all()) {
            for (ValueId id : e.ids()) s += std::to_string(id) + ",";
          }
          out.push_back(std::move(s));
        }
        for (const Value& v : f.wni.missing) {
          std::string s;
          ValueId id = bound.pool().Intern(v);
          for (onto::ConceptId c : bound.ConceptsContaining(id)) {
            s += std::to_string(c) + ",";
          }
          out.push_back(std::move(s));
        }
        out.push_back(bound.CheckConsistent().ToString());
        return out;
      },
      "warm-up / ConceptsContaining / CheckConsistent");
}

std::function<std::unique_ptr<explain::Binding>()> ExternalBindings(
    const ExternalFixture& f) {
  return [&f] {
    return std::make_unique<explain::Binding>(f.instance.get(), f.wni.answers,
                                              f.ontology.get());
  };
}

TEST_P(ParallelDeterminismTest, ExternalSearches) {
  ExternalFixture f = MakeExternalFixture(GetParam());
  auto make = ExternalBindings(f);
  const Tuple& missing = f.wni.missing;
  ExpectSameWithBindings<bool>(
      make, [&](explain::Binding& b) {
        explain::Explanation witness;
        auto r = explain::ExistsExplanation(b, missing, {}, &witness);
        EXPECT_TRUE(r.ok());
        return r.ok() && r.value();
      },
      "ExistsExplanation");
  ExpectSameWithBindings<std::vector<explain::Explanation>>(
      make, [&](explain::Binding& b) {
        auto r = explain::ExhaustiveSearchAllMge(b, missing);
        EXPECT_TRUE(r.ok());
        return r.ok() ? r.value() : std::vector<explain::Explanation>{};
      },
      "ExhaustiveSearchAllMge");
  ExpectSameWithBindings<std::vector<explain::Explanation>>(
      make, [&](explain::Binding& b) {
        auto r = explain::PrunedSearchAllMge(b, missing);
        EXPECT_TRUE(r.ok());
        return r.ok() ? r.value() : std::vector<explain::Explanation>{};
      },
      "PrunedSearchAllMge");
  ExpectSameWithBindings<std::string>(
      make, [&](explain::Binding& b) {
        auto r = explain::ExactCardMaximal(b, missing);
        EXPECT_TRUE(r.ok());
        if (!r.ok() || !r.value().has_value()) return std::string("none");
        std::string s = r.value()->degree.ToString() + ":";
        for (onto::ConceptId c : r.value()->explanation) {
          s += std::to_string(c) + ",";
        }
        return s;
      },
      "ExactCardMaximal");
  ExpectSameWithBindings<std::string>(
      make, [&](explain::Binding& b) {
        auto r = explain::GreedyCardinalityClimb(b, missing);
        EXPECT_TRUE(r.ok());
        if (!r.ok() || !r.value().has_value()) return std::string("none");
        std::string s = r.value()->degree.ToString() + ":";
        for (onto::ConceptId c : r.value()->explanation) {
          s += std::to_string(c) + ",";
        }
        return s;
      },
      "GreedyCardinalityClimb");
}

TEST_P(ParallelDeterminismTest, CheckMgeAndWhyExternal) {
  ExternalFixture f = MakeExternalFixture(GetParam());
  // Candidates: the serial exhaustive MGEs plus arbitrary tuples.
  par::SetNumThreads(1);
  std::vector<explain::Explanation> candidates;
  {
    onto::BoundOntology bound(f.ontology.get(), f.instance.get());
    auto r = explain::ExhaustiveSearchAllMge(&bound, f.wni);
    ASSERT_TRUE(r.ok());
    candidates = r.value();
  }
  Rng rng(GetParam() ^ 0xc0ffeeull);
  int n = 40;
  for (int i = 0; i < 6; ++i) {
    candidates.push_back(
        {static_cast<onto::ConceptId>(rng.Below(static_cast<uint64_t>(n))),
         static_cast<onto::ConceptId>(rng.Below(static_cast<uint64_t>(n)))});
  }
  auto make = ExternalBindings(f);
  ExpectSameWithBindings<std::vector<int>>(
      make, [&](explain::Binding& b) {
        std::vector<int> verdicts;
        for (const explain::Explanation& e : candidates) {
          auto r = explain::CheckMgeExternal(b, f.wni.missing, e);
          EXPECT_TRUE(r.ok());
          verdicts.push_back(r.ok() && r.value() ? 1 : 0);
        }
        return verdicts;
      },
      "CheckMgeExternal");

  // Why-instance over the same world: explain a *present* tuple.
  ASSERT_FALSE(f.wni.answers.empty());
  const Tuple& present = f.wni.answers.front();
  ExpectSameWithBindings<std::vector<explain::Explanation>>(
      make, [&](explain::Binding& b) {
        explain::ExhaustiveOptions o;
        o.max_candidates = 2000000;
        auto r = explain::AllMostGeneralWhyExplanations(b, present, o);
        EXPECT_TRUE(r.ok());
        return r.ok() ? r.value() : std::vector<explain::Explanation>{};
      },
      "AllMostGeneralWhyExplanations");
}

struct DerivedFixture {
  rel::Schema schema;
  std::unique_ptr<rel::Instance> instance;
  explain::WhyNotInstance wni;
  explain::WhyInstance wi;
};

DerivedFixture MakeDerivedFixture(uint64_t seed) {
  DerivedFixture f;
  auto schema = workload::RandomSchema(3, {2, 2, 1});
  EXPECT_TRUE(schema.ok());
  f.schema = std::move(schema).value();
  auto instance = workload::RandomInstance(&f.schema, /*rows_per_relation=*/14,
                                           /*domain=*/8, seed);
  EXPECT_TRUE(instance.ok());
  f.instance = std::make_unique<rel::Instance>(std::move(instance).value());

  Rng rng(seed ^ 0x77ull);
  const std::vector<Value>& adom = f.instance->ActiveDomain();
  f.wni.instance = f.instance.get();
  f.wni.missing = {adom[rng.Below(adom.size())], adom[rng.Below(adom.size())]};
  for (int a = 0; a < 10; ++a) {
    Tuple t = {adom[rng.Below(adom.size())], adom[rng.Below(adom.size())]};
    if (t != f.wni.missing) f.wni.answers.push_back(std::move(t));
  }
  SortUnique(&f.wni.answers);

  f.wi.instance = f.instance.get();
  f.wi.answers = f.wni.answers;
  f.wi.present = f.wni.answers.front();
  return f;
}

TEST_P(ParallelDeterminismTest, DerivedSearches) {
  DerivedFixture f = MakeDerivedFixture(GetParam());
  auto make = [&f] {
    return std::make_unique<explain::Binding>(f.instance.get(), f.wni.answers);
  };
  // EnumerateAllMges: outputs *and* stats (node accounting, delays) must
  // replay identically through the wave-parallel frontier.
  ExpectSameWithBindings<std::string>(
      make, [&](explain::Binding& b) {
        explain::EnumerateStats stats;
        auto r = explain::EnumerateAllMges(b, f.wni.missing, {}, &stats);
        EXPECT_TRUE(r.ok());
        std::string s;
        if (r.ok()) {
          for (const explain::LsExplanation& e : r.value()) {
            for (const ls::LsConcept& c : e) s += c.ToString() + "|";
            s += ";";
          }
        }
        s += "#" + std::to_string(stats.nodes_expanded) + "/" +
             std::to_string(stats.duplicate_outputs) + "/" +
             std::to_string(stats.visited_hits) + "/" +
             std::to_string(stats.max_delay);
        return s;
      },
      "EnumerateAllMges");

  // CheckMgeDerived over the enumeration's outputs (all true) and some
  // deliberately non-maximal candidates (nominal-pinned tuples).
  par::SetNumThreads(1);
  std::vector<explain::LsExplanation> candidates;
  {
    auto r = explain::EnumerateAllMges(f.wni, {});
    ASSERT_TRUE(r.ok());
    candidates = r.value();
  }
  candidates.push_back(explain::LsExplanation{
      ls::LsConcept::Nominal(f.wni.missing[0]),
      ls::LsConcept::Nominal(f.wni.missing[1])});
  ExpectSameWithBindings<std::vector<int>>(
      make, [&](explain::Binding& b) {
        std::vector<int> verdicts;
        for (const explain::LsExplanation& e : candidates) {
          auto r = explain::CheckMgeDerived(b, f.wni.missing, e);
          EXPECT_TRUE(r.ok());
          verdicts.push_back(r.ok() && r.value() ? 1 : 0);
        }
        return verdicts;
      },
      "CheckMgeDerived");

  // Why duals: incremental search stays serial, the MGE check fans out.
  ExpectSameWithBindings<std::string>(
      make, [&](explain::Binding& b) {
        auto r = explain::IncrementalWhySearch(b, f.wi.present);
        EXPECT_TRUE(r.ok());
        std::string s;
        if (r.ok()) {
          for (const ls::LsConcept& c : r.value()) s += c.ToString() + "|";
        }
        return s;
      },
      "IncrementalWhySearch");
  std::vector<explain::LsExplanation> why_candidates;
  {
    par::SetNumThreads(1);
    auto mge = explain::IncrementalWhySearch(f.wi);
    ASSERT_TRUE(mge.ok());
    why_candidates.push_back(mge.value());
  }
  why_candidates.push_back(explain::LsExplanation{
      ls::LsConcept::Nominal(f.wi.present[0]),
      ls::LsConcept::Nominal(f.wi.present[1])});
  ExpectSameWithBindings<std::vector<int>>(
      make, [&](explain::Binding& b) {
        std::vector<int> verdicts;
        for (const explain::LsExplanation& e : why_candidates) {
          auto r = explain::CheckWhyMgeDerived(b, f.wi.present, e);
          EXPECT_TRUE(r.ok());
          verdicts.push_back(r.ok() && r.value() ? 1 : 0);
        }
        return verdicts;
      },
      "CheckWhyMgeDerived");
}

TEST_P(ParallelDeterminismTest, MaterializeAndClosure) {
  DerivedFixture f = MakeDerivedFixture(GetParam() ^ 0xabcdull);
  // Materialized OI[K]: concept list, extensions, and the subsumption
  // matrix exercise the parallel dedup rounds, the sharded instance-mode
  // matrix build, and the row-parallel Warshall closure.
  ExpectSameAtAllThreadCounts<std::vector<std::string>>(
      [&] {
        ls::MaterializeOptions options;
        options.fragment = ls::Fragment::kSelectionFree;
        options.max_concepts = 4000;
        auto r = ls::LsOntology::Materialize(f.instance.get(), {}, options);
        EXPECT_TRUE(r.ok());
        std::vector<std::string> out;
        if (!r.ok()) return out;
        const ls::LsOntology& onto = *r.value();
        for (onto::ConceptId c = 0; c < onto.NumConcepts(); ++c) {
          std::string row = onto.ConceptName(c) + "=";
          for (onto::ConceptId d = 0; d < onto.NumConcepts(); ++d) {
            row += onto.Subsumes(c, d) ? '1' : '0';
          }
          out.push_back(std::move(row));
        }
        return out;
      },
      "LsOntology::Materialize");
}

INSTANTIATE_TEST_SUITE_P(Seeds, ParallelDeterminismTest,
                         ::testing::Values(11ull, 137ull, 9001ull));

}  // namespace
}  // namespace whynot
