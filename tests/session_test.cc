// ExplainSession equivalence gate: every session-served request must be
// bit-identical — results, enumeration order, and stats — to the
// standalone one-shot entry point, at WHYNOT_THREADS ∈ {1, 2, 8}, across
// repeated requests over the same warm state, and after interleaved
// AddFact invalidation (the version counter must rebuild the warm caches
// deterministically rather than serve stale extensions).

#include <gtest/gtest.h>

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "test_util.h"
#include "whynot/common/algorithm.h"

namespace whynot {
namespace {

using workload::Rng;

constexpr int kThreadCounts[] = {1, 2, 8};

// --- External-ontology equivalence ----------------------------------------

struct ExternalFixture {
  rel::Schema schema;
  std::unique_ptr<rel::Instance> instance;
  std::unique_ptr<onto::ExplicitOntology> ontology;
  std::vector<Tuple> answers;
  std::vector<Tuple> missing;  // request tuples, all ∉ answers
};

ExternalFixture MakeExternalFixture(uint64_t seed) {
  ExternalFixture f;
  auto schema = workload::RandomSchema(2, {2, 2});
  EXPECT_TRUE(schema.ok());
  f.schema = std::move(schema).value();
  auto instance = workload::RandomInstance(&f.schema, /*rows_per_relation=*/30,
                                           /*domain=*/12, seed);
  EXPECT_TRUE(instance.ok());
  f.instance = std::make_unique<rel::Instance>(std::move(instance).value());

  const std::vector<Value>& adom = f.instance->ActiveDomain();
  auto ontology = workload::RandomTreeOntology(adom, /*num_concepts=*/40,
                                               seed ^ 0x9e3779b9ull);
  EXPECT_TRUE(ontology.ok());
  f.ontology = std::move(ontology).value();

  Rng rng(seed ^ 0x51ull);
  for (int a = 0; a < 14; ++a) {
    Tuple t = {adom[rng.Below(adom.size())], adom[rng.Below(adom.size())]};
    f.answers.push_back(std::move(t));
  }
  SortUnique(&f.answers);
  while (f.missing.size() < 4) {
    Tuple t = {adom[rng.Below(adom.size())], adom[rng.Below(adom.size())]};
    if (!std::binary_search(f.answers.begin(), f.answers.end(), t)) {
      f.missing.push_back(std::move(t));
    }
  }
  return f;
}

explain::WhyNotInstance OneShotWni(const ExternalFixture& f,
                                   const Tuple& missing) {
  auto wni = explain::MakeWhyNotInstanceFromAnswers(f.instance.get(),
                                                    f.answers, missing);
  EXPECT_TRUE(wni.ok());
  return std::move(wni).value();
}

TEST(SessionExternalTest, RepeatedRequestsMatchOneShot) {
  ExternalFixture f = MakeExternalFixture(7);
  for (int threads : kThreadCounts) {
    par::SetNumThreads(threads);
    ASSERT_OK_AND_ASSIGN(
        explain::ExplainSession session,
        explain::ExplainSession::BindWithAnswers(f.instance.get(), f.answers,
                                                 f.ontology.get()));
    // Several requests against the same warm state: the session's shared
    // covers must never change a result relative to cold one-shot calls.
    for (const Tuple& missing : f.missing) {
      explain::WhyNotInstance wni = OneShotWni(f, missing);
      onto::BoundOntology bound(f.ontology.get(), f.instance.get());

      ASSERT_OK_AND_ASSIGN(std::vector<explain::Explanation> want_all,
                           explain::ExhaustiveSearchAllMge(&bound, wni));
      ASSERT_OK_AND_ASSIGN(std::vector<explain::Explanation> got_all,
                           session.ExhaustiveMges(missing));
      EXPECT_EQ(got_all, want_all);

      ASSERT_OK_AND_ASSIGN(std::vector<explain::Explanation> want_pruned,
                           explain::PrunedSearchAllMge(&bound, wni));
      ASSERT_OK_AND_ASSIGN(std::vector<explain::Explanation> got_pruned,
                           session.PrunedMges(missing));
      EXPECT_EQ(got_pruned, want_pruned);

      explain::Explanation want_witness, got_witness;
      ASSERT_OK_AND_ASSIGN(bool want_exists,
                           explain::ExistsExplanation(&bound, wni,
                                                      &want_witness));
      ASSERT_OK_AND_ASSIGN(bool got_exists,
                           session.Exists(missing, &got_witness));
      EXPECT_EQ(got_exists, want_exists);
      EXPECT_EQ(got_witness, want_witness);

      ASSERT_OK_AND_ASSIGN(auto want_card,
                           explain::ExactCardMaximal(&bound, wni));
      ASSERT_OK_AND_ASSIGN(auto got_card, session.CardMaximal(missing));
      ASSERT_EQ(got_card.has_value(), want_card.has_value());
      if (want_card.has_value()) {
        EXPECT_EQ(got_card->explanation, want_card->explanation);
        EXPECT_TRUE(got_card->degree == want_card->degree);
      }

      ASSERT_OK_AND_ASSIGN(auto want_greedy,
                           explain::GreedyCardinalityClimb(&bound, wni));
      ASSERT_OK_AND_ASSIGN(auto got_greedy, session.GreedyCard(missing));
      ASSERT_EQ(got_greedy.has_value(), want_greedy.has_value());
      if (want_greedy.has_value()) {
        EXPECT_EQ(got_greedy->explanation, want_greedy->explanation);
        EXPECT_TRUE(got_greedy->degree == want_greedy->degree);
      }

      if (!want_all.empty()) {
        ASSERT_OK_AND_ASSIGN(
            bool want_mge,
            explain::CheckMgeExternal(&bound, wni, want_all.front()));
        ASSERT_OK_AND_ASSIGN(bool got_mge,
                             session.CheckMge(missing, want_all.front()));
        EXPECT_EQ(got_mge, want_mge);
        EXPECT_TRUE(want_mge);
      }
    }

    // The external why dual against a present tuple.
    if (!f.answers.empty()) {
      const Tuple& present = f.answers.front();
      explain::WhyInstance wi;
      wi.instance = f.instance.get();
      wi.answers = f.answers;
      wi.present = present;
      onto::BoundOntology bound(f.ontology.get(), f.instance.get());
      ASSERT_OK_AND_ASSIGN(
          std::vector<explain::Explanation> want_why,
          explain::AllMostGeneralWhyExplanations(&bound, wi));
      ASSERT_OK_AND_ASSIGN(std::vector<explain::Explanation> got_why,
                           session.WhyMges(present));
      EXPECT_EQ(got_why, want_why);
    }
  }
  par::SetNumThreads(0);
}

TEST(SessionExternalTest, RequestValidationMatchesOneShotContracts) {
  ExternalFixture f = MakeExternalFixture(11);
  ASSERT_OK_AND_ASSIGN(
      explain::ExplainSession session,
      explain::ExplainSession::BindWithAnswers(f.instance.get(), f.answers,
                                               f.ontology.get()));
  // A tuple inside Ans cannot be a why-not question, and vice versa.
  EXPECT_FALSE(session.ExhaustiveMges(f.answers.front()).ok());
  EXPECT_FALSE(session.WhyMges(f.missing.front()).ok());
  // Derived requests work without an ontology; external ones refuse.
  ASSERT_OK_AND_ASSIGN(explain::ExplainSession derived_only,
                       explain::ExplainSession::BindWithAnswers(
                           f.instance.get(), f.answers, nullptr));
  EXPECT_FALSE(derived_only.ExhaustiveMges(f.missing.front()).ok());
  EXPECT_TRUE(derived_only.WhyNot(f.missing.front()).ok());
}

// --- Derived-ontology (OI) equivalence over a real query --------------------

struct DerivedFixture {
  rel::Schema schema;
  std::unique_ptr<rel::Instance> instance;
  rel::UnionQuery query;
};

DerivedFixture MakeCitiesFixture() {
  DerivedFixture f;
  auto schema = workload::CitiesDataSchema();
  EXPECT_TRUE(schema.ok());
  f.schema = std::move(schema).value();
  auto instance = workload::CitiesInstance(&f.schema);
  EXPECT_TRUE(instance.ok());
  f.instance = std::make_unique<rel::Instance>(std::move(instance).value());
  f.query = workload::ConnectedViaQuery();
  return f;
}

TEST(SessionDerivedTest, RepeatedRequestsMatchOneShot) {
  DerivedFixture f = MakeCitiesFixture();
  ASSERT_OK_AND_ASSIGN(std::vector<Tuple> answers,
                       rel::Evaluate(f.query, *f.instance));
  ASSERT_FALSE(answers.empty());
  const std::vector<Value>& adom = f.instance->ActiveDomain();
  std::vector<Tuple> missing;
  for (const Value& a : adom) {
    for (const Value& b : adom) {
      Tuple t = {a, b};
      if (!std::binary_search(answers.begin(), answers.end(), t)) {
        missing.push_back(std::move(t));
      }
      if (missing.size() >= 3) break;
    }
    if (missing.size() >= 3) break;
  }
  ASSERT_EQ(missing.size(), 3u);

  for (int threads : kThreadCounts) {
    par::SetNumThreads(threads);
    ASSERT_OK_AND_ASSIGN(
        explain::ExplainSession session,
        explain::ExplainSession::Bind(f.instance.get(), f.query));
    EXPECT_EQ(session.answers(), answers);

    for (const Tuple& m : missing) {
      ASSERT_OK_AND_ASSIGN(
          explain::WhyNotInstance wni,
          explain::MakeWhyNotInstance(f.instance.get(), f.query, m));

      ASSERT_OK_AND_ASSIGN(explain::LsExplanation want_inc,
                           explain::IncrementalSearch(wni, {}));
      ASSERT_OK_AND_ASSIGN(explain::LsExplanation got_inc, session.WhyNot(m));
      EXPECT_EQ(got_inc, want_inc);

      explain::EnumerateStats want_stats, got_stats;
      ASSERT_OK_AND_ASSIGN(
          std::vector<explain::LsExplanation> want_enum,
          explain::EnumerateAllMges(wni, {}, &want_stats));
      ASSERT_OK_AND_ASSIGN(std::vector<explain::LsExplanation> got_enum,
                           session.EnumerateMges(m, &got_stats));
      EXPECT_EQ(got_enum, want_enum);
      EXPECT_EQ(got_stats.nodes_expanded, want_stats.nodes_expanded);
      EXPECT_EQ(got_stats.duplicate_outputs, want_stats.duplicate_outputs);
      EXPECT_EQ(got_stats.visited_hits, want_stats.visited_hits);
      EXPECT_EQ(got_stats.max_delay, want_stats.max_delay);

      ASSERT_OK_AND_ASSIGN(
          bool want_mge,
          explain::CheckMgeDerived(wni, want_inc));
      ASSERT_OK_AND_ASSIGN(bool got_mge,
                           session.CheckMgeDerived(m, want_inc));
      EXPECT_EQ(got_mge, want_mge);
      EXPECT_TRUE(want_mge);
    }

    // The dual question over every answer tuple.
    for (const Tuple& present : answers) {
      ASSERT_OK_AND_ASSIGN(
          explain::WhyInstance wi,
          explain::MakeWhyInstance(f.instance.get(), f.query, present));
      ASSERT_OK_AND_ASSIGN(explain::LsExplanation want_why,
                           explain::IncrementalWhySearch(wi));
      ASSERT_OK_AND_ASSIGN(explain::LsExplanation got_why,
                           session.Why(present));
      EXPECT_EQ(got_why, want_why);
    }
  }
  par::SetNumThreads(0);
}

// --- Invalidation ----------------------------------------------------------

TEST(SessionInvalidationTest, AddFactRebuildsDeterministically) {
  DerivedFixture f = MakeCitiesFixture();
  Tuple missing = {Value("Amsterdam"), Value("New York")};
  for (int threads : kThreadCounts) {
    par::SetNumThreads(threads);
    // Fresh per-thread-count copy so the mutation sequence is identical.
    rel::Instance instance(*f.instance);
    ASSERT_OK_AND_ASSIGN(std::unique_ptr<onto::ExplicitOntology> ontology,
                         workload::CitiesOntology());
    ASSERT_OK_AND_ASSIGN(
        explain::ExplainSession session,
        explain::ExplainSession::Bind(&instance, f.query, ontology.get()));
    uint64_t v0 = session.warmed_version();
    ASSERT_OK_AND_ASSIGN(explain::LsExplanation before, session.WhyNot(missing));
    (void)before;
    ASSERT_OK(session.ExhaustiveMges(missing).status());
    ls::ConceptCacheStats stats_before = session.CacheStats();
    ASSERT_GT(stats_before.publishes, 0u);

    // Mutate: a new city and new connections change both adom(I) and q(I).
    ASSERT_OK(instance.AddFact(
        "Cities",
        {Value("Utrecht"), Value(358454), Value("Netherlands"),
         Value("Europe")}));
    ASSERT_OK(instance.AddFact("Train-Connections",
                               {Value("Utrecht"), Value("Amsterdam")}));
    ASSERT_OK(instance.AddFact("Train-Connections",
                               {Value("Amsterdam"), Value("Berlin")}));
    uint64_t mutated_version = instance.version();
    ASSERT_NE(mutated_version, v0);

    // The next request must serve against the mutated instance, exactly
    // like a cold one-shot call on it.
    ASSERT_OK_AND_ASSIGN(
        explain::WhyNotInstance wni,
        explain::MakeWhyNotInstance(&instance, f.query, missing));
    ASSERT_OK_AND_ASSIGN(explain::LsExplanation want,
                         explain::IncrementalSearch(wni, {}));
    ASSERT_OK_AND_ASSIGN(explain::LsExplanation got, session.WhyNot(missing));
    EXPECT_EQ(got, want);
    EXPECT_NE(session.warmed_version(), v0);
    EXPECT_EQ(session.answers(), wni.answers);
    onto::BoundOntology bound(ontology.get(), &instance);
    ASSERT_OK_AND_ASSIGN(std::vector<explain::Explanation> want_mges,
                         explain::ExhaustiveSearchAllMge(&bound, wni));
    ASSERT_OK_AND_ASSIGN(std::vector<explain::Explanation> got_mges,
                         session.ExhaustiveMges(missing));
    EXPECT_EQ(got_mges, want_mges);

    // Cache counters keep counting across the rebuild; the replaced
    // binding's published entries count as evictions.
    ls::ConceptCacheStats stats_after = session.CacheStats();
    EXPECT_GE(stats_after.shared_hits, stats_before.shared_hits);
    EXPECT_GE(stats_after.local_hits, stats_before.local_hits);
    EXPECT_GT(stats_after.misses, stats_before.misses);
    EXPECT_GT(stats_after.publishes, stats_before.publishes);
    EXPECT_GT(stats_after.evictions, stats_before.evictions);

    // A duplicate AddFact is a no-op: the version must not move, so the
    // warm state survives the next request untouched.
    EXPECT_EQ(session.warmed_version(), mutated_version);
    ASSERT_OK(instance.AddFact("Train-Connections",
                               {Value("Amsterdam"), Value("Berlin")}));
    EXPECT_EQ(instance.version(), mutated_version);
    ASSERT_OK_AND_ASSIGN(explain::LsExplanation again, session.WhyNot(missing));
    EXPECT_EQ(again, want);
    EXPECT_EQ(session.warmed_version(), mutated_version);
  }
  par::SetNumThreads(0);
}

}  // namespace
}  // namespace whynot
