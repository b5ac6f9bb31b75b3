// explain::Binding contract: a binding is the fixed (instance, Ans,
// ontology) part of every why-not question. A search on a binding whose
// instance changed fails with FailedPrecondition instead of serving stale
// state; a binding without an ontology refuses the external searches; Ans
// is sort-deduplicated once. ExplainSession's rebuild after AddFact is
// covered by session_test.

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "test_util.h"

namespace whynot {
namespace {

struct CitiesFixture {
  rel::Schema schema;
  std::unique_ptr<rel::Instance> instance;
  std::unique_ptr<onto::ExplicitOntology> ontology;
  rel::UnionQuery query = workload::ConnectedViaQuery();
  Tuple missing = {Value("Amsterdam"), Value("New York")};
  Tuple present = {Value("New York"), Value("Santa Cruz")};
};

CitiesFixture MakeCities() {
  CitiesFixture f;
  auto schema = workload::CitiesDataSchema();
  EXPECT_TRUE(schema.ok());
  f.schema = std::move(schema).value();
  auto instance = workload::CitiesInstance(&f.schema);
  EXPECT_TRUE(instance.ok());
  f.instance = std::make_unique<rel::Instance>(std::move(instance).value());
  auto ontology = workload::CitiesOntology();
  EXPECT_TRUE(ontology.ok());
  f.ontology = std::move(ontology).value();
  return f;
}

// A new city plus connections: changes adom(I) and q(I), keeps the
// missing tuple missing.
void Mutate(rel::Instance* instance) {
  ASSERT_OK(instance->AddFact("Cities", {Value("Utrecht"), Value(358454),
                                         Value("Netherlands"),
                                         Value("Europe")}));
  ASSERT_OK(instance->AddFact("Train-Connections",
                              {Value("Utrecht"), Value("Amsterdam")}));
  ASSERT_OK(instance->AddFact("Train-Connections",
                              {Value("Amsterdam"), Value("Berlin")}));
}

TEST(BindingTest, SearchOnStaleBindingIsFailedPrecondition) {
  CitiesFixture f = MakeCities();
  ASSERT_OK_AND_ASSIGN(std::vector<Tuple> answers,
                       rel::Evaluate(f.query, *f.instance));
  explain::Binding b(f.instance.get(), answers, f.ontology.get());
  ASSERT_OK_AND_ASSIGN(explain::LsExplanation inc,
                       explain::IncrementalSearch(b, f.missing));
  ASSERT_OK_AND_ASSIGN(std::vector<explain::Explanation> mges,
                       explain::ExhaustiveSearchAllMge(b, f.missing));
  ASSERT_FALSE(mges.empty());

  Mutate(f.instance.get());
  ASSERT_NE(b.version(), f.instance->version());
  auto expect_stale = [](const Status& st, const char* what) {
    EXPECT_EQ(st.code(), StatusCode::kFailedPrecondition)
        << what << ": " << st.ToString();
  };
  expect_stale(explain::IncrementalSearch(b, f.missing).status(),
               "IncrementalSearch");
  expect_stale(
      explain::EnumerateAllMges(b, f.missing, {}, nullptr).status(),
      "EnumerateAllMges");
  expect_stale(explain::IsLsExplanation(b, f.missing, inc).status(),
               "IsLsExplanation");
  expect_stale(explain::CheckMgeDerived(b, f.missing, inc).status(),
               "CheckMgeDerived");
  expect_stale(explain::ExhaustiveSearchAllMge(b, f.missing).status(),
               "ExhaustiveSearchAllMge");
  expect_stale(explain::PrunedSearchAllMge(b, f.missing).status(),
               "PrunedSearchAllMge");
  expect_stale(explain::ExistsExplanation(b, f.missing, {}, nullptr).status(),
               "ExistsExplanation");
  expect_stale(explain::ExactCardMaximal(b, f.missing).status(),
               "ExactCardMaximal");
  expect_stale(explain::GreedyCardinalityClimb(b, f.missing).status(),
               "GreedyCardinalityClimb");
  expect_stale(explain::CheckMgeExternal(b, f.missing, mges.front()).status(),
               "CheckMgeExternal");
  expect_stale(explain::AllMostGeneralWhyExplanations(b, f.present).status(),
               "AllMostGeneralWhyExplanations");
  expect_stale(explain::IsWhyExplanation(b, f.present, mges.front()).status(),
               "IsWhyExplanation");
  expect_stale(explain::IsLsWhyExplanation(b, f.present, inc).status(),
               "IsLsWhyExplanation");
  expect_stale(explain::IncrementalWhySearch(b, f.present).status(),
               "IncrementalWhySearch");
  expect_stale(explain::CheckWhyMgeDerived(b, f.present, inc).status(),
               "CheckWhyMgeDerived");
}

TEST(BindingTest, ExternalSearchWithoutOntologyIsUnsupported) {
  CitiesFixture f = MakeCities();
  ASSERT_OK_AND_ASSIGN(std::vector<Tuple> answers,
                       rel::Evaluate(f.query, *f.instance));
  explain::Binding b(f.instance.get(), answers);
  EXPECT_EQ(explain::ExhaustiveSearchAllMge(b, f.missing).status().code(),
            StatusCode::kUnsupported);
  EXPECT_TRUE(explain::IncrementalSearch(b, f.missing).ok());
}

TEST(BindingTest, AnswersAreSortDedupedOnce) {
  CitiesFixture f = MakeCities();
  Tuple a = {Value("Berlin"), Value("Amsterdam")};
  Tuple b = {Value("Amsterdam"), Value("Berlin")};
  explain::Binding binding(f.instance.get(), {a, b, a, b});
  EXPECT_EQ(binding.answers(), (std::vector<Tuple>{b, a}));
}

}  // namespace
}  // namespace whynot
