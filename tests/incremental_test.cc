#include <gtest/gtest.h>

#include "test_util.h"

namespace whynot {
namespace {

using explain::IncrementalOptions;
using explain::LsExplanation;

class IncrementalTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto schema = workload::CitiesDataSchema();
    ASSERT_TRUE(schema.ok());
    schema_ = std::move(schema).value();
    auto instance = workload::CitiesInstance(&schema_);
    ASSERT_TRUE(instance.ok());
    instance_ = std::make_unique<rel::Instance>(std::move(instance).value());
    auto wni = explain::MakeWhyNotInstance(instance_.get(),
                                           workload::ConnectedViaQuery(),
                                           {"Amsterdam", "New York"});
    ASSERT_TRUE(wni.ok());
    wni_ = std::make_unique<explain::WhyNotInstance>(std::move(wni).value());
  }

  rel::Schema schema_;
  std::unique_ptr<rel::Instance> instance_;
  std::unique_ptr<explain::WhyNotInstance> wni_;
};

TEST_F(IncrementalTest, SelectionFreeOutputIsExplanationAndMge) {
  IncrementalOptions options;
  options.with_selections = false;
  ASSERT_OK_AND_ASSIGN(LsExplanation e,
                       explain::IncrementalSearch(*wni_, options));
  EXPECT_TRUE(explain::IsLsExplanation(*wni_, e));
  ASSERT_OK_AND_ASSIGN(
      bool mge,
      explain::CheckMgeDerived(*wni_, e, {/*with_selections=*/false}));
  EXPECT_TRUE(mge);
}

TEST_F(IncrementalTest, WithSelectionsOutputIsExplanationAndMge) {
  IncrementalOptions options;
  options.with_selections = true;
  ASSERT_OK_AND_ASSIGN(LsExplanation e,
                       explain::IncrementalSearch(*wni_, options));
  EXPECT_TRUE(explain::IsLsExplanation(*wni_, e));
  ASSERT_OK_AND_ASSIGN(
      bool mge,
      explain::CheckMgeDerived(*wni_, e, {/*with_selections=*/true}));
  EXPECT_TRUE(mge);
}

TEST_F(IncrementalTest, TrivialExplanationWhenAnswersBlockEverything) {
  // A why-not question whose missing tuple repeats an answer column-wise:
  // the nominal-pinned start must still be an explanation (Section 5.2).
  ASSERT_OK_AND_ASSIGN(
      explain::WhyNotInstance wni,
      explain::MakeWhyNotInstance(instance_.get(),
                                  workload::ConnectedViaQuery(),
                                  {"Amsterdam", "Berlin"}));
  IncrementalOptions options;
  ASSERT_OK_AND_ASSIGN(LsExplanation e,
                       explain::IncrementalSearch(wni, options));
  EXPECT_TRUE(explain::IsLsExplanation(wni, e));
}

TEST_F(IncrementalTest, MissingConstantsOutsideActiveDomain) {
  ASSERT_OK_AND_ASSIGN(
      explain::WhyNotInstance wni,
      explain::MakeWhyNotInstance(instance_.get(),
                                  workload::ConnectedViaQuery(),
                                  {"Atlantis", "El Dorado"}));
  IncrementalOptions options;
  ASSERT_OK_AND_ASSIGN(LsExplanation e,
                       explain::IncrementalSearch(wni, options));
  EXPECT_TRUE(explain::IsLsExplanation(wni, e));
  // Both positions cannot be ⊤ at once (the product would then contain
  // every answer tuple), so at least one position must stay below ⊤.
  bool some_non_top = false;
  for (const ls::LsConcept& c : e) some_non_top |= !c.IsTop();
  EXPECT_TRUE(some_non_top);
}

TEST_F(IncrementalTest, PaperPseudocodeModeStillYieldsExplanation) {
  IncrementalOptions options;
  options.generalize_to_top = false;
  options.with_selections = true;
  ASSERT_OK_AND_ASSIGN(LsExplanation e,
                       explain::IncrementalSearch(*wni_, options));
  EXPECT_TRUE(explain::IsLsExplanation(*wni_, e));
}

/// Theorem 5.3 cross-check: the incremental output is equivalent (same
/// per-position extensions) to some most-general explanation of the
/// materialized OI[K] restricted to selection-free LS.
class IncrementalVsMaterializedTest
    : public ::testing::TestWithParam<uint64_t> {};

TEST_P(IncrementalVsMaterializedTest, OutputMatchesSomeMaterializedMge) {
  uint64_t seed = GetParam();
  workload::Rng rng(seed * 13);
  ASSERT_OK_AND_ASSIGN(rel::Schema schema,
                       workload::RandomSchema(2, {2, 1}));
  ASSERT_OK_AND_ASSIGN(rel::Instance instance,
                       workload::RandomInstance(&schema, 5, 6, seed));
  std::vector<Value> adom = instance.ActiveDomain();
  if (adom.size() < 2) return;
  std::vector<Tuple> answers;
  for (int i = 0; i < 4; ++i) {
    answers.push_back({adom[rng.Below(adom.size())],
                       adom[rng.Below(adom.size())]});
  }
  Tuple missing = {adom[rng.Below(adom.size())],
                   adom[rng.Below(adom.size())]};
  auto wni_or =
      explain::MakeWhyNotInstanceFromAnswers(&instance, answers, missing);
  if (!wni_or.ok()) return;
  const explain::WhyNotInstance& wni = wni_or.value();

  IncrementalOptions options;
  options.with_selections = false;
  ASSERT_OK_AND_ASSIGN(LsExplanation incremental,
                       explain::IncrementalSearch(wni, options));
  ASSERT_TRUE(explain::IsLsExplanation(wni, incremental));

  explain::DerivedMgeOptions derived;
  derived.fragment = ls::Fragment::kSelectionFree;
  derived.mode = ls::SubsumptionMode::kInstance;
  auto all_or = explain::ComputeAllMgeDerived(wni, derived);
  if (!all_or.ok()) return;  // closure too large for this seed: skip
  bool matched = false;
  for (const LsExplanation& mge : all_or.value()) {
    bool equal = true;
    for (size_t i = 0; i < mge.size() && equal; ++i) {
      equal = ls::Eval(mge[i], instance) == ls::Eval(incremental[i], instance);
    }
    if (equal) matched = true;
  }
  EXPECT_TRUE(matched) << "seed " << seed << ": incremental output "
                       << explain::LsExplanationToString(schema, incremental)
                       << " not among the materialized MGEs";
}

INSTANTIATE_TEST_SUITE_P(Sweep, IncrementalVsMaterializedTest,
                         ::testing::Range<uint64_t>(1, 21));

}  // namespace
}  // namespace whynot
