// Representation-equivalence gate for the hybrid containers: the whole
// engine must produce bit-identical search output — results, enumeration
// order, witnesses, and stats — under SetRepPolicy kForceDense,
// kForceHybrid, and kAdaptive, each at WHYNOT_THREADS ∈ {1, 2, 8}. The
// force modes bypass the density guards, so even the small fixtures here
// run every frozen set (ExtSet mirrors, answer-cover rows, extension
// universe bitmaps, column distinct filters) through the chunked
// containers; the dense runs take the flat word paths verbatim.

#include <gtest/gtest.h>

#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "test_util.h"
#include "whynot/common/algorithm.h"
#include "whynot/common/hybrid_bitmap.h"

namespace whynot {
namespace {

using workload::Rng;

constexpr int kThreadCounts[] = {1, 2, 8};
constexpr SetRepPolicy kPolicies[] = {SetRepPolicy::kForceDense,
                                      SetRepPolicy::kForceHybrid,
                                      SetRepPolicy::kAdaptive};

const char* PolicyName(SetRepPolicy p) {
  switch (p) {
    case SetRepPolicy::kForceDense:
      return "force-dense";
    case SetRepPolicy::kForceHybrid:
      return "force-hybrid";
    case SetRepPolicy::kAdaptive:
      return "adaptive";
  }
  return "?";
}

/// Restores the ambient policy and thread count however a test exits.
struct PolicyGuard {
  ~PolicyGuard() {
    SetSetRepPolicy(SetRepPolicy::kAdaptive);
    par::SetNumThreads(0);
  }
};

/// Runs `fn` under every (policy, thread-count) pair and asserts all nine
/// serialized outputs match the force-dense 1-thread reference. `fn` must
/// rebuild all per-run state itself — representation choices freeze into
/// warm caches, so state built under one policy must never leak into the
/// next run.
void ExpectSameUnderAllReps(
    const std::function<std::vector<std::string>()>& fn,
    const std::string& what) {
  PolicyGuard guard;
  std::optional<std::vector<std::string>> reference;
  for (SetRepPolicy policy : kPolicies) {
    for (int threads : kThreadCounts) {
      SetSetRepPolicy(policy);
      par::SetNumThreads(threads);
      std::vector<std::string> got = fn();
      if (!reference.has_value()) {
        reference = std::move(got);
      } else {
        EXPECT_TRUE(got == *reference)
            << what << " diverged under " << PolicyName(policy)
            << " at WHYNOT_THREADS=" << threads;
      }
    }
  }
}

struct Fixture {
  rel::Schema schema;
  std::unique_ptr<rel::Instance> instance;
  std::unique_ptr<onto::ExplicitOntology> ontology;
  explain::WhyNotInstance wni;
};

Fixture MakeFixture(uint64_t seed) {
  Fixture f;
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
  f.wni.instance = f.instance.get();
  f.wni.missing = {adom[rng.Below(adom.size())], adom[rng.Below(adom.size())]};
  for (int a = 0; a < 14; ++a) {
    Tuple t = {adom[rng.Below(adom.size())], adom[rng.Below(adom.size())]};
    if (t != f.wni.missing) f.wni.answers.push_back(std::move(t));
  }
  SortUnique(&f.wni.answers);
  return f;
}

std::string Render(const std::vector<explain::Explanation>& mges) {
  std::string s;
  for (const explain::Explanation& e : mges) {
    for (onto::ConceptId c : e) s += std::to_string(c) + ",";
    s += ";";
  }
  return s;
}

std::string Render(const explain::LsExplanation& e) {
  std::string s;
  for (const ls::LsConcept& c : e) s += c.ToString() + "|";
  return s;
}

/// Hands out the binding each search runs on: a fresh one per call
/// (`reuse` false, the one-shot state) or one shared by every call.
class Bindings {
 public:
  Bindings(const Fixture& f, bool with_ontology, bool reuse)
      : f_(f), with_ontology_(with_ontology), reuse_(reuse) {}
  explain::Binding& Next() {
    if (!reuse_ || current_ == nullptr) {
      current_ = std::make_unique<explain::Binding>(
          f_.instance.get(), f_.wni.answers,
          with_ontology_ ? f_.ontology.get() : nullptr);
    }
    return *current_;
  }

 private:
  const Fixture& f_;
  bool with_ontology_;
  bool reuse_;
  std::unique_ptr<explain::Binding> current_;
};

class RepEquivalenceTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(RepEquivalenceTest, ExternalSearches) {
  Fixture f = MakeFixture(GetParam());
  const Tuple& missing = f.wni.missing;
  auto run = [&](bool reuse) {
    Bindings bindings(f, /*with_ontology=*/true, reuse);
    std::vector<std::string> out;
    explain::Explanation witness;
    auto exists =
        explain::ExistsExplanation(bindings.Next(), missing, {}, &witness);
    EXPECT_TRUE(exists.ok());
    out.push_back(exists.ok() && exists.value() ? "yes:" + Render({witness})
                                                : "no");
    auto all = explain::ExhaustiveSearchAllMge(bindings.Next(), missing);
    EXPECT_TRUE(all.ok());
    out.push_back(all.ok() ? Render(all.value()) : "ERR");
    auto pruned = explain::PrunedSearchAllMge(bindings.Next(), missing);
    EXPECT_TRUE(pruned.ok());
    out.push_back(pruned.ok() ? Render(pruned.value()) : "ERR");
    auto card = explain::ExactCardMaximal(bindings.Next(), missing);
    EXPECT_TRUE(card.ok());
    if (card.ok() && card.value().has_value()) {
      out.push_back(card.value()->degree.ToString() + ":" +
                    Render({card.value()->explanation}));
    } else {
      out.push_back("none");
    }
    return out;
  };
  ExpectSameUnderAllReps(
      [&] {
        std::vector<std::string> fresh = run(false);
        EXPECT_EQ(run(true), fresh) << "reused binding diverged";
        return fresh;
      },
      "external searches");
}

TEST_P(RepEquivalenceTest, DerivedSearches) {
  Fixture f = MakeFixture(GetParam() ^ 0xabcdull);
  ExpectSameUnderAllReps(
      [&] {
        // Twice through one binding (the second run starts warm), plus a
        // fresh binding; all three must agree.
        Bindings reused(f, /*with_ontology=*/false, /*reuse=*/true);
        Bindings fresh(f, /*with_ontology=*/false, /*reuse=*/false);
        std::vector<std::string> out;
        for (Bindings* bindings : {&fresh, &reused, &reused}) {
          explain::EnumerateStats stats;
          auto r = explain::EnumerateAllMges(bindings->Next(), f.wni.missing,
                                             {}, &stats);
          EXPECT_TRUE(r.ok());
          std::string s;
          if (r.ok()) {
            for (const explain::LsExplanation& e : r.value()) {
              s += Render(e) + ";";
            }
          }
          s += "#" + std::to_string(stats.nodes_expanded) + "/" +
               std::to_string(stats.duplicate_outputs) + "/" +
               std::to_string(stats.visited_hits) + "/" +
               std::to_string(stats.max_delay);
          if (!out.empty()) EXPECT_EQ(s, out.front()) << "binding reuse";
          out.push_back(std::move(s));
        }
        return out;
      },
      "EnumerateAllMges");
}

TEST_P(RepEquivalenceTest, SessionServedRequests) {
  // The session path additionally exercises WarmForConcurrentReads (the
  // column-index freeze), the shared answer-cover tables, and repeated
  // requests over one warm state.
  Fixture f = MakeFixture(GetParam() ^ 0x5e55ull);
  ExpectSameUnderAllReps(
      [&] {
        std::vector<std::string> out;
        auto session = explain::ExplainSession::BindWithAnswers(
            f.instance.get(), f.wni.answers, f.ontology.get());
        EXPECT_TRUE(session.ok());
        if (!session.ok()) return out;
        explain::ExplainSession& s = session.value();
        auto whynot = s.WhyNot(f.wni.missing);
        out.push_back(whynot.ok() ? Render(whynot.value()) : "ERR");
        auto mges = s.EnumerateMges(f.wni.missing);
        EXPECT_TRUE(mges.ok());
        std::string all;
        if (mges.ok()) {
          for (const explain::LsExplanation& e : mges.value()) {
            all += Render(e) + ";";
          }
        }
        out.push_back(std::move(all));
        auto ext = s.ExhaustiveMges(f.wni.missing);
        EXPECT_TRUE(ext.ok());
        out.push_back(ext.ok() ? Render(ext.value()) : "ERR");
        auto greedy = s.GreedyCard(f.wni.missing);
        EXPECT_TRUE(greedy.ok());
        if (greedy.ok() && greedy.value().has_value()) {
          out.push_back(greedy.value()->degree.ToString() + ":" +
                        Render({greedy.value()->explanation}));
        } else {
          out.push_back("none");
        }
        return out;
      },
      "session requests");
}

TEST_P(RepEquivalenceTest, MemoryAccountingTracksPolicy) {
  // Not an output-equivalence check: the session's memory stats must
  // reflect the forced representation, and the counterfactual ratio must
  // never be understated (hybrid bytes <= dense-equivalent bytes).
  Fixture f = MakeFixture(GetParam() ^ 0x11ull);
  PolicyGuard guard;
  par::SetNumThreads(1);

  SetSetRepPolicy(SetRepPolicy::kForceDense);
  auto dense_session = explain::ExplainSession::BindWithAnswers(
      f.instance.get(), f.wni.answers, f.ontology.get());
  ASSERT_TRUE(dense_session.ok());
  (void)dense_session.value().WhyNot(f.wni.missing);
  auto dense_stats = dense_session.value().MemoryUsage();
  EXPECT_EQ(dense_stats.hybrid_ext_sets, 0u);
  EXPECT_GT(dense_stats.total_bytes, 0u);

  SetSetRepPolicy(SetRepPolicy::kForceHybrid);
  auto hybrid_session = explain::ExplainSession::BindWithAnswers(
      f.instance.get(), f.wni.answers, f.ontology.get());
  ASSERT_TRUE(hybrid_session.ok());
  (void)hybrid_session.value().WhyNot(f.wni.missing);
  auto hybrid_stats = hybrid_session.value().MemoryUsage();
  EXPECT_GT(hybrid_stats.hybrid_ext_sets, 0u);
  EXPECT_GT(hybrid_stats.total_bytes, 0u);
  EXPECT_GT(hybrid_stats.dense_equivalent_total_bytes, 0u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, RepEquivalenceTest,
                         ::testing::Values(11ull, 137ull, 9001ull));

}  // namespace
}  // namespace whynot
