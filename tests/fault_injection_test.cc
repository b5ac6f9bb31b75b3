// Fault-injection matrix for engine-wide execution control (PR 8): every
// explanation search must honor deadlines, cooperative cancellation, and
// budgets *identically at every thread count*. A test::FaultInjector rides
// in the ExecContext and fires at a configured probe ordinal; because all
// searches observe their context only at serial merge points with
// thread-invariant probe ordinals, the interrupted run's partial prefix and
// quality certificate must be bit-identical at WHYNOT_THREADS ∈ {1, 2, 8}
// for every injection point — the PR 4 determinism gate extended to
// interrupted executions.

#include <gtest/gtest.h>

#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "test_util.h"

namespace whynot {
namespace {

using explain::Explanation;

constexpr int kThreadCounts[] = {1, 2, 8};
// Injection points per search per stop reason (ISSUE 8 demands >= 20).
constexpr size_t kInjectionPoints = 24;

struct Fixture {
  rel::Schema schema;
  std::unique_ptr<rel::Instance> instance;
  std::unique_ptr<onto::ExplicitOntology> ontology;
  std::unique_ptr<onto::BoundOntology> bound;
  std::unique_ptr<explain::WhyNotInstance> wni;
  std::unique_ptr<explain::WhyInstance> wi;
};

Fixture MakeFixture() {
  Fixture f;
  auto schema = workload::CitiesDataSchema();
  EXPECT_TRUE(schema.ok());
  f.schema = std::move(schema).value();
  auto instance = workload::CitiesInstance(&f.schema);
  EXPECT_TRUE(instance.ok());
  f.instance = std::make_unique<rel::Instance>(std::move(instance).value());
  auto ontology = workload::CitiesOntology();
  EXPECT_TRUE(ontology.ok());
  f.ontology = std::move(ontology).value();
  f.bound =
      std::make_unique<onto::BoundOntology>(f.ontology.get(), f.instance.get());
  auto wni = explain::MakeWhyNotInstance(f.instance.get(),
                                         workload::ConnectedViaQuery(),
                                         {"Amsterdam", "New York"});
  EXPECT_TRUE(wni.ok()) << wni.status().ToString();
  f.wni = std::make_unique<explain::WhyNotInstance>(std::move(wni).value());
  auto wi = explain::MakeWhyInstance(f.instance.get(),
                                     workload::ConnectedViaQuery(),
                                     {Value("New York"), Value("Santa Cruz")});
  EXPECT_TRUE(wi.ok()) << wi.status().ToString();
  f.wi = std::make_unique<explain::WhyInstance>(std::move(wi).value());
  return f;
}

/// One run's full observable outcome: status code, rendered partial
/// results, and the certificate. Two runs are "bit-identical" iff all of
/// it matches.
struct Outcome {
  StatusCode code = StatusCode::kOk;
  std::vector<std::string> items;
  exec::Quality quality = exec::Quality::kExact;
  exec::StopReason stop = exec::StopReason::kNone;
  exec::Progress progress;

  bool operator==(const Outcome& o) const {
    return code == o.code && items == o.items && quality == o.quality &&
           stop == o.stop && progress.tested == o.progress.tested &&
           progress.remaining == o.progress.remaining &&
           progress.best_so_far == o.progress.best_so_far;
  }

  std::string ToString() const {
    std::string out = std::string(StatusCodeName(code)) + " " +
                      exec::QualityName(quality) + "/" +
                      exec::StopReasonName(stop) + " tested=" +
                      std::to_string(progress.tested) + " remaining=" +
                      std::to_string(progress.remaining) + " best=" +
                      std::to_string(progress.best_so_far) + " [";
    for (const std::string& s : items) out += s + "; ";
    return out + "]";
  }
};

void TakeCert(Outcome* out, const exec::Certificate& cert) {
  out->quality = cert.quality;
  out->stop = cert.stop;
  out->progress = cert.progress;
}

/// A fresh binding over the fixture: the one-shot state of a search.
std::unique_ptr<explain::Binding> MakeBinding(Fixture& f) {
  return std::make_unique<explain::Binding>(f.instance.get(), f.wni->answers,
                                            f.ontology.get());
}

using Runner =
    std::function<Outcome(Fixture&, explain::Binding&,
                          const exec::ExecContext*, exec::Certificate*)>;

struct SearchCase {
  const char* name;
  Runner run;
};

/// The six searches of the matrix. Exhaustive is pinned to the odometer
/// and Pruned to the lattice frontier so both probe schemes (per-candidate
/// ordinals, per-wave product counts) are exercised; CardMaximal, Exists,
/// WhyMges, and Enumerate cover the branch-and-bound, backtracking,
/// dual-antichain, and branch-tree families.
std::vector<SearchCase> AllSearches() {
  std::vector<SearchCase> cases;
  cases.push_back(
      {"exhaustive-odometer",
       [](Fixture& f, explain::Binding& b, const exec::ExecContext* exec,
          exec::Certificate* cert) {
         explain::ExhaustiveOptions o;
         o.strategy = explain::SearchStrategy::kOdometer;
         o.exec = exec;
         o.cert = cert;
         Outcome out;
         auto r = explain::ExhaustiveSearchAllMge(b, f.wni->missing, o);
         out.code = r.status().code();
         if (r.ok()) {
           for (const Explanation& e : r.value()) {
             out.items.push_back(explain::ExplanationToString(*f.bound, e));
           }
         }
         if (cert != nullptr) TakeCert(&out, *cert);
         return out;
       }});
  cases.push_back(
      {"pruned-lattice",
       [](Fixture& f, explain::Binding& b, const exec::ExecContext* exec,
          exec::Certificate* cert) {
         explain::ExhaustiveOptions o;
         o.strategy = explain::SearchStrategy::kLattice;
         o.exec = exec;
         o.cert = cert;
         Outcome out;
         auto r = explain::PrunedSearchAllMge(b, f.wni->missing, o);
         out.code = r.status().code();
         if (r.ok()) {
           for (const Explanation& e : r.value()) {
             out.items.push_back(explain::ExplanationToString(*f.bound, e));
           }
         }
         if (cert != nullptr) TakeCert(&out, *cert);
         return out;
       }});
  cases.push_back(
      {"card-maximal",
       [](Fixture& f, explain::Binding& b, const exec::ExecContext* exec,
          exec::Certificate* cert) {
         explain::ExhaustiveOptions o;
         o.strategy = explain::SearchStrategy::kOdometer;
         o.exec = exec;
         o.cert = cert;
         Outcome out;
         auto r = explain::ExactCardMaximal(b, f.wni->missing, o);
         out.code = r.status().code();
         if (r.ok() && r.value().has_value()) {
           out.items.push_back(
               explain::ExplanationToString(*f.bound, r.value()->explanation) +
               " degree=" + r.value()->degree.ToString());
         }
         if (cert != nullptr) TakeCert(&out, *cert);
         return out;
       }});
  cases.push_back(
      {"exists",
       [](Fixture& f, explain::Binding& b, const exec::ExecContext* exec,
          exec::Certificate* cert) {
         explain::ExistenceOptions o;
         o.exec = exec;
         o.cert = cert;
         Explanation witness;
         Outcome out;
         auto r = explain::ExistsExplanation(b, f.wni->missing, o, &witness);
         out.code = r.status().code();
         if (r.ok()) {
           out.items.push_back(
               r.value()
                   ? "yes: " + explain::ExplanationToString(*f.bound, witness)
                   : "no");
         }
         if (cert != nullptr) TakeCert(&out, *cert);
         return out;
       }});
  cases.push_back(
      {"why-mges",
       [](Fixture& f, explain::Binding& b, const exec::ExecContext* exec,
          exec::Certificate* cert) {
         Outcome out;
         explain::ExhaustiveOptions o;
         o.strategy = explain::SearchStrategy::kOdometer;
         o.exec = exec;
         o.cert = cert;
         auto r = explain::AllMostGeneralWhyExplanations(b, f.wi->present, o);
         out.code = r.status().code();
         if (r.ok()) {
           for (const Explanation& e : r.value()) {
             out.items.push_back(explain::ExplanationToString(*f.bound, e));
           }
         }
         if (cert != nullptr) TakeCert(&out, *cert);
         return out;
       }});
  cases.push_back(
      {"enumerate",
       [](Fixture& f, explain::Binding& b, const exec::ExecContext* exec,
          exec::Certificate* cert) {
         explain::EnumerateOptions o;
         o.exec = exec;
         o.cert = cert;
         explain::EnumerateStats stats;
         Outcome out;
         auto r = explain::EnumerateAllMges(b, f.wni->missing, o, &stats);
         out.code = r.status().code();
         if (r.ok()) {
           for (const explain::LsExplanation& e : r.value()) {
             out.items.push_back(
                 explain::LsExplanationToString(f.schema, e));
           }
           out.items.push_back("nodes=" + std::to_string(stats.nodes_expanded));
         }
         if (cert != nullptr) TakeCert(&out, *cert);
         return out;
       }});
  return cases;
}

test::FaultInjector MakeInjector(exec::StopReason reason, size_t trigger) {
  return reason == exec::StopReason::kCancelled
             ? test::FaultInjector::CancelAt(trigger)
             : test::FaultInjector::DeadlineAt(trigger);
}

// --- The matrix ------------------------------------------------------------

// Certified interruption at every injection point: the partial prefix and
// certificate of each search must be bit-identical at every thread count.
TEST(FaultInjectionMatrix, CertifiedPartialsAreBitIdenticalAcrossThreads) {
  // Every run goes once through a fresh binding and once through one
  // binding reused by every run of the matrix, interrupted ones included.
  Fixture shared = MakeFixture();
  std::unique_ptr<explain::Binding> reused = MakeBinding(shared);
  for (const SearchCase& sc : AllSearches()) {
    for (exec::StopReason reason :
         {exec::StopReason::kCancelled, exec::StopReason::kDeadline}) {
      for (size_t trigger = 0; trigger < kInjectionPoints; ++trigger) {
        std::optional<Outcome> reference;
        for (int threads : kThreadCounts) {
          par::SetNumThreads(threads);
          Fixture f = MakeFixture();
          std::unique_ptr<explain::Binding> fresh = MakeBinding(f);
          for (bool reuse : {false, true}) {
            test::FaultInjector inj = MakeInjector(reason, trigger);
            exec::ExecContext ctx;
            ctx.fault = &inj;
            exec::Certificate cert;
            Outcome got = reuse ? sc.run(shared, *reused, &ctx, &cert)
                                : sc.run(f, *fresh, &ctx, &cert);
            // Certified stops never surface as errors.
            ASSERT_EQ(got.code, StatusCode::kOk)
                << sc.name << " trigger=" << trigger
                << " threads=" << threads << ": " << got.ToString();
            if (got.stop != exec::StopReason::kNone) {
              EXPECT_EQ(got.stop, reason)
                  << sc.name << " trigger=" << trigger;
            }
            if (!reference.has_value()) {
              reference = std::move(got);
            } else {
              EXPECT_TRUE(got == *reference)
                  << sc.name << " (" << exec::StopReasonName(reason)
                  << " at " << trigger << ") diverged at WHYNOT_THREADS="
                  << threads << (reuse ? " (reused binding)" : "")
                  << "\n  threads=1: " << reference->ToString()
                  << "\n  threads=" << threads << ": " << got.ToString();
            }
          }
        }
      }
    }
  }
  par::SetNumThreads(0);
}

// An immediate injected stop (trigger 0) fires for every search, so small
// triggers genuinely interrupt: the certificate must record the stop and
// downgrade the quality.
TEST(FaultInjectionMatrix, EarlyTriggersActuallyInterrupt) {
  par::SetNumThreads(1);
  for (const SearchCase& sc : AllSearches()) {
    Fixture f = MakeFixture();
    test::FaultInjector inj = test::FaultInjector::CancelAt(0);
    exec::ExecContext ctx;
    ctx.fault = &inj;
    exec::Certificate cert;
    Outcome got = sc.run(f, *MakeBinding(f), &ctx, &cert);
    ASSERT_EQ(got.code, StatusCode::kOk) << sc.name;
    EXPECT_EQ(got.stop, exec::StopReason::kCancelled) << sc.name;
    EXPECT_NE(got.quality, exec::Quality::kExact) << sc.name;
    EXPECT_GT(inj.observations(), 0u) << sc.name;
  }
  par::SetNumThreads(0);
}

// Without a certificate, stops surface as the matching error status — at
// every thread count.
TEST(FaultInjectionMatrix, UncertifiedStopsAreErrors) {
  for (const SearchCase& sc : AllSearches()) {
    for (int threads : kThreadCounts) {
      par::SetNumThreads(threads);
      Fixture f = MakeFixture();
      {
        test::FaultInjector inj = test::FaultInjector::CancelAt(0);
        exec::ExecContext ctx;
        ctx.fault = &inj;
        Outcome got = sc.run(f, *MakeBinding(f), &ctx, nullptr);
        EXPECT_EQ(got.code, StatusCode::kCancelled)
            << sc.name << " threads=" << threads;
      }
      {
        test::FaultInjector inj = test::FaultInjector::DeadlineAt(0);
        exec::ExecContext ctx;
        ctx.fault = &inj;
        Outcome got = sc.run(f, *MakeBinding(f), &ctx, nullptr);
        EXPECT_EQ(got.code, StatusCode::kDeadlineExceeded)
            << sc.name << " threads=" << threads;
      }
    }
  }
  par::SetNumThreads(0);
}

// A real (wall-clock) expired deadline stops every search with the right
// code; the stop ordinal is timing-dependent, so only the code is checked.
TEST(FaultInjectionMatrix, RealExpiredDeadlineStopsEverySearch) {
  par::SetNumThreads(2);
  for (const SearchCase& sc : AllSearches()) {
    Fixture f = MakeFixture();
    exec::ExecContext ctx;
    ctx.deadline = exec::Deadline::After(0);
    Outcome got = sc.run(f, *MakeBinding(f), &ctx, nullptr);
    EXPECT_EQ(got.code, StatusCode::kDeadlineExceeded) << sc.name;
  }
  par::SetNumThreads(0);
}

// Budgets through the certificate path become kBudget stops with
// bit-identical truncated prefixes; without a certificate they keep the
// historical ResourceExhausted error.
TEST(FaultInjectionMatrix, BudgetStopsCertifyIdenticallyAcrossThreads) {
  std::optional<Outcome> ex_ref;
  std::optional<Outcome> en_ref;
  for (int threads : kThreadCounts) {
    par::SetNumThreads(threads);
    Fixture f = MakeFixture();
    {
      explain::ExhaustiveOptions o;
      o.strategy = explain::SearchStrategy::kOdometer;
      o.max_candidates = 3;
      exec::Certificate cert;
      o.cert = &cert;
      Outcome out;
      auto r = explain::ExhaustiveSearchAllMge(f.bound.get(), *f.wni, o);
      out.code = r.status().code();
      ASSERT_EQ(out.code, StatusCode::kOk) << "threads=" << threads;
      for (const Explanation& e : r.value()) {
        out.items.push_back(explain::ExplanationToString(*f.bound, e));
      }
      TakeCert(&out, cert);
      EXPECT_EQ(out.stop, exec::StopReason::kBudget);
      EXPECT_EQ(out.progress.tested, 3u);
      if (!ex_ref.has_value()) {
        ex_ref = out;
      } else {
        EXPECT_TRUE(out == *ex_ref)
            << "exhaustive budget diverged at WHYNOT_THREADS=" << threads
            << "\n  " << ex_ref->ToString() << "\n  " << out.ToString();
      }
    }
    {
      explain::EnumerateOptions o;
      o.max_nodes = 2;
      exec::Certificate cert;
      o.cert = &cert;
      Outcome out;
      auto r = explain::EnumerateAllMges(*f.wni, o);
      out.code = r.status().code();
      ASSERT_EQ(out.code, StatusCode::kOk) << "threads=" << threads;
      for (const explain::LsExplanation& e : r.value()) {
        out.items.push_back(explain::LsExplanationToString(f.schema, e));
      }
      TakeCert(&out, cert);
      EXPECT_EQ(out.stop, exec::StopReason::kBudget);
      if (!en_ref.has_value()) {
        en_ref = out;
      } else {
        EXPECT_TRUE(out == *en_ref)
            << "enumerate budget diverged at WHYNOT_THREADS=" << threads
            << "\n  " << en_ref->ToString() << "\n  " << out.ToString();
      }
    }
    {
      // Historical (uncertified) budget report is untouched.
      explain::EnumerateOptions o;
      o.max_nodes = 2;
      auto r = explain::EnumerateAllMges(*f.wni, o);
      ASSERT_FALSE(r.ok());
      EXPECT_EQ(r.status().code(), StatusCode::kResourceExhausted);
    }
  }
  par::SetNumThreads(0);
}

// --- Warm-up faults --------------------------------------------------------

TEST(WarmFaultTest, InjectedWarmFailureIsRetryable) {
  Fixture f = MakeFixture();
  test::FaultInjector inj;
  inj.fail_warm = true;
  exec::ExecContext ctx;
  ctx.fault = &inj;
  Status failed = f.bound->WarmExtensions(&ctx);
  ASSERT_FALSE(failed.ok());
  EXPECT_EQ(failed.code(), StatusCode::kResourceExhausted);
  // The injected fault fired before any mutation: a retry without the
  // fault warms everything.
  ASSERT_OK(f.bound->WarmExtensions());
  ASSERT_OK(f.bound->WarmExtensions(&ctx));  // fully warm: nothing to fail
}

TEST(WarmFaultTest, CancelledWarmUpResumesFromCachedConcepts) {
  for (int threads : kThreadCounts) {
    par::SetNumThreads(threads);
    Fixture f = MakeFixture();
    exec::ExecContext ctx;
    ctx.cancel.Cancel();
    Status stopped = f.bound->WarmExtensions(&ctx);
    ASSERT_FALSE(stopped.ok());
    EXPECT_EQ(stopped.code(), StatusCode::kCancelled);
    // Already-warmed concepts stay cached; a later uncancelled call
    // finishes the job.
    ASSERT_OK(f.bound->WarmExtensions());
  }
  par::SetNumThreads(0);
}

// --- Session-level control -------------------------------------------------

TEST(SessionExecTest, CancelFailsRequestsUntilReset) {
  Fixture f = MakeFixture();
  ASSERT_OK_AND_ASSIGN(
      explain::ExplainSession session,
      explain::ExplainSession::Bind(f.instance.get(),
                                    workload::ConnectedViaQuery(),
                                    f.ontology.get()));
  Tuple missing = {Value("Amsterdam"), Value("New York")};
  ASSERT_TRUE(session.ExhaustiveMges(missing).ok());
  session.Cancel();
  Result<std::vector<Explanation>> cancelled = session.ExhaustiveMges(missing);
  ASSERT_FALSE(cancelled.ok());
  EXPECT_EQ(cancelled.status().code(), StatusCode::kCancelled);
  Result<explain::LsExplanation> derived = session.WhyNot(missing);
  ASSERT_FALSE(derived.ok());
  EXPECT_EQ(derived.status().code(), StatusCode::kCancelled);
  session.ResetCancel();
  EXPECT_TRUE(session.ExhaustiveMges(missing).ok());
  EXPECT_TRUE(session.WhyNot(missing).ok());
}

TEST(SessionExecTest, ExplicitContextControlsOneRequest) {
  Fixture f = MakeFixture();
  ASSERT_OK_AND_ASSIGN(
      explain::ExplainSession session,
      explain::ExplainSession::Bind(f.instance.get(),
                                    workload::ConnectedViaQuery(),
                                    f.ontology.get()));
  Tuple missing = {Value("Amsterdam"), Value("New York")};
  test::FaultInjector inj = test::FaultInjector::DeadlineAt(1);
  exec::ExecContext ctx;
  ctx.fault = &inj;
  Result<std::vector<Explanation>> r = session.PrunedMges(missing, &ctx);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kDeadlineExceeded);
  // The explicit context died with its request; the session is fine.
  EXPECT_TRUE(session.PrunedMges(missing).ok());
}

TEST(SessionExecTest, RewarmUnderInjectedWarmFaultFailsThenRecovers) {
  Fixture f = MakeFixture();
  rel::Instance instance(*f.instance);
  ASSERT_OK_AND_ASSIGN(
      explain::ExplainSession session,
      explain::ExplainSession::Bind(&instance, workload::ConnectedViaQuery(),
                                    f.ontology.get()));
  Tuple missing = {Value("Amsterdam"), Value("New York")};
  const uint64_t v0 = session.warmed_version();
  // Invalidate the warm state with a genuinely new fact (duplicates are
  // version no-ops), then ask the next request to rewarm under an
  // injected warm failure. Rome→Kyoto keeps {Amsterdam, New York} missing.
  ASSERT_OK(instance.AddFact("Train-Connections",
                             {Value("Rome"), Value("Kyoto")}));
  test::FaultInjector inj;
  inj.fail_warm = true;
  exec::ExecContext ctx;
  ctx.fault = &inj;
  Result<std::vector<Explanation>> r = session.ExhaustiveMges(missing, &ctx);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kResourceExhausted);
  // The failed warm-up does not count as warm.
  EXPECT_EQ(session.warmed_version(), v0);
  // Without the fault the rewarm completes and the request serves the
  // mutated instance.
  EXPECT_TRUE(session.ExhaustiveMges(missing).ok());
  EXPECT_EQ(session.warmed_version(), instance.version());
}

TEST(SessionExecTest, DegradationLadderExactWhenUninterrupted) {
  Fixture f = MakeFixture();
  ASSERT_OK_AND_ASSIGN(
      explain::ExplainSession session,
      explain::ExplainSession::Bind(f.instance.get(),
                                    workload::ConnectedViaQuery(),
                                    f.ontology.get()));
  Tuple missing = {Value("Amsterdam"), Value("New York")};
  ASSERT_OK_AND_ASSIGN(explain::GradedMges graded,
                       session.MgesWithDegradation(missing));
  EXPECT_EQ(graded.certificate.quality, exec::Quality::kExact);
  EXPECT_TRUE(graded.certificate.complete());
  ASSERT_OK_AND_ASSIGN(std::vector<Explanation> want,
                       session.PrunedMges(missing));
  EXPECT_EQ(graded.explanations, want);
}

TEST(SessionExecTest, DegradationLadderFallsBackToGreedyOnDeadline) {
  Fixture f = MakeFixture();
  ASSERT_OK_AND_ASSIGN(
      explain::ExplainSession session,
      explain::ExplainSession::Bind(f.instance.get(),
                                    workload::ConnectedViaQuery(),
                                    f.ontology.get()));
  Tuple missing = {Value("Amsterdam"), Value("New York")};
  // A deadline at probe 0 leaves the exact search empty-handed; the
  // ladder's last rung still produces one sound greedy explanation.
  test::FaultInjector inj = test::FaultInjector::DeadlineAt(0);
  exec::ExecContext ctx;
  ctx.fault = &inj;
  ASSERT_OK_AND_ASSIGN(explain::GradedMges graded,
                       session.MgesWithDegradation(missing, &ctx));
  EXPECT_EQ(graded.certificate.stop, exec::StopReason::kDeadline);
  EXPECT_EQ(graded.certificate.quality, exec::Quality::kHeuristic);
  ASSERT_EQ(graded.explanations.size(), 1u);
  ASSERT_OK_AND_ASSIGN(
      bool sound, explain::IsExplanation(f.bound.get(), *f.wni,
                                         graded.explanations.front()));
  EXPECT_TRUE(sound);
}

TEST(SessionExecTest, DegradationLadderRespectsCancellation) {
  Fixture f = MakeFixture();
  ASSERT_OK_AND_ASSIGN(
      explain::ExplainSession session,
      explain::ExplainSession::Bind(f.instance.get(),
                                    workload::ConnectedViaQuery(),
                                    f.ontology.get()));
  Tuple missing = {Value("Amsterdam"), Value("New York")};
  // A cancelled caller asked for no further work: no greedy rung.
  test::FaultInjector inj = test::FaultInjector::CancelAt(0);
  exec::ExecContext ctx;
  ctx.fault = &inj;
  ASSERT_OK_AND_ASSIGN(explain::GradedMges graded,
                       session.MgesWithDegradation(missing, &ctx));
  EXPECT_EQ(graded.certificate.stop, exec::StopReason::kCancelled);
  EXPECT_TRUE(graded.explanations.empty());
  EXPECT_NE(graded.certificate.quality, exec::Quality::kExact);
}

TEST(SessionExecTest, TruncatedPrefixKeepsLowerBoundQuality) {
  Fixture f = MakeFixture();
  ASSERT_OK_AND_ASSIGN(
      explain::ExplainSession session,
      explain::ExplainSession::Bind(f.instance.get(),
                                    workload::ConnectedViaQuery(),
                                    f.ontology.get()));
  Tuple missing = {Value("Amsterdam"), Value("New York")};
  // Find a trigger where the interrupted exact search already holds part
  // of the antichain: that prefix must come back as kLowerBound, each
  // entry a genuine explanation.
  for (size_t trigger = 1; trigger < kInjectionPoints; ++trigger) {
    test::FaultInjector inj = test::FaultInjector::DeadlineAt(trigger);
    exec::ExecContext ctx;
    ctx.fault = &inj;
    ASSERT_OK_AND_ASSIGN(explain::GradedMges graded,
                         session.MgesWithDegradation(missing, &ctx));
    if (graded.certificate.complete() ||
        graded.certificate.quality != exec::Quality::kLowerBound) {
      continue;
    }
    ASSERT_FALSE(graded.explanations.empty());
    for (const Explanation& e : graded.explanations) {
      ASSERT_OK_AND_ASSIGN(bool sound,
                           explain::IsExplanation(f.bound.get(), *f.wni, e));
      EXPECT_TRUE(sound);
    }
    return;  // found and verified a kLowerBound rung
  }
  GTEST_SKIP() << "no trigger produced a non-empty truncated prefix";
}

TEST(SessionExecTest, RequestDeadlineOptionIsHarmlessWhenGenerous) {
  Fixture f = MakeFixture();
  explain::ExplainSessionOptions options;
  options.request_deadline_ms = 60000;
  ASSERT_OK_AND_ASSIGN(
      explain::ExplainSession session,
      explain::ExplainSession::Bind(f.instance.get(),
                                    workload::ConnectedViaQuery(),
                                    f.ontology.get(), options));
  Tuple missing = {Value("Amsterdam"), Value("New York")};
  ASSERT_OK_AND_ASSIGN(std::vector<Explanation> with_deadline,
                       session.ExhaustiveMges(missing));
  ASSERT_OK_AND_ASSIGN(
      explain::ExplainSession plain,
      explain::ExplainSession::Bind(f.instance.get(),
                                    workload::ConnectedViaQuery(),
                                    f.ontology.get()));
  ASSERT_OK_AND_ASSIGN(std::vector<Explanation> without,
                       plain.ExhaustiveMges(missing));
  EXPECT_EQ(with_deadline, without);
}

}  // namespace
}  // namespace whynot
