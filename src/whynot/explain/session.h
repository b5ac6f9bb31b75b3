#ifndef WHYNOT_EXPLAIN_SESSION_H_
#define WHYNOT_EXPLAIN_SESSION_H_

#include <memory>
#include <optional>
#include <vector>

#include "whynot/common/status.h"
#include "whynot/concepts/concept_cache.h"
#include "whynot/concepts/lub.h"
#include "whynot/explain/cardinality.h"
#include "whynot/explain/check_mge.h"
#include "whynot/explain/enumerate.h"
#include "whynot/explain/exhaustive.h"
#include "whynot/explain/existence.h"
#include "whynot/explain/incremental.h"
#include "whynot/explain/why_explanation.h"
#include "whynot/explain/whynot_instance.h"
#include "whynot/ontology/ontology.h"

namespace whynot::explain {

/// Session-wide knobs, fixed at Bind time. The per-algorithm option
/// structs keep their one-shot meanings; `lub` limits every lub the
/// session's Binding computes.
struct ExplainSessionOptions {
  ExhaustiveOptions exhaustive;    // Exhaustive/Pruned/CardMaximal budgets
  ExistenceOptions existence;
  IncrementalOptions incremental;  // WhyNot()/Why(): selections, ⊤ sweep
  EnumerateOptions enumerate;
  ls::LubOptions lub;

  /// Limits of the session's shared concept-evaluation cache (the
  /// lub+eval memo every derived request publishes into and reuses).
  /// Leave max_bytes at 0: the session's answer covers key bitmaps by
  /// published extension addresses (see ConceptCacheOptions::max_bytes).
  ls::ConceptCacheOptions concept_cache;

  /// Default per-request deadline in milliseconds (0 = none). Every
  /// request that is not handed an explicit ExecContext runs under a
  /// fresh deadline of this length plus the session's cancel token; an
  /// explicit context overrides both.
  int64_t request_deadline_ms = 0;
};

/// An MGE answer graded by the degradation ladder (MgesWithDegradation):
/// the certificate says what the explanation list is worth — kExact (the
/// full antichain), kLowerBound (a deterministic prefix of it, cut by the
/// stop the certificate records), or kHeuristic (the greedy fallback's
/// single sound explanation).
struct GradedMges {
  std::vector<Explanation> explanations;
  exec::Certificate certificate;
};

/// Prepared serving facade for repeated explanation traffic over one
/// (ontology, instance, query, answers) binding.
///
/// A session holds one explain::Binding — the fixed (instance, Ans,
/// ontology) part of every question — plus options and a cancel token.
/// Bind evaluates the query, warms the instance's lazy caches for
/// concurrent reads and every bound-ontology extension (sharded); the
/// binding builds the rest of its warm state (answer covers, lattice, lub
/// boxes, eval memos, concept cache) on first use. Requests then only vary
/// the asked-about tuple. Results, enumeration order, and stats are
/// bit-identical to the one-shot entry points at every thread count: all
/// shared caches memoize pure functions of the binding, so warm-vs-cold
/// only changes time.
///
/// Invalidation: a mutation (AddFact / ClearRelation) bumps
/// rel::Instance::version(), and the next request rebuilds the binding —
/// re-evaluating the query when the session was bound from one — instead
/// of serving stale extensions. Mutating the instance *during* a request
/// is not supported (same contract as the one-shot searches).
///
/// Threading: requests dispatch into the same parallel searches as the
/// one-shot calls. The session itself is single-threaded — serve
/// concurrent callers from one session with external serialization, or
/// give each its own session.
class ExplainSession {
 public:
  /// Binds and warms a session; evaluates `query` over `instance` for the
  /// answer set. `ontology` is optional — without it only the derived-
  /// ontology (OI) requests are served.
  static Result<ExplainSession> Bind(const rel::Instance* instance,
                                     rel::UnionQuery query,
                                     const onto::FiniteOntology* ontology =
                                         nullptr,
                                     ExplainSessionOptions options = {});

  /// As Bind, from a precomputed answer set (sort-deduplicated here; the
  /// paper treats Ans as part of the input). Version invalidation then
  /// rebuilds caches against the mutated instance but keeps this answer
  /// set — matching one-shot calls built from the same answers.
  static Result<ExplainSession> BindWithAnswers(
      const rel::Instance* instance, std::vector<Tuple> answers,
      const onto::FiniteOntology* ontology = nullptr,
      ExplainSessionOptions options = {});

  /// Ans = q(I), sorted and duplicate-free.
  const std::vector<Tuple>& answers() const;
  bool has_ontology() const;
  /// The instance version the warm state was built against (tests).
  uint64_t warmed_version() const;
  /// The warm bound ontology (null without an external ontology). Exposed
  /// for rendering — concept names, DOT export; invalidated by the next
  /// request after an instance mutation.
  onto::BoundOntology* bound_ontology();

  /// Definition 3.1 consistency of the bound instance with the external
  /// ontology. Requires an ontology.
  Status CheckConsistent();

  /// Per-session memory accounting over the warm state (the BENCH memory
  /// column's source). `*_dense_equivalent_*` fields report the
  /// counterfactual residency had every adaptive set force-built its flat
  /// pool/answer-universe DenseBitmap (the pre-hybrid engine), so
  /// total_bytes / dense_equivalent_total_bytes is the measured residency
  /// reduction of the hybrid containers on this binding.
  struct MemoryStats {
    size_t instance_bytes = 0;    // columns, fact index, column indexes
    size_t ext_bytes = 0;         // warm extension table (external ontology)
    size_t cover_bytes = 0;       // answer-cover rows, both ontologies
    size_t eval_cache_bytes = 0;  // derived-ontology extension memos
    size_t shared_cache_bytes = 0;  // published concept-cache entries
    size_t total_bytes = 0;
    size_t dense_equivalent_total_bytes = 0;
    size_t hybrid_ext_sets = 0;   // extensions frozen to hybrid containers
    size_t dense_ext_sets = 0;    // extensions frozen to flat mirrors
  };
  MemoryStats MemoryUsage() const;

  /// Cumulative traffic counters of the session's shared concept cache
  /// across every derived request served so far. Observability only — the
  /// split between shared/local hits is thread-dependent (the values
  /// served are identical); counters survive a binding rebuild, entries do
  /// not (they count as evictions).
  ls::ConceptCacheStats CacheStats() const;

  // --- Execution control ---------------------------------------------------
  //
  // Every request below takes an optional ExecContext. When `exec` is
  // null the session builds one per request from
  // ExplainSessionOptions::request_deadline_ms and the session's cancel
  // token; an explicit context is used verbatim (its own deadline, token,
  // and fault injector), so Cancel() only reaches requests that let the
  // session build their context. Stops surface as DeadlineExceeded /
  // Cancelled errors except through MgesWithDegradation, which converts
  // them into graded partial answers.

  /// Cooperatively cancels the in-flight request (callable from another
  /// thread) and fails every later one until ResetCancel(). Only requests
  /// running under a session-built context (exec == nullptr) observe it.
  void Cancel();
  /// Re-arms the session after Cancel() by installing a fresh token.
  void ResetCancel();

  // --- Derived-ontology (OI) requests ------------------------------------

  /// Algorithm 2 (INCREMENTAL SEARCH): one most-general explanation for
  /// the missing tuple w.r.t. OI.
  Result<LsExplanation> WhyNot(const Tuple& missing,
                               const exec::ExecContext* exec = nullptr);

  /// All most-general explanations w.r.t. OI (EnumerateAllMges).
  Result<std::vector<LsExplanation>> EnumerateMges(
      const Tuple& missing, EnumerateStats* stats = nullptr,
      const exec::ExecContext* exec = nullptr);

  /// CHECK-MGE w.r.t. OI for a candidate LS explanation.
  Result<bool> CheckMgeDerived(const Tuple& missing,
                               const LsExplanation& candidate,
                               const exec::ExecContext* exec = nullptr);

  /// The dual question: a most-general why-explanation for a tuple that
  /// IS an answer, w.r.t. OI.
  Result<LsExplanation> Why(const Tuple& present,
                            const exec::ExecContext* exec = nullptr);

  // --- External-ontology requests (require an ontology) -------------------

  /// Algorithm 1 (EXHAUSTIVE SEARCH): all most-general explanations.
  Result<std::vector<Explanation>> ExhaustiveMges(
      const Tuple& missing, const exec::ExecContext* exec = nullptr);

  /// The pruned-antichain variant (same result set).
  Result<std::vector<Explanation>> PrunedMges(
      const Tuple& missing, const exec::ExecContext* exec = nullptr);

  /// The degradation ladder over PrunedMges: a stop no longer aborts the
  /// request but walks down one rung at a time — (1) the exact antichain
  /// (Quality::kExact), (2) the deterministic partial prefix the
  /// interrupted search had confirmed (kLowerBound), (3) when the stop
  /// left nothing, one greedy hill-climbing explanation computed under a
  /// cancel-only grace context (kHeuristic). The certificate keeps the
  /// original stop reason; a cancelled request never takes rung 3 (the
  /// caller asked for no further work).
  Result<GradedMges> MgesWithDegradation(
      const Tuple& missing, const exec::ExecContext* exec = nullptr);

  /// EXISTENCE-OF-EXPLANATION; stores a witness when one exists.
  Result<bool> Exists(const Tuple& missing, Explanation* witness = nullptr,
                      const exec::ExecContext* exec = nullptr);

  /// Exact >card-maximal explanation (Section 6).
  Result<std::optional<CardinalityResult>> CardMaximal(
      const Tuple& missing, const exec::ExecContext* exec = nullptr);

  /// The greedy hill-climbing heuristic for the same preference.
  Result<std::optional<CardinalityResult>> GreedyCard(
      const Tuple& missing, const exec::ExecContext* exec = nullptr);

  /// CHECK-MGE w.r.t. the external ontology.
  Result<bool> CheckMge(const Tuple& missing, const Explanation& candidate,
                        const exec::ExecContext* exec = nullptr);

  /// All most-general *why*-explanations w.r.t. the external ontology.
  Result<std::vector<Explanation>> WhyMges(
      const Tuple& present, const exec::ExecContext* exec = nullptr);

  // Out-of-line: State is incomplete here (pimpl).
  ExplainSession(ExplainSession&&) noexcept;
  ExplainSession& operator=(ExplainSession&&) noexcept;
  ~ExplainSession();

 private:
  struct State;
  explicit ExplainSession(std::unique_ptr<State> state);

  /// Rebuilds the binding when the instance version moved since it was
  /// made (re-evaluating the query when the session owns one), then warms
  /// it; `exec` is observed by the extension warm-up.
  Status Refresh(const exec::ExecContext* exec = nullptr);
  /// Refresh, then validates the request tuple (missing ∉ Ans when
  /// `expect_answer` is false, present ∈ Ans otherwise).
  Status Prepare(const Tuple& tuple, bool expect_answer,
                 const exec::ExecContext* exec);

  std::unique_ptr<State> state_;
};

}  // namespace whynot::explain

#endif  // WHYNOT_EXPLAIN_SESSION_H_
