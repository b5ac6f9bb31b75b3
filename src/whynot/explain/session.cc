#include "whynot/explain/session.h"

#include <algorithm>
#include <utility>

#include "whynot/relational/cq_eval.h"

namespace whynot::explain {

struct ExplainSession::State {
  const rel::Instance* instance = nullptr;
  const onto::FiniteOntology* ontology = nullptr;
  ExplainSessionOptions options;
  std::optional<rel::UnionQuery> query;  // set iff bound from a query
  std::unique_ptr<Binding> binding;
  bool warm = false;  // binding->Warm succeeded
  /// The binding version of the last successful warm-up; stays behind
  /// while a rebuilt binding's warm-up has not completed.
  uint64_t warmed_version = 0;
  /// Concept-cache traffic of the bindings replaced so far, so CacheStats()
  /// stays cumulative across rebuilds.
  ls::ConceptCacheStats retired_cache;

  /// Session-wide cancel flag, copied into every session-built request
  /// context so Cancel() from another thread reaches the request that is
  /// currently inside a search. Replaced wholesale by ResetCancel().
  exec::CancelToken cancel;
};

namespace {

/// The effective execution context of one request: an explicit caller
/// context wins verbatim (its own deadline, token, injector); otherwise
/// the session builds one from its default request deadline and its
/// cancel token. Always materialized — the per-probe cost of a default
/// context is one strided counter test.
exec::ExecContext MakeRequestExec(int64_t request_deadline_ms,
                                  const exec::CancelToken& cancel,
                                  const exec::ExecContext* exec) {
  if (exec != nullptr) return *exec;
  exec::ExecContext ctx;
  if (request_deadline_ms > 0) {
    ctx.deadline = exec::Deadline::After(request_deadline_ms);
  }
  ctx.cancel = cancel;
  return ctx;
}

void AddCacheStats(ls::ConceptCacheStats* into,
                   const ls::ConceptCacheStats& from) {
  into->shared_hits += from.shared_hits;
  into->local_hits += from.local_hits;
  into->misses += from.misses;
  into->publishes += from.publishes;
  into->evictions += from.evictions;
}

}  // namespace

ExplainSession::ExplainSession(std::unique_ptr<State> state)
    : state_(std::move(state)) {}

ExplainSession::ExplainSession(ExplainSession&&) noexcept = default;
ExplainSession& ExplainSession::operator=(ExplainSession&&) noexcept = default;
ExplainSession::~ExplainSession() = default;

Result<ExplainSession> ExplainSession::Bind(const rel::Instance* instance,
                                            rel::UnionQuery query,
                                            const onto::FiniteOntology* ontology,
                                            ExplainSessionOptions options) {
  auto state = std::make_unique<State>();
  state->instance = instance;
  state->ontology = ontology;
  state->options = std::move(options);
  state->query = std::move(query);
  ExplainSession session(std::move(state));
  WHYNOT_RETURN_IF_ERROR(session.Refresh());
  return session;
}

Result<ExplainSession> ExplainSession::BindWithAnswers(
    const rel::Instance* instance, std::vector<Tuple> answers,
    const onto::FiniteOntology* ontology, ExplainSessionOptions options) {
  for (const Tuple& t : answers) {
    if (t.size() != answers.front().size()) {
      return Status::InvalidArgument("answer tuples have mixed arities");
    }
  }
  auto state = std::make_unique<State>();
  state->instance = instance;
  state->ontology = ontology;
  state->options = std::move(options);
  state->binding = std::make_unique<Binding>(
      instance, std::move(answers), ontology, state->options.lub,
      state->options.concept_cache);
  ExplainSession session(std::move(state));
  WHYNOT_RETURN_IF_ERROR(session.Refresh());
  return session;
}

Status ExplainSession::Refresh(const exec::ExecContext* exec) {
  State& s = *state_;
  if (s.binding == nullptr || s.binding->version() != s.instance->version()) {
    std::vector<Tuple> answers;
    if (s.query.has_value()) {
      WHYNOT_ASSIGN_OR_RETURN(answers, rel::Evaluate(*s.query, *s.instance));
    } else {
      answers = s.binding->answers();
    }
    if (s.binding != nullptr && s.binding->concept_cache_.has_value()) {
      // Entries dropped with the old binding count as evictions.
      AddCacheStats(&s.retired_cache, s.binding->concept_cache_->stats());
      s.retired_cache.evictions += s.binding->concept_cache_->size();
    }
    s.binding.reset();
    s.binding = std::make_unique<Binding>(s.instance, std::move(answers),
                                          s.ontology, s.options.lub,
                                          s.options.concept_cache);
    s.warm = false;
  }
  if (!s.warm) {
    // A stop (or injected warm fault) leaves `warm` unset, so the next
    // request retries the warm-up from the extensions already cached.
    WHYNOT_RETURN_IF_ERROR(s.binding->Warm(exec));
    s.warm = true;
    s.warmed_version = s.binding->version();
  }
  return Status::OK();
}

Status ExplainSession::Prepare(const Tuple& tuple, bool expect_answer,
                               const exec::ExecContext* exec) {
  WHYNOT_RETURN_IF_ERROR(Refresh(exec));
  State& s = *state_;
  const std::vector<Tuple>& answers = s.binding->answers();
  if (s.query.has_value() && s.query->arity() != tuple.size()) {
    return Status::InvalidArgument(
        expect_answer ? "tuple arity does not match query arity"
                      : "missing tuple arity does not match query arity");
  }
  if (!s.query.has_value() && !answers.empty() &&
      answers.front().size() != tuple.size()) {
    return Status::InvalidArgument(
        "answer arity does not match missing tuple arity");
  }
  bool in_answers = std::binary_search(answers.begin(), answers.end(), tuple);
  if (expect_answer && !in_answers) {
    return Status::InvalidArgument(
        "tuple " + TupleToString(tuple) +
        " is not in the answer set; ask a why-not question instead");
  }
  if (!expect_answer && in_answers) {
    return Status::InvalidArgument("tuple " + TupleToString(tuple) +
                                   " is in the answer set; nothing to "
                                   "explain");
  }
  return Status::OK();
}

const std::vector<Tuple>& ExplainSession::answers() const {
  return state_->binding->answers();
}

bool ExplainSession::has_ontology() const {
  return state_->ontology != nullptr;
}

uint64_t ExplainSession::warmed_version() const {
  return state_->warmed_version;
}

onto::BoundOntology* ExplainSession::bound_ontology() {
  return state_->binding->bound();
}

void ExplainSession::Cancel() { state_->cancel.Cancel(); }

void ExplainSession::ResetCancel() { state_->cancel = exec::CancelToken(); }

Status ExplainSession::CheckConsistent() {
  WHYNOT_RETURN_IF_ERROR(Refresh());
  WHYNOT_RETURN_IF_ERROR(state_->binding->Check(/*needs_ontology=*/true));
  return state_->binding->bound()->CheckConsistent();
}

ExplainSession::MemoryStats ExplainSession::MemoryUsage() const {
  const Binding& b = *state_->binding;
  MemoryStats m;
  m.instance_bytes = b.instance()->MemoryBytes();
  size_t ext_dense_equivalent = 0;
  size_t cover_dense_equivalent = 0;
  if (b.bound() != nullptr) {
    onto::BoundOntology::MemoryStats es = b.bound()->ExtMemoryStats();
    m.ext_bytes = es.ext_bytes;
    ext_dense_equivalent = es.dense_equivalent_bytes;
    m.hybrid_ext_sets = es.hybrid_sets;
    m.dense_ext_sets = es.dense_sets;
  }
  if (b.covers_.has_value()) {
    m.cover_bytes += b.covers_->MemoryBytes();
    cover_dense_equivalent += b.covers_->DenseEquivalentBytes();
  }
  if (b.ls_covers_.has_value()) {
    m.cover_bytes += b.ls_covers_->MemoryBytes();
    cover_dense_equivalent += b.ls_covers_->DenseEquivalentBytes();
  }
  if (b.eval_cache_.has_value()) {
    m.eval_cache_bytes = b.eval_cache_->MemoryBytes();
  }
  if (b.concept_cache_.has_value()) {
    m.shared_cache_bytes = b.concept_cache_->MemoryBytes();
  }
  m.total_bytes = m.instance_bytes + m.ext_bytes + m.cover_bytes +
                  m.eval_cache_bytes + m.shared_cache_bytes;
  m.dense_equivalent_total_bytes = m.instance_bytes + ext_dense_equivalent +
                                   cover_dense_equivalent +
                                   m.eval_cache_bytes + m.shared_cache_bytes;
  return m;
}

ls::ConceptCacheStats ExplainSession::CacheStats() const {
  ls::ConceptCacheStats total = state_->retired_cache;
  const Binding& b = *state_->binding;
  if (b.concept_cache_.has_value()) {
    AddCacheStats(&total, b.concept_cache_->stats());
  }
  return total;
}

// --- Derived-ontology (OI) requests ---------------------------------------

Result<LsExplanation> ExplainSession::WhyNot(const Tuple& missing,
                                             const exec::ExecContext* exec) {
  State& s = *state_;
  exec::ExecContext ctx =
      MakeRequestExec(s.options.request_deadline_ms, s.cancel, exec);
  WHYNOT_RETURN_IF_ERROR(Prepare(missing, /*expect_answer=*/false, &ctx));
  IncrementalOptions opts = s.options.incremental;
  opts.exec = &ctx;
  return IncrementalSearch(*s.binding, missing, opts);
}

Result<std::vector<LsExplanation>> ExplainSession::EnumerateMges(
    const Tuple& missing, EnumerateStats* stats,
    const exec::ExecContext* exec) {
  State& s = *state_;
  exec::ExecContext ctx =
      MakeRequestExec(s.options.request_deadline_ms, s.cancel, exec);
  WHYNOT_RETURN_IF_ERROR(Prepare(missing, /*expect_answer=*/false, &ctx));
  EnumerateOptions opts = s.options.enumerate;
  opts.exec = &ctx;
  return EnumerateAllMges(*s.binding, missing, opts, stats);
}

Result<bool> ExplainSession::CheckMgeDerived(const Tuple& missing,
                                             const LsExplanation& candidate,
                                             const exec::ExecContext* exec) {
  State& s = *state_;
  exec::ExecContext ctx =
      MakeRequestExec(s.options.request_deadline_ms, s.cancel, exec);
  WHYNOT_RETURN_IF_ERROR(Prepare(missing, /*expect_answer=*/false, &ctx));
  IncrementalOptions opts = s.options.incremental;
  opts.exec = &ctx;
  return explain::CheckMgeDerived(*s.binding, missing, candidate, opts);
}

Result<LsExplanation> ExplainSession::Why(const Tuple& present,
                                          const exec::ExecContext* exec) {
  State& s = *state_;
  exec::ExecContext ctx =
      MakeRequestExec(s.options.request_deadline_ms, s.cancel, exec);
  WHYNOT_RETURN_IF_ERROR(Prepare(present, /*expect_answer=*/true, &ctx));
  IncrementalOptions opts;
  opts.with_selections = s.options.incremental.with_selections;
  opts.exec = &ctx;
  return IncrementalWhySearch(*s.binding, present, opts);
}

// --- External-ontology requests -------------------------------------------

Result<std::vector<Explanation>> ExplainSession::ExhaustiveMges(
    const Tuple& missing, const exec::ExecContext* exec) {
  State& s = *state_;
  exec::ExecContext ctx =
      MakeRequestExec(s.options.request_deadline_ms, s.cancel, exec);
  WHYNOT_RETURN_IF_ERROR(Prepare(missing, /*expect_answer=*/false, &ctx));
  ExhaustiveOptions opts = s.options.exhaustive;
  opts.exec = &ctx;
  return ExhaustiveSearchAllMge(*s.binding, missing, opts);
}

Result<std::vector<Explanation>> ExplainSession::PrunedMges(
    const Tuple& missing, const exec::ExecContext* exec) {
  State& s = *state_;
  exec::ExecContext ctx =
      MakeRequestExec(s.options.request_deadline_ms, s.cancel, exec);
  WHYNOT_RETURN_IF_ERROR(Prepare(missing, /*expect_answer=*/false, &ctx));
  ExhaustiveOptions opts = s.options.exhaustive;
  opts.exec = &ctx;
  return PrunedSearchAllMge(*s.binding, missing, opts);
}

Result<GradedMges> ExplainSession::MgesWithDegradation(
    const Tuple& missing, const exec::ExecContext* exec) {
  State& s = *state_;
  exec::ExecContext ctx =
      MakeRequestExec(s.options.request_deadline_ms, s.cancel, exec);
  WHYNOT_RETURN_IF_ERROR(Prepare(missing, /*expect_answer=*/false, &ctx));
  GradedMges graded;
  // Rung 1/2: the pruned exact search under the request context. With a
  // certificate attached a stop is not an error — the search returns the
  // deterministic prefix it had confirmed and records the cut.
  ExhaustiveOptions opts = s.options.exhaustive;
  opts.exec = &ctx;
  opts.cert = &graded.certificate;
  WHYNOT_ASSIGN_OR_RETURN(graded.explanations,
                          PrunedSearchAllMge(*s.binding, missing, opts));
  if (graded.certificate.complete() || !graded.explanations.empty()) {
    return graded;  // kExact, or a non-empty kLowerBound prefix
  }
  // Rung 3: the stop left nothing confirmed. A cancelled caller asked for
  // no further work; a deadline/budget stop buys one greedy explanation
  // under a cancel-only grace context (no deadline, no injector — the
  // original deadline is already spent).
  if (graded.certificate.stop == exec::StopReason::kCancelled) return graded;
  exec::ExecContext grace;
  grace.cancel = ctx.cancel;
  exec::Certificate greedy_cert;
  ExistenceOptions greedy;
  greedy.exec = &grace;
  greedy.cert = &greedy_cert;
  WHYNOT_ASSIGN_OR_RETURN(std::optional<CardinalityResult> one,
                          GreedyCardinalityClimb(*s.binding, missing, greedy));
  if (one.has_value()) {
    graded.explanations.push_back(std::move(one->explanation));
    graded.certificate.quality = exec::Quality::kHeuristic;
    graded.certificate.progress.best_so_far = 1;
  }
  // The certificate keeps the original stop reason: it explains why the
  // answer is not exact, not how the fallback itself ended.
  return graded;
}

Result<bool> ExplainSession::Exists(const Tuple& missing, Explanation* witness,
                                    const exec::ExecContext* exec) {
  State& s = *state_;
  exec::ExecContext ctx =
      MakeRequestExec(s.options.request_deadline_ms, s.cancel, exec);
  WHYNOT_RETURN_IF_ERROR(Prepare(missing, /*expect_answer=*/false, &ctx));
  ExistenceOptions opts = s.options.existence;
  opts.exec = &ctx;
  return ExistsExplanation(*s.binding, missing, opts, witness);
}

Result<std::optional<CardinalityResult>> ExplainSession::CardMaximal(
    const Tuple& missing, const exec::ExecContext* exec) {
  State& s = *state_;
  exec::ExecContext ctx =
      MakeRequestExec(s.options.request_deadline_ms, s.cancel, exec);
  WHYNOT_RETURN_IF_ERROR(Prepare(missing, /*expect_answer=*/false, &ctx));
  ExhaustiveOptions opts = s.options.exhaustive;
  opts.exec = &ctx;
  return ExactCardMaximal(*s.binding, missing, opts);
}

Result<std::optional<CardinalityResult>> ExplainSession::GreedyCard(
    const Tuple& missing, const exec::ExecContext* exec) {
  State& s = *state_;
  exec::ExecContext ctx =
      MakeRequestExec(s.options.request_deadline_ms, s.cancel, exec);
  WHYNOT_RETURN_IF_ERROR(Prepare(missing, /*expect_answer=*/false, &ctx));
  ExistenceOptions opts;
  opts.exec = &ctx;
  return GreedyCardinalityClimb(*s.binding, missing, opts);
}

Result<bool> ExplainSession::CheckMge(const Tuple& missing,
                                      const Explanation& candidate,
                                      const exec::ExecContext* exec) {
  State& s = *state_;
  exec::ExecContext ctx =
      MakeRequestExec(s.options.request_deadline_ms, s.cancel, exec);
  WHYNOT_RETURN_IF_ERROR(Prepare(missing, /*expect_answer=*/false, &ctx));
  ExhaustiveOptions opts;
  opts.exec = &ctx;
  return CheckMgeExternal(*s.binding, missing, candidate, opts);
}

Result<std::vector<Explanation>> ExplainSession::WhyMges(
    const Tuple& present, const exec::ExecContext* exec) {
  State& s = *state_;
  exec::ExecContext ctx =
      MakeRequestExec(s.options.request_deadline_ms, s.cancel, exec);
  WHYNOT_RETURN_IF_ERROR(Prepare(present, /*expect_answer=*/true, &ctx));
  ExhaustiveOptions opts = s.options.exhaustive;
  opts.exec = &ctx;
  return AllMostGeneralWhyExplanations(*s.binding, present, opts);
}

}  // namespace whynot::explain
