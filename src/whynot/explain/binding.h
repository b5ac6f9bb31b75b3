#ifndef WHYNOT_EXPLAIN_BINDING_H_
#define WHYNOT_EXPLAIN_BINDING_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "whynot/common/status.h"
#include "whynot/common/value.h"
#include "whynot/concepts/concept_cache.h"
#include "whynot/concepts/lub.h"
#include "whynot/explain/answer_cover.h"
#include "whynot/explain/lattice.h"
#include "whynot/ontology/ontology.h"
#include "whynot/relational/instance.h"

namespace whynot::explain {

class ExplainSession;

/// The fixed part (I, Ans, O) of a why-not instance (Definition 5.1): the
/// instance, the answer set, and optionally a finite ontology bound to the
/// instance. Only the asked tuple varies between questions, so every
/// search takes (Binding&, tuple, options) and reuses the warm state held
/// here: the answer covers of both ontologies, the lazy concept lattice,
/// the lub context, the extension memo, the shared concept cache and the
/// serial searches' overlays.
///
/// Ans is sort-deduplicated once, at construction. Everything else is
/// built on first use, on the calling thread — searches resolve what they
/// need before any parallel stage starts — and memoizes pure functions of
/// (instance, Ans), so a reused binding returns exactly what a fresh one
/// does. The binding records Instance::version(); a search on a binding
/// whose instance changed since fails with FailedPrecondition.
///
/// Not copyable or movable: the caches hold pointers into the binding.
/// Single-threaded like the searches' serial parts.
class Binding {
 public:
  /// Binds `instance` and `answers`. With `ontology`, the binding owns a
  /// BoundOntology of it over `instance` for the external searches.
  /// `lub` limits the canonical-box enumeration of every lub this binding
  /// computes; `concept_cache` sizes the shared concept cache.
  Binding(const rel::Instance* instance, std::vector<Tuple> answers,
          const onto::FiniteOntology* ontology = nullptr,
          ls::LubOptions lub = {}, ls::ConceptCacheOptions concept_cache = {});
  /// Borrows an existing BoundOntology (it must outlive the binding); the
  /// instance is the one `bound` was made over.
  Binding(onto::BoundOntology* bound, std::vector<Tuple> answers);

  Binding(const Binding&) = delete;
  Binding& operator=(const Binding&) = delete;

  const rel::Instance* instance() const { return instance_; }
  /// Ans, sorted and duplicate-free.
  const std::vector<Tuple>& answers() const { return answers_; }
  /// The Instance::version() the binding was made at.
  uint64_t version() const { return version_; }
  /// Null without an ontology.
  onto::BoundOntology* bound() const { return bound_; }
  const ls::LubOptions& lub_options() const { return lub_options_; }

  /// OK iff the instance is unchanged since construction and, when
  /// `needs_ontology`, an ontology is bound. Every search calls it first.
  Status Check(bool needs_ontology) const;

  /// Warms for concurrent reads: the instance's lazy caches and, with an
  /// ontology, every concept extension (sharded; `exec` observed).
  Status Warm(const exec::ExecContext* exec = nullptr);

  // --- Lazily built warm state ---------------------------------------------

  /// Answer covers over the bound ontology (requires one). Ans being
  /// duplicate-free, the one table serves both the avoidance and the
  /// counting (why) form.
  ConceptAnswerCovers& covers();
  /// The lazy concept lattice over the bound ontology (requires one).
  LatticeHandle& lattice();
  ls::LubContext& lub();
  ls::EvalCache& eval_cache();
  /// Answer covers over the derived ontology, keyed by extension identity.
  LsAnswerCovers& ls_covers();
  ls::ConceptCache& concept_cache();
  /// The overlay of the serial searches, one per lub flavor: its private
  /// maps stay warm across the searches run on this binding.
  ls::ConceptCacheOverlay& serial_overlay(bool with_selections);

 private:
  friend class ExplainSession;  // memory and cache accounting

  const rel::Instance* instance_;
  uint64_t version_;
  std::vector<Tuple> answers_;
  ls::LubOptions lub_options_;
  ls::ConceptCacheOptions cache_options_;
  std::unique_ptr<onto::BoundOntology> owned_bound_;
  onto::BoundOntology* bound_ = nullptr;

  std::optional<ConceptAnswerCovers> covers_;
  std::optional<LatticeHandle> lattice_;
  std::optional<ls::LubContext> lub_;
  std::optional<ls::EvalCache> eval_cache_;
  std::optional<LsAnswerCovers> ls_covers_;
  std::optional<ls::ConceptCache> concept_cache_;
  std::optional<ls::ConceptCacheOverlay> overlays_[2];
};

}  // namespace whynot::explain

#endif  // WHYNOT_EXPLAIN_BINDING_H_
