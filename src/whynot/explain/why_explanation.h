#ifndef WHYNOT_EXPLAIN_WHY_EXPLANATION_H_
#define WHYNOT_EXPLAIN_WHY_EXPLANATION_H_

#include <vector>

#include "whynot/common/exec_control.h"
#include "whynot/common/status.h"
#include "whynot/concepts/concept_cache.h"
#include "whynot/concepts/lub.h"
#include "whynot/explain/binding.h"
#include "whynot/explain/exhaustive.h"
#include "whynot/explain/explanation.h"
#include "whynot/explain/incremental.h"
#include "whynot/explain/lattice.h"

namespace whynot::explain {

/// The paper's Section 7 sketches *why* explanations as future work: the
/// dual question "why IS the tuple a in q(I)?" answered at concept level.
/// We realize the natural dual of Definition 3.2: a tuple of concepts
/// (C1, ..., Cm) is a why-explanation for a ∈ q(I) iff
///
///   * aᵢ ∈ ext(Cᵢ, I) for every i, and
///   * ext(C1, I) × ... × ext(Cm, I) ⊆ q(I) — every tuple of the product
///     is an answer ("all European cities reach all European cities").
///
/// Most-general why-explanations are defined exactly as in Definition 3.3;
/// the same antichain machinery applies because only the second condition
/// changed (⊆ Ans instead of ∩ Ans = ∅).
struct WhyInstance {
  const rel::Instance* instance = nullptr;
  std::vector<Tuple> answers;  // q(I)
  Tuple present;               // a ∈ q(I)

  size_t arity() const { return present.size(); }
};

/// Builds a why instance; fails unless `present` ∈ q(I).
Result<WhyInstance> MakeWhyInstance(const rel::Instance* instance,
                                    const rel::UnionQuery& query,
                                    Tuple present);

/// Checks the dual Definition 3.2 above for `present` over the binding's
/// ontology.
Result<bool> IsWhyExplanation(Binding& binding, const Tuple& present,
                              const Explanation& e);
/// One-shot form over a temporary binding of (bound, wi.answers).
Result<bool> IsWhyExplanation(onto::BoundOntology* bound,
                              const WhyInstance& wi, const Explanation& e);

/// All most-general why-explanations, by the Algorithm 1 scheme (enumerate
/// candidates per position, keep product-inside-answers tuples, reduce to
/// the maximal antichain). Same complexity envelope as Theorem 5.2. The
/// containment condition is ≼-downward closed exactly like avoidance, so
/// the search dispatches through the same strategy machinery as
/// ExhaustiveSearchAllMge: every ExhaustiveOptions field keeps its
/// meaning there, and the frontier path returns the identical antichain.
/// With `options.cert`, a stop returns the deterministic partial antichain
/// (Quality::kLowerBound) instead of an error, and max_candidates becomes
/// a certified budget stop.
Result<std::vector<Explanation>> AllMostGeneralWhyExplanations(
    Binding& binding, const Tuple& present,
    const ExhaustiveOptions& options = {});
Result<std::vector<Explanation>> AllMostGeneralWhyExplanations(
    onto::BoundOntology* bound, const WhyInstance& wi,
    const ExhaustiveOptions& options = {});

// --- Why-explanations w.r.t. the derived ontology OI ----------------------

/// The dual Definition 3.2 against OI: every aᵢ ∈ ⟦Cᵢ⟧ᴵ and the extension
/// product is contained in the answers. A ⊤-valued position always fails
/// (infinite product vs. finite Ans), so — unlike the why-not case — no
/// ⊤-generalization sweep exists.
Result<bool> IsLsWhyExplanation(Binding& binding, const Tuple& present,
                                const LsExplanation& e);
bool IsLsWhyExplanation(const WhyInstance& wi, const LsExplanation& e);

/// Algorithm 2's scheme applied to the dual problem: start from the
/// nominal-pinned tuple (whose product is {a} ⊆ Ans) and greedily grow
/// each position's support with active-domain constants while the product
/// stays inside the answers. The "stays inside" condition is
/// downward-closed in the supports, so one sweep in fixed order yields a
/// most-general why-explanation w.r.t. OI (selection-free LS, or full LS
/// with `options.with_selections`). PTIME for selection-free LS by the
/// Theorem 5.3 argument (the product of a why-explanation has at most
/// |Ans| tuples, so every acceptance check is answer-bounded).
///
/// `options.exec`/`options.cert` follow the IncrementalOptions contract:
/// probes are per generalization candidate in the fixed sweep order; with
/// a certificate a stop returns the tuple generalized so far — a sound
/// why-explanation, possibly not most general (Quality::kHeuristic).
/// `generalize_to_top` is not read (no ⊤ sweep, see above). Probes run
/// through the binding's serial overlay, as in IncrementalSearch.
Result<LsExplanation> IncrementalWhySearch(
    Binding& binding, const Tuple& present,
    const IncrementalOptions& options = {});
Result<LsExplanation> IncrementalWhySearch(
    const WhyInstance& wi, const IncrementalOptions& options = {});

/// CHECK-MGE for the dual problem w.r.t. OI: no single-position
/// lub-generalization keeps the product inside the answers. The probes
/// run through the binding's shared concept cache (published-tier reads
/// during a sharded sweep, misses published at its serial end).
/// `options.exec` is observed once per candidate position (the same
/// serial points on the serial and sharded paths); the boolean verdict
/// admits no meaningful partial result, so a stop always returns the
/// matching error status. Only `with_selections` and `exec` are read.
Result<bool> CheckWhyMgeDerived(Binding& binding, const Tuple& present,
                                const LsExplanation& candidate,
                                const IncrementalOptions& options = {});
Result<bool> CheckWhyMgeDerived(const WhyInstance& wi,
                                const LsExplanation& candidate,
                                const IncrementalOptions& options = {});

}  // namespace whynot::explain

#endif  // WHYNOT_EXPLAIN_WHY_EXPLANATION_H_
