#ifndef WHYNOT_EXPLAIN_CHECK_MGE_H_
#define WHYNOT_EXPLAIN_CHECK_MGE_H_

#include "whynot/common/exec_control.h"
#include "whynot/common/status.h"
#include "whynot/concepts/concept_cache.h"
#include "whynot/concepts/lub.h"
#include "whynot/explain/binding.h"
#include "whynot/explain/exhaustive.h"
#include "whynot/explain/explanation.h"
#include "whynot/explain/incremental.h"

namespace whynot::explain {

/// CHECK-MGE (Definition 5.3, Theorem 5.1.1, PTIME): is the candidate a
/// most-general explanation for `missing` w.r.t. the binding's finite
/// ontology?
///
/// Method (as in the paper): first check it is an explanation; then, for
/// each position, try every strictly-more-general replacement concept — if
/// any replacement keeps the tuple an explanation, the candidate is not
/// most general. Single-position replacement is complete because a
/// pointwise-greater explanation stays an explanation when all other
/// positions are shrunk back.
/// Only `options.exec` is read: it is observed once per candidate
/// position, at the same serial point on the serial and sharded paths;
/// the boolean verdict admits no meaningful partial result, so a stop
/// always returns the matching error status.
Result<bool> CheckMgeExternal(Binding& binding, const Tuple& missing,
                              const Explanation& candidate,
                              const ExhaustiveOptions& options = {});
/// One-shot form over a temporary binding of (bound, wni.answers).
Result<bool> CheckMgeExternal(onto::BoundOntology* bound,
                              const WhyNotInstance& wni,
                              const Explanation& candidate,
                              const ExhaustiveOptions& options = {});

/// CHECK-MGE W.R.T. OI (Definition 5.7, Proposition 5.2): is the candidate
/// LS-explanation most general w.r.t. the instance-derived ontology OI?
///
/// Method (lines 4-11 of Algorithm 2 in reverse): for each position j and
/// each constant b ∈ adom(I) \ ext(Cj), replace Cj with
/// lub(ext(Cj,I) ∪ {b}); the candidate is an MGE iff no replacement (and no
/// generalization to ⊤) keeps the tuple an explanation. PTIME for
/// selection-free LS and for bounded schema arity, EXPTIME in general.
/// `options.with_selections` picks the lub flavor; the maximality probes
/// run through the binding's shared concept cache (published-tier lookups
/// during a sharded sweep, misses published at its serial end).
/// `options.exec` follows the CheckMgeExternal contract (one probe per
/// position, stops are always errors); no other field is read.
Result<bool> CheckMgeDerived(Binding& binding, const Tuple& missing,
                             const LsExplanation& candidate,
                             const IncrementalOptions& options = {});
/// One-shot form over a temporary binding of (wni.instance, wni.answers).
Result<bool> CheckMgeDerived(const WhyNotInstance& wni,
                             const LsExplanation& candidate,
                             const IncrementalOptions& options = {});

}  // namespace whynot::explain

#endif  // WHYNOT_EXPLAIN_CHECK_MGE_H_
