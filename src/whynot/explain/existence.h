#ifndef WHYNOT_EXPLAIN_EXISTENCE_H_
#define WHYNOT_EXPLAIN_EXISTENCE_H_

#include <optional>

#include "whynot/common/exec_control.h"
#include "whynot/common/status.h"
#include "whynot/explain/binding.h"
#include "whynot/explain/explanation.h"
#include "whynot/explain/lattice.h"

namespace whynot::explain {

struct ExistenceOptions {
  /// Cap on backtracking search nodes (the problem is NP-complete in
  /// general, Theorem 5.1.2).
  size_t max_nodes = 50000000;
  /// kLattice restricts every position's candidate list to its ≼-minimal
  /// concepts before backtracking — sound for the existence *boolean*
  /// (an explanation using any concept dominates one using a ≼-minimal
  /// concept below it, and avoidance is ≼-downward closed), and often an
  /// exponential node-count cut on deep hierarchies. The witness may
  /// differ from the default's, which is why the default (kAuto, equal to
  /// kOdometer here) keeps the plain backtracker: one-shot callers pin
  /// its witness.
  SearchStrategy strategy = SearchStrategy::kAuto;
  /// Optional execution control, observed once per backtracking node (the
  /// traversal is thread-invariant, so node ordinals are too).
  const exec::ExecContext* exec = nullptr;
  /// When non-null, a stop returns OK(false) with the certificate filled
  /// (Quality::kLowerBound — no witness found within the covered nodes;
  /// existence is unresolved). A found witness is always definitive
  /// (kExact). When null, stops return the matching error status and the
  /// node budget keeps its historical ResourceExhausted.
  exec::Certificate* cert = nullptr;
};

/// EXISTENCE-OF-EXPLANATION (Definition 5.2): does any explanation for
/// `missing` ∉ Ans exist w.r.t. the binding's ontology? NP-complete in
/// general, even for bounded schema arity (Theorem 5.1.2); decided by
/// backtracking over positions with answer-set pruning and memoization of
/// defeated states. If `witness` is non-null and an explanation exists,
/// one is stored.
Result<bool> ExistsExplanation(Binding& binding, const Tuple& missing,
                               const ExistenceOptions& options,
                               Explanation* witness);
/// One-shot form over a temporary binding of (bound, wni.answers).
Result<bool> ExistsExplanation(onto::BoundOntology* bound,
                               const WhyNotInstance& wni,
                               Explanation* witness = nullptr,
                               const ExistenceOptions& options = {});

}  // namespace whynot::explain

#endif  // WHYNOT_EXPLAIN_EXISTENCE_H_
