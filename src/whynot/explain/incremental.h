#ifndef WHYNOT_EXPLAIN_INCREMENTAL_H_
#define WHYNOT_EXPLAIN_INCREMENTAL_H_

#include "whynot/common/exec_control.h"
#include "whynot/common/status.h"
#include "whynot/concepts/concept_cache.h"
#include "whynot/concepts/lub.h"
#include "whynot/explain/binding.h"
#include "whynot/explain/explanation.h"

namespace whynot::explain {

struct IncrementalOptions {
  /// false: Algorithm 2 with selection-free lub (Lemma 5.1, Theorem 5.3 —
  /// PTIME). true: INCREMENTAL SEARCH WITH SELECTIONS using lubσ
  /// (Lemma 5.2, Theorem 5.4 — EXPTIME, PTIME for bounded schema arity).
  bool with_selections = false;

  /// After the lub-generalization sweep, additionally try generalizing
  /// each position to ⊤. The paper's pseudocode only generalizes over
  /// adom(I); when a column covers the whole active domain, ⊤ is still a
  /// strictly more general concept (its extension is all of Const), so
  /// this extra step is required for the output to be most general with
  /// respect to the full language LS, which contains ⊤. Disable to follow
  /// the paper's pseudocode to the letter.
  bool generalize_to_top = true;

  /// Optional execution control, observed once per generalization
  /// candidate (position, constant) in the fixed sweep order — the search
  /// is serial, so probe ordinals are trivially deterministic.
  const exec::ExecContext* exec = nullptr;

  /// When non-null, a stop returns OK with the tuple generalized so far —
  /// always a sound explanation (the nominal-pinned tuple is one and every
  /// accepted swap preserves that), but possibly not most general
  /// (Quality::kHeuristic) — and the certificate records the cut. When
  /// null, stops return the matching error status.
  exec::Certificate* cert = nullptr;
};

/// Algorithm 2 (INCREMENTAL SEARCH): computes one most-general explanation
/// for `missing` ∉ Ans w.r.t. the instance-derived ontology OI
/// (Section 5.2). Starts from the tuple of lub({a_j}) (the nominal-pinned,
/// most specific explanation, which always exists) and greedily grows each
/// position's support set by active-domain constants while the tuple
/// remains an explanation.
///
/// The sweep is serial and probes through the binding's serial overlay of
/// the shared concept cache, published on return, so repeated searches on
/// one binding hit warm lub/eval memos; results are bit-identical to a
/// fresh binding's.
Result<LsExplanation> IncrementalSearch(Binding& binding,
                                        const Tuple& missing,
                                        const IncrementalOptions& options = {});
/// One-shot form over a temporary binding of (wni.instance, wni.answers).
Result<LsExplanation> IncrementalSearch(const WhyNotInstance& wni,
                                        const IncrementalOptions& options = {});

}  // namespace whynot::explain

#endif  // WHYNOT_EXPLAIN_INCREMENTAL_H_
