#ifndef WHYNOT_EXPLAIN_CARDINALITY_H_
#define WHYNOT_EXPLAIN_CARDINALITY_H_

#include <optional>

#include "whynot/common/status.h"
#include "whynot/explain/binding.h"
#include "whynot/explain/exhaustive.h"
#include "whynot/explain/existence.h"
#include "whynot/explain/explanation.h"

namespace whynot::explain {

/// The degree of generality of an explanation (Section 6, cardinality-based
/// preference): |ext(C1, I)| + ... + |ext(Cm, I)|, possibly infinite.
struct Degree {
  bool infinite = false;
  size_t finite = 0;

  bool operator>(const Degree& o) const {
    if (infinite != o.infinite) return infinite;
    return finite > o.finite;
  }
  bool operator==(const Degree& o) const {
    return infinite == o.infinite && (infinite || finite == o.finite);
  }
  std::string ToString() const {
    return infinite ? "inf" : std::to_string(finite);
  }
};

Degree DegreeOf(onto::BoundOntology* bound, const Explanation& e);

struct CardinalityResult {
  Explanation explanation;
  Degree degree;
};

/// A >card-maximal explanation by exhaustive enumeration of all
/// explanations (exponential; Proposition 6.4 shows no PTIME algorithm
/// exists unless P=NP, and no PTIME constant-factor approximation either).
/// Returns nullopt when no explanation exists. Among equal-degree
/// explanations the witness is the first, in the serial odometer's order,
/// that no other maximum-degree explanation strictly dominates — a
/// canonical choice both search strategies produce identically. The
/// frontier path additionally branch-and-bounds on the degree (a failing
/// product strictly beaten by the best passing degree prunes its whole
/// downset). Candidate lists containing an All-extension concept pin the
/// search to the odometer: the degree order compares finite parts even
/// between infinite degrees, which breaks the ≼-monotonicity the pruning
/// relies on.
Result<std::optional<CardinalityResult>> ExactCardMaximal(
    Binding& binding, const Tuple& missing,
    const ExhaustiveOptions& options = {});
/// One-shot form over a temporary binding of (bound, wni.answers).
Result<std::optional<CardinalityResult>> ExactCardMaximal(
    onto::BoundOntology* bound, const WhyNotInstance& wni,
    const ExhaustiveOptions& options = {});

/// Greedy hill-climbing heuristic: starts from any explanation (found by
/// ExistsExplanation with the default budget and strategy) and repeatedly
/// applies the single-position replacement that increases the degree
/// most. Fast, but only reaches a local optimum — the bench_cardinality
/// benchmark exhibits the approximation gap on set-cover-shaped families,
/// illustrating Proposition 6.4's inapproximability. Returns nullopt when
/// no explanation exists.
///
/// Only `options.exec` and `options.cert` are read. They follow the
/// engine-wide contract (ExhaustiveOptions): probes are per climb
/// candidate, and with a certificate a stop returns the current sound
/// explanation instead of an error. Greedy certificates are always
/// Quality::kHeuristic — complete() only says the climb converged to its
/// local optimum, never that the degree is maximal.
Result<std::optional<CardinalityResult>> GreedyCardinalityClimb(
    Binding& binding, const Tuple& missing,
    const ExistenceOptions& options = {});
Result<std::optional<CardinalityResult>> GreedyCardinalityClimb(
    onto::BoundOntology* bound, const WhyNotInstance& wni,
    const ExistenceOptions& options = {});

}  // namespace whynot::explain

#endif  // WHYNOT_EXPLAIN_CARDINALITY_H_
