#ifndef WHYNOT_EXPLAIN_EXPLANATION_H_
#define WHYNOT_EXPLAIN_EXPLANATION_H_

#include <string>
#include <vector>

#include "whynot/common/status.h"
#include "whynot/concepts/ls_concept.h"
#include "whynot/concepts/ls_eval.h"
#include "whynot/explain/answer_cover.h"
#include "whynot/explain/binding.h"
#include "whynot/explain/whynot_instance.h"
#include "whynot/ontology/ontology.h"

namespace whynot::explain {

/// An explanation over a finite S-ontology: a tuple of concepts, one per
/// position of the missing tuple (Definition 3.2).
using Explanation = std::vector<onto::ConceptId>;

/// An explanation whose concepts are LS expressions (used with the derived
/// ontologies OI / OS of Section 4.2, which are not materialized).
using LsExplanation = std::vector<ls::LsConcept>;

/// Answers interned against a BoundOntology's value pool, for fast product
/// intersection tests.
std::vector<std::vector<ValueId>> InternAnswers(
    onto::BoundOntology* bound, const std::vector<Tuple>& answers);

/// True iff (ext(C1) × ... × ext(Cm)) ∩ Ans ≠ ∅ for the candidate tuple of
/// concepts (the second condition of Definition 3.2, negated).
bool ProductIntersectsAnswers(
    onto::BoundOntology* bound, const std::vector<onto::ConceptId>& concepts,
    const std::vector<std::vector<ValueId>>& interned_answers);

/// Checks Definition 3.2: every aᵢ ∈ ext(Cᵢ, I), and the extension product
/// avoids Ans.
Result<bool> IsExplanation(onto::BoundOntology* bound,
                           const WhyNotInstance& wni, const Explanation& e);

/// E ≤_O E' (Definition 3.3): pointwise subsumption.
bool LessGeneral(const onto::BoundOntology& bound, const Explanation& e,
                 const Explanation& other);

/// E <_O E': E ≤_O E' and E' ≰_O E.
bool StrictlyLessGeneral(const onto::BoundOntology& bound,
                         const Explanation& e, const Explanation& other);

/// "(EU-City, N.A.-City)".
std::string ExplanationToString(const onto::BoundOntology& bound,
                                const Explanation& e);

// --- LS-expression explanations (w.r.t. OI) -------------------------------

/// Definition 3.2 against the derived ontology OI: extensions are ⟦·⟧ᴵ.
bool IsLsExplanation(const WhyNotInstance& wni, const LsExplanation& e);

/// As above over a binding's extension memo and answer covers: the
/// answer-product condition is one word-parallel AND over cached cover
/// bitmaps.
Result<bool> IsLsExplanation(Binding& binding, const Tuple& missing,
                             const LsExplanation& e);

/// Pointwise ⊑_I.
bool LessGeneralI(const rel::Instance& instance, const LsExplanation& e,
                  const LsExplanation& other);

bool StrictlyLessGeneralI(const rel::Instance& instance,
                          const LsExplanation& e, const LsExplanation& other);

std::string LsExplanationToString(const rel::Schema& schema,
                                  const LsExplanation& e);

}  // namespace whynot::explain

#endif  // WHYNOT_EXPLAIN_EXPLANATION_H_
