#include "whynot/explain/explanation.h"

#include "whynot/common/strings.h"

namespace whynot::explain {

std::vector<std::vector<ValueId>> InternAnswers(
    onto::BoundOntology* bound, const std::vector<Tuple>& answers) {
  std::vector<std::vector<ValueId>> out;
  out.reserve(answers.size());
  for (const Tuple& t : answers) {
    std::vector<ValueId> ids;
    ids.reserve(t.size());
    for (const Value& v : t) ids.push_back(bound->pool().Intern(v));
    out.push_back(std::move(ids));
  }
  return out;
}

bool ProductIntersectsAnswers(
    onto::BoundOntology* bound, const std::vector<onto::ConceptId>& concepts,
    const std::vector<std::vector<ValueId>>& interned_answers) {
  for (const std::vector<ValueId>& ans : interned_answers) {
    bool inside = true;
    for (size_t i = 0; i < concepts.size() && inside; ++i) {
      inside = bound->Ext(concepts[i]).Contains(ans[i]);
    }
    if (inside) return true;
  }
  return false;
}

Result<bool> IsExplanation(onto::BoundOntology* bound,
                           const WhyNotInstance& wni, const Explanation& e) {
  if (e.size() != wni.arity()) {
    return Status::InvalidArgument(
        "explanation arity does not match the missing tuple");
  }
  for (size_t i = 0; i < e.size(); ++i) {
    ValueId id = bound->pool().Intern(wni.missing[i]);
    if (!bound->Ext(e[i]).Contains(id)) return false;
  }
  std::vector<std::vector<ValueId>> answers = InternAnswers(bound, wni.answers);
  return !ProductIntersectsAnswers(bound, e, answers);
}

bool LessGeneral(const onto::BoundOntology& bound, const Explanation& e,
                 const Explanation& other) {
  for (size_t i = 0; i < e.size(); ++i) {
    if (!bound.Subsumes(e[i], other[i])) return false;
  }
  return true;
}

bool StrictlyLessGeneral(const onto::BoundOntology& bound,
                         const Explanation& e, const Explanation& other) {
  return LessGeneral(bound, e, other) && !LessGeneral(bound, other, e);
}

std::string ExplanationToString(const onto::BoundOntology& bound,
                                const Explanation& e) {
  std::vector<std::string> parts;
  parts.reserve(e.size());
  for (onto::ConceptId c : e) parts.push_back(bound.ConceptName(c));
  return "(" + Join(parts, ", ") + ")";
}

namespace {

bool LsExplains(Binding& binding, const Tuple& missing,
                const LsExplanation& e) {
  if (e.size() != missing.size()) return false;
  const ValuePool& pool = binding.instance()->pool();
  std::vector<const ls::Extension*> exts;
  exts.reserve(e.size());
  for (size_t i = 0; i < e.size(); ++i) {
    const ls::Extension& ext = binding.eval_cache().Eval(e[i]);
    if (!ext.ContainsInterned(pool.Lookup(missing[i]), missing[i])) {
      return false;
    }
    exts.push_back(&ext);
  }
  return !binding.ls_covers().ProductIntersects(exts);
}

}  // namespace

Result<bool> IsLsExplanation(Binding& binding, const Tuple& missing,
                             const LsExplanation& e) {
  WHYNOT_RETURN_IF_ERROR(binding.Check(/*needs_ontology=*/false));
  return LsExplains(binding, missing, e);
}

bool IsLsExplanation(const WhyNotInstance& wni, const LsExplanation& e) {
  Binding binding(wni.instance, wni.answers);
  return LsExplains(binding, wni.missing, e);
}

bool LessGeneralI(const rel::Instance& instance, const LsExplanation& e,
                  const LsExplanation& other) {
  for (size_t i = 0; i < e.size(); ++i) {
    if (!ls::SubsumedI(e[i], other[i], instance)) return false;
  }
  return true;
}

bool StrictlyLessGeneralI(const rel::Instance& instance,
                          const LsExplanation& e, const LsExplanation& other) {
  return LessGeneralI(instance, e, other) && !LessGeneralI(instance, other, e);
}

std::string LsExplanationToString(const rel::Schema& schema,
                                  const LsExplanation& e) {
  std::vector<std::string> parts;
  parts.reserve(e.size());
  for (const ls::LsConcept& c : e) parts.push_back(c.ToString(&schema));
  return "(" + Join(parts, ",  ") + ")";
}

}  // namespace whynot::explain
