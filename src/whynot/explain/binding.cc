#include "whynot/explain/binding.h"

#include <algorithm>
#include <utility>

#include "whynot/common/algorithm.h"
#include "whynot/explain/explanation.h"

namespace whynot::explain {

Binding::Binding(const rel::Instance* instance, std::vector<Tuple> answers,
                 const onto::FiniteOntology* ontology, ls::LubOptions lub,
                 ls::ConceptCacheOptions concept_cache)
    : instance_(instance),
      version_(instance->version()),
      answers_(std::move(answers)),
      lub_options_(lub),
      cache_options_(concept_cache) {
  // Evaluated answer sets arrive sorted and unique; only sort otherwise.
  if (std::adjacent_find(answers_.begin(), answers_.end(),
                         [](const Tuple& a, const Tuple& b) {
                           return !(a < b);
                         }) != answers_.end()) {
    SortUnique(&answers_);
  }
  if (ontology != nullptr) {
    owned_bound_ = std::make_unique<onto::BoundOntology>(ontology, instance);
    bound_ = owned_bound_.get();
  }
}

Binding::Binding(onto::BoundOntology* bound, std::vector<Tuple> answers)
    : Binding(&bound->instance(), std::move(answers)) {
  bound_ = bound;
}

Status Binding::Check(bool needs_ontology) const {
  if (instance_->version() != version_) {
    return Status::FailedPrecondition(
        "the instance changed after the binding was made; bind again");
  }
  if (needs_ontology && bound_ == nullptr) {
    return Status::Unsupported(
        "the binding has no external ontology; only derived-ontology (OI) "
        "searches are available");
  }
  return Status::OK();
}

Status Binding::Warm(const exec::ExecContext* exec) {
  instance_->WarmForConcurrentReads();
  return bound_ == nullptr ? Status::OK() : bound_->WarmExtensions(exec);
}

ConceptAnswerCovers& Binding::covers() {
  if (!covers_.has_value()) covers_.emplace(bound_, InternAnswers(bound_, answers_));
  return *covers_;
}

LatticeHandle& Binding::lattice() {
  if (!lattice_.has_value()) lattice_.emplace(bound_);
  return *lattice_;
}

ls::LubContext& Binding::lub() {
  if (!lub_.has_value()) lub_.emplace(instance_, lub_options_);
  return *lub_;
}

ls::EvalCache& Binding::eval_cache() {
  if (!eval_cache_.has_value()) eval_cache_.emplace(instance_);
  return *eval_cache_;
}

LsAnswerCovers& Binding::ls_covers() {
  if (!ls_covers_.has_value()) ls_covers_.emplace(instance_, &answers_);
  return *ls_covers_;
}

ls::ConceptCache& Binding::concept_cache() {
  if (!concept_cache_.has_value()) {
    concept_cache_.emplace(instance_, cache_options_);
  }
  return *concept_cache_;
}

ls::ConceptCacheOverlay& Binding::serial_overlay(bool with_selections) {
  std::optional<ls::ConceptCacheOverlay>& overlay = overlays_[with_selections];
  if (!overlay.has_value()) {
    overlay.emplace(&concept_cache(), with_selections, &lub(), &eval_cache());
  }
  return *overlay;
}

}  // namespace whynot::explain
