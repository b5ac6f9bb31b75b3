#ifndef WHYNOT_EXPLAIN_LATTICE_H_
#define WHYNOT_EXPLAIN_LATTICE_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "whynot/explain/candidate_space.h"
#include "whynot/ontology/ontology.h"
#include "whynot/ontology/preorder.h"

namespace whynot::explain {

/// Which enumeration path serves a candidate-product search.
enum class SearchStrategy {
  /// The serial-order odometer while the product fits the candidate
  /// budget; the dominance-pruned frontier (LatticeFilterSpace) when it
  /// does not *and* the binding is consistent (Definition 3.1) — the only
  /// regime where the pruned walk is provably bit-identical to the
  /// odometer. Over-budget inconsistent bindings keep the odometer's
  /// ResourceExhausted report.
  kAuto,
  /// Always the full-product odometer (ParallelFilterSpace).
  kOdometer,
  /// Always the dominance-pruned frontier. On an inconsistent binding
  /// maximality is judged under the effective order (⊑ ∩ ext-inclusion),
  /// which can differ from the odometer's pure-⊑ antichain there.
  kLattice,
};

/// Counters of one dominance-pruned frontier enumeration
/// (LatticeFilterSpace). `products_enumerated` counts candidates whose
/// avoidance/containment predicate actually ran; `products_skipped` is the
/// rest of the raw product (SIZE_MAX when the product overflows a word);
/// `downset_hits` counts generated candidates discarded because a kept
/// survivor's downset already covers them; `waves` is the number of
/// frontier generations walked.
struct PruneStats {
  size_t products_enumerated = 0;
  size_t products_skipped = 0;
  size_t downset_hits = 0;
  size_t waves = 0;
};

/// Accumulates one enumeration's counters into a running total
/// (products_skipped saturates at SIZE_MAX, its overflow sentinel).
inline void AccumulatePruneStats(PruneStats* into, const PruneStats& from) {
  into->products_enumerated += from.products_enumerated;
  into->downset_hits += from.downset_hits;
  into->waves += from.waves;
  into->products_skipped =
      from.products_skipped == SIZE_MAX ||
              SIZE_MAX - into->products_skipped < from.products_skipped
          ? SIZE_MAX
          : into->products_skipped + from.products_skipped;
}

/// The subsumption lattice of one BoundOntology, in concept-id space: the
/// reflexive-transitive ⊑ rows intersected with extension inclusion (the
/// *effective* order ≼), plus its strict upset/downset row bitmaps and the
/// topological rank of every concept.
///
/// Why ≼ and not plain ⊑: candidate lists C(a) = ConceptsContaining(a) are
/// upward closed under ≼ *unconditionally* (ext(C) ⊆ ext(D) preserves
/// membership of a), and both search predicates — "product avoids Ans" and
/// the why dual's "product ⊆ Ans" — are downward closed along ≼ because
/// they only read the extension product. Under Definition 3.1 consistency
/// ⊑ implies ext-inclusion, so ≼ coincides with ⊑ (`consistent()` reports
/// exactly that, as a free byproduct of the build) and frontier results
/// match the pure-⊑ odometer bit for bit.
///
/// The build is two row-parallel O(n²) passes over warm extensions
/// (subsumption probes gate the word-parallel SubsetOf tests), which is
/// why sessions hold the lattice behind a lazy LatticeHandle instead of
/// paying for it at Bind time.
class ConceptLattice {
 public:
  explicit ConceptLattice(onto::BoundOntology* bound);

  int32_t num_concepts() const { return n_; }

  /// Definition 3.1 consistency of the binding: every ontology pair
  /// c ⊑ d satisfied ext(c) ⊆ ext(d) during the build.
  bool consistent() const { return consistent_; }

  /// a ≼ b: a ⊑ b and ext(a) ⊆ ext(b). Reflexive.
  bool Leq(onto::ConceptId a, onto::ConceptId b) const {
    return leq_.Get(a, b);
  }
  /// a ≺ b: a ≼ b and not b ≼ a.
  bool StrictlyBelow(onto::ConceptId a, onto::ConceptId b) const {
    return strict_down_.Get(b, a);
  }

  /// Row bitmap of {d : d ≺ c} — the strict downset of c.
  const uint64_t* StrictDownWords(onto::ConceptId c) const {
    return strict_down_.RowWords(c);
  }
  /// Row bitmap of {d : c ≺ d} — the strict upset of c.
  const uint64_t* StrictUpWords(onto::ConceptId c) const {
    return strict_up_.RowWords(c);
  }
  size_t words_per_row() const { return leq_.words_per_row(); }

  /// Longest strict ≼-chain above c (0 for ≼-maximal concepts);
  /// equivalent concepts share a rank.
  int32_t rank(onto::ConceptId c) const {
    return ranks_[static_cast<size_t>(c)];
  }
  /// max rank + 1 — the number of frontier levels of the whole lattice
  /// (0 for an empty ontology). Surfaced in benchmark context.
  size_t depth() const { return depth_; }

  /// The ≼-maximal elements of `list` (the frontier tops of one query
  /// position), as indices into `list`, in list order.
  std::vector<uint32_t> MaximalOf(
      const std::vector<onto::ConceptId>& list) const;
  /// The ≼-minimal elements of `list`. Restricting a candidate list to
  /// them preserves the *existence* boolean unconditionally: any
  /// explanation is ≽ one built from list-minimal concepts, whose
  /// extension product is componentwise smaller and therefore still
  /// avoids Ans.
  std::vector<onto::ConceptId> MinimalOf(
      const std::vector<onto::ConceptId>& list) const;

 private:
  int32_t n_;
  bool consistent_ = true;
  size_t depth_ = 0;
  onto::BoolMatrix leq_;          // leq_(a, b) = a ≼ b
  onto::BoolMatrix strict_up_;    // strict_up_(a, b) = a ≺ b
  onto::BoolMatrix strict_down_;  // strict_down_(a, b) = b ≺ a
  std::vector<int32_t> ranks_;
};

/// Lazily-built ConceptLattice shared across searches over one Binding:
/// repeated over-budget requests reuse the matrices, and the lattice is
/// built only when a search actually escalates to the frontier path —
/// in-budget traffic never pays for it.
class LatticeHandle {
 public:
  explicit LatticeHandle(onto::BoundOntology* bound) : bound_(bound) {}

  /// Builds on first call (warms the bound extensions), then caches.
  const ConceptLattice& Get() {
    if (lattice_ == nullptr) {
      lattice_ = std::make_unique<ConceptLattice>(bound_);
    }
    return *lattice_;
  }

 private:
  onto::BoundOntology* bound_;
  std::unique_ptr<ConceptLattice> lattice_;
};

/// Resolution of a SearchStrategy for one concrete candidate space.
struct LatticeChoice {
  bool use_lattice = false;
  const ConceptLattice* lattice = nullptr;  // set iff use_lattice
};

/// Applies the strategy semantics documented on SearchStrategy; builds
/// the lattice behind `handle` only when the choice needs it.
LatticeChoice ChooseStrategy(SearchStrategy strategy,
                             const CandidateSpace& space,
                             size_t max_candidates, LatticeHandle& handle);

}  // namespace whynot::explain

#endif  // WHYNOT_EXPLAIN_LATTICE_H_
