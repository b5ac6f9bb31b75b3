#include "whynot/explain/existence.h"

#include <algorithm>
#include <optional>
#include <set>

#include "whynot/explain/search_core.h"

namespace whynot::explain {

namespace {

/// Minimum AND work (candidates × words) at a node before the narrowing
/// sweep is worth sharding across the pool.
constexpr size_t kMinParallelAndWords = 4096;

/// Backtracking state: at position i with a bitmap of still-alive answers
/// (answers not yet excluded at any earlier position). An explanation
/// exists below this state iff every alive answer can be excluded at some
/// remaining position. Narrowing the alive set by a candidate concept is
/// one word-parallel AND with its answer-cover bitmap.
class Search {
 public:
  Search(Binding& binding, const Tuple& missing,
         const ExistenceOptions& options)
      : options_(options), covers_(&binding.covers()) {
    onto::BoundOntology* bound = binding.bound();
    m_ = missing.size();
    candidates_.resize(m_);
    for (size_t i = 0; i < m_; ++i) {
      ValueId id = bound->pool().Intern(missing[i]);
      candidates_[i] = bound->ConceptsContaining(id);
    }
    if (options.strategy == SearchStrategy::kLattice) {
      // Keep only ≼-minimal candidates per position: a minimal concept's
      // cover narrows the alive set at least as much as anything above
      // it, so an explanation exists iff one over minimal concepts does.
      // The restriction preserves per-position candidate order, so the
      // traversal stays deterministic — but the witness can differ from
      // the unrestricted backtracker's.
      const ConceptLattice& lat = binding.lattice().Get();
      for (size_t i = 0; i < m_; ++i) {
        candidates_[i] = lat.MinimalOf(candidates_[i]);
      }
    }
    chosen_.resize(m_);
  }

  Result<bool> Run(Explanation* witness) {
    for (const auto& list : candidates_) {
      if (list.empty()) {
        exec::FillCertificate(options_.cert, exec::Stop{}, exec::Progress{},
                              0);
        return false;
      }
    }
    // Parallel configuration: per-position cover tables are resolved
    // lazily on first descent into a position (an easy instance that
    // finds its witness in a few nodes should not pay for covers the
    // search never probes). The search itself (descent order,
    // memoization, node budget) is untouched — only the per-candidate
    // ANDs at a node run in parallel — so the traversal, the witness,
    // and the node counts are identical for every thread count.
    if (par::NumThreads() > 1) cover_table_.resize(m_);
    bool found = false;
    WHYNOT_RETURN_IF_ERROR(Descend(0, covers_->full_words(), &found));
    if (found && witness != nullptr) *witness = chosen_;
    if (options_.cert != nullptr) {
      // A stop and a found witness are mutually exclusive (descent
      // unwinds on either), so a witness is always definitive.
      exec::Stop stop = halted_.value_or(exec::Stop{});
      exec::Progress progress;
      progress.tested = halted_.has_value() ? halted_->at : nodes_;
      exec::FillCertificate(options_.cert, stop, progress, found ? 1 : 0);
    }
    return found;
  }

 private:
  static bool Any(const std::vector<uint64_t>& words) {
    for (uint64_t w : words) {
      if (w != 0) return true;
    }
    return false;
  }

  Status Descend(size_t pos, const std::vector<uint64_t>& alive,
                 bool* found) {
    if (*found || halted_.has_value()) return Status::OK();
    size_t probe = nodes_;  // 0-based node ordinal, thread-invariant
    if (++nodes_ > options_.max_nodes) {
      if (options_.cert == nullptr) {
        return Status::ResourceExhausted(
            "existence search exceeded max_nodes (the problem is "
            "NP-complete, Theorem 5.1.2)");
      }
      halted_ = exec::Stop{exec::StopReason::kBudget, options_.max_nodes};
      return Status::OK();
    }
    if (std::optional<exec::Stop> s = exec::Check(options_.exec, probe)) {
      if (options_.cert == nullptr) {
        return exec::StopStatus(*s, "existence search");
      }
      halted_ = *s;  // unwind the whole descent via the guard above
      return Status::OK();
    }
    if (pos == m_) {
      if (!Any(alive)) *found = true;
      return Status::OK();
    }
    // Memoize defeated (pos, alive) states.
    auto key = std::make_pair(pos, alive);
    if (defeated_.count(key) > 0) return Status::OK();

    const std::vector<onto::ConceptId>& cands = candidates_[pos];
    size_t nwords = alive.size();
    if (!cover_table_.empty() &&
        cands.size() * nwords >= kMinParallelAndWords) {
      // Shard the narrowing ANDs (the node's hot loop) over the candidate
      // list; recursion then consumes the per-candidate alive sets in the
      // exact serial order.
      if (cover_table_[pos].empty()) {
        // First descent into this position: resolve its covers serially
        // (Cover builds lazily; the sharded loop below must be read-only).
        cover_table_[pos] = CoverTable::ResolveList(covers_, cands, pos);
      }
      std::vector<std::vector<uint64_t>> nexts(cands.size());
      const std::vector<CoverView>& table = cover_table_[pos];
      size_t grain = std::max<size_t>(1, 2048 / std::max<size_t>(1, nwords));
      par::ParallelFor(cands.size(), grain, [&](size_t begin, size_t end) {
        for (size_t c = begin; c < end; ++c) {
          nexts[c].resize(nwords);
          const CoverView& cover = table[c];
          if (cover.hybrid != nullptr) {
            cover.hybrid->AndWith(alive.data(), nexts[c].data(), nwords);
          } else {
            for (size_t w = 0; w < nwords; ++w) {
              nexts[c][w] = alive[w] & cover.words[w];
            }
          }
        }
      });
      for (size_t c = 0; c < cands.size(); ++c) {
        chosen_[pos] = cands[c];
        WHYNOT_RETURN_IF_ERROR(Descend(pos + 1, nexts[c], found));
        // Release this candidate's alive set before recursing into the
        // next: otherwise the whole level's buffers stay live under the
        // entire subtree (O(|candidates| × words) instead of one level).
        std::vector<uint64_t>().swap(nexts[c]);
        if (*found || halted_.has_value()) return Status::OK();
      }
    } else {
      std::vector<uint64_t> next(nwords);
      for (onto::ConceptId c : cands) {
        CoverView cover = covers_->Cover(c, pos);
        if (cover.hybrid != nullptr) {
          cover.hybrid->AndWith(alive.data(), next.data(), nwords);
        } else {
          for (size_t w = 0; w < nwords; ++w) next[w] = alive[w] & cover.words[w];
        }
        chosen_[pos] = c;
        WHYNOT_RETURN_IF_ERROR(Descend(pos + 1, next, found));
        if (*found || halted_.has_value()) return Status::OK();
      }
    }
    defeated_.emplace(std::move(key));
    return Status::OK();
  }

  ExistenceOptions options_;
  size_t m_ = 0;
  std::vector<std::vector<onto::ConceptId>> candidates_;
  ConceptAnswerCovers* covers_;
  // Pre-resolved cover views per position (parallel runs only; empty
  // in the serial configuration, which keeps the lazy one-at-a-time path).
  std::vector<std::vector<CoverView>> cover_table_;
  Explanation chosen_;
  std::set<std::pair<size_t, std::vector<uint64_t>>> defeated_;
  size_t nodes_ = 0;
  std::optional<exec::Stop> halted_;
};

}  // namespace

Result<bool> ExistsExplanation(Binding& binding, const Tuple& missing,
                               const ExistenceOptions& options,
                               Explanation* witness) {
  WHYNOT_RETURN_IF_ERROR(binding.Check(/*needs_ontology=*/true));
  Search search(binding, missing, options);
  return search.Run(witness);
}

Result<bool> ExistsExplanation(onto::BoundOntology* bound,
                               const WhyNotInstance& wni,
                               Explanation* witness,
                               const ExistenceOptions& options) {
  Binding binding(bound, wni.answers);
  return ExistsExplanation(binding, wni.missing, options, witness);
}

}  // namespace whynot::explain
