// Per-thread scratch state for matching against frozen (immutable) search
// structures.
//
// The compiled kernel (CompiledPst) keeps per-event node visit stamps. They
// live here rather than inside the kernel as `mutable` members, which would
// make even const matching single-threaded: each matching thread owns one
// MatchScratch and passes it down through CompiledPst::match /
// BrokerCore::dispatch, so any number of threads can match against one
// shared snapshot concurrently with zero synchronization.
//
// One MatchScratch may be reused across different kernels and events:
// stamps are versioned, so "visited" marks from a previous match (or a
// previous kernel) can never leak into the current one.
//
// The scratch also owns the other per-dispatch buffers the compiled kernel
// needs — the resolved equality-key vector, the factoring key, the DFS
// node stack, and the dispatch search's per-level packed trit masks — so a warm
// dispatch performs no heap allocation at all (enforced by gryphon-analyze
// rule 3 over everything reachable from BrokerCore::dispatch).
#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

#include "event/value.h"

namespace gryphon {

class MatchScratch {
 public:
  /// Starts a new match over a structure with `node_count` nodes. After this
  /// call every node reads as unvisited.
  void begin(std::size_t node_count) {
    // gryphon-analyze: allow(alloc): stamp array grows to the largest graph
    // seen, then every later begin() reuses it.
    if (stamps_.size() < node_count) stamps_.resize(node_count, 0);
    if (++current_ == 0) {  // stamp wrapped: reset the whole array once
      std::fill(stamps_.begin(), stamps_.end(), 0);
      current_ = 1;
    }
  }

  /// Marks `node` visited; returns true when it was NOT yet visited in the
  /// current match (i.e. the caller should expand it).
  bool visit(std::size_t node) {
    if (stamps_[node] == current_) return false;
    stamps_[node] = current_;
    return true;
  }

  /// True when `node` was already visited in the current match.
  [[nodiscard]] bool visited(std::size_t node) const { return stamps_[node] == current_; }

  /// Resolved per-level equality keys (CompiledPst::resolve output).
  [[nodiscard]] std::vector<std::uint64_t>& value_keys() { return value_keys_; }

  /// Reusable factoring key (FactoringIndex::event_key_into output). Values
  /// are assigned element-wise, so string capacity is reused across events.
  [[nodiscard]] std::vector<Value>& factoring_key() { return factoring_key_; }

  /// Reusable DFS stack for the compiled kernel's iterative walk.
  [[nodiscard]] std::vector<std::int32_t>& node_stack() { return node_stack_; }

  /// Indexed reusable word buffers — the compiled dispatch search keeps
  /// its callers' accumulators and, for masks wider than one word per
  /// plane, one packed trit mask per recursion level here (slot layout
  /// defined in routing/compiled_annotation.h), so a warm dispatch never
  /// allocates. Growing the slot table moves the inner vectors but never
  /// their heap blocks, so spans taken over a slot's data survive later
  /// claims.
  [[nodiscard]] std::vector<std::uint64_t>& word_slot(std::size_t slot) {
    if (slot >= word_slots_.size()) {
      // gryphon-analyze: allow(alloc): cold-path arena growth, bounded by
      // the deepest kernel level order; warm dispatches reuse every slot.
      word_slots_.resize(slot + 1);
    }
    return word_slots_[slot];
  }

 private:
  std::vector<std::uint32_t> stamps_;
  std::uint32_t current_{0};
  std::vector<std::uint64_t> value_keys_;
  std::vector<Value> factoring_key_;
  std::vector<std::int32_t> node_stack_;
  std::vector<std::vector<std::uint64_t>> word_slots_;
};

/// The calling thread's lazily-created scratch, for convenience overloads
/// that do not thread an explicit MatchScratch through. Hot multi-threaded
/// paths (broker match workers, benchmarks) should own their scratch
/// explicitly instead of paying the thread-local lookup per match.
inline MatchScratch& thread_match_scratch() {
  thread_local MatchScratch scratch;
  return scratch;
}

}  // namespace gryphon
