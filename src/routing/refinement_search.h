// The Section 3.3 refinement search, one body for every walk (internal to
// src/routing). A walk supplies, for each position the search may visit,
// the index of the node's row among the rows searched and the node's
// children in search order:
//
//   using Pos = ...;                        // a position
//   static constexpr bool kLocal;           // local enumeration possible
//   Pos root() const;
//   std::size_t row(Pos) const;             // the row's index
//   bool is_leaf(Pos) const;
//   std::span<const SubscriptionId> local_subscribers(Pos) const;  // kLocal
//   template <class Visit> void for_each_child(Pos, Visit&&) const;
//
// compiled_annotation.cpp defines the kernel walk and the reach walk over a
// CompiledAnnotation's stored rows (built with POPCNT for their rank
// lookups); link_matcher.cpp defines the Pst walk over an AnnotatedPst's
// rows. Each walk is instantiated in its own file: a Pst-walk
// instantiation beside the other two made GCC stop inlining the kernel
// walk's search and the broker's dispatch ~25% slower (micro_bench
// BM_LinkDispatchCompiled).
#pragma once

#include <algorithm>
#include <array>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <vector>

#include "common/ids.h"
#include "matching/match_scratch.h"
#include "routing/compiled_annotation.h"
#include "routing/trit.h"

namespace gryphon::detail {

// The search's mask at a fixed plane width: a value the recursion passes
// and returns, so at W = 1 the two plane words travel in registers.
template <std::size_t kWords>
struct FixedMask {
  std::array<TritWord, 2 * kWords> planes;
  [[nodiscard]] TritWord* data() { return planes.data(); }
  [[nodiscard]] const TritWord* data() const { return planes.data(); }
};

// The search's mask at a run-time plane width: a handle to the mask's
// storage — the caller's output for the root, a per-level scratch word
// slot below it.
struct SlotMask {
  TritWord* planes;
  [[nodiscard]] TritWord* data() const { return planes; }
};

// The Section 3.3 search, one body for every walk. Walk supplies each
// position's row and children (KernelWalk, ReachWalk or PstWalk); all
// three list a node's children in one order — the `*` branch first or
// last as delayed_star says, the accepting general branches, then the
// equality branch — so over the same tree all give the same masks and
// step counts (one step per visited position). kWords fixes the plane
// width at compile time; 0 reads it from the link count. Plane is the
// stored row word (trit.h's "Row width"); a narrow row is widened into
// TritWords as it is read.
//
// The trees are trees, so the search reaches each node at most once and
// local matches need no "already collected" marks: a node's local
// subscribers are collected by the one call that visits it.
template <std::size_t kWords, class Plane, class Walk>
class RefinementSearch {
 public:
  using Mask = std::conditional_t<kWords == 0, SlotMask, FixedMask<kWords>>;
  using Pos = typename Walk::Pos;
  static_assert(std::is_same_v<Plane, TritWord> || kWords == 1,
                "narrow planes hold one-word rows only");

  RefinementSearch(Walk walk, const Plane* rows, std::size_t link_count, LinkIndex local_link,
                   MatchScratch& scratch, std::vector<SubscriptionId>* local_out)
      : walk_(walk),
        rows_(rows),
        link_count_(link_count),
        words_(trit_words(link_count)),
        scratch_(scratch),
        local_out_(local_out) {
    if (local_out != nullptr && local_link.valid()) {
      const auto l = static_cast<std::size_t>(local_link.value);
      local_word_ = l / kTritWordBits;
      local_bit_ = TritWord{1} << (l % kTritWordBits);
    }
  }

  /// Refines `mask` in place from the walk's root; returns the step count.
  std::uint64_t refine_from_root(MutablePackedTrits mask) {
    if constexpr (kWords != 0) {
      Mask root;
      std::copy_n(mask.data(), root.planes.size(), root.data());
      const Mask refined = run(walk_.root(), root, 0);
      std::copy_n(refined.data(), root.planes.size(), mask.data());
    } else {
      run(walk_.root(), Mask{mask.data()}, 0);
    }
    return steps_;
  }

 private:
  /// Refines `mask` below `pos` and returns it. Each subsearch gets its
  /// own copy of the current mask — by value at a fixed width, in the
  /// level's scratch word slot otherwise — so the search performs no
  /// per-event heap allocation (slot spans survive deeper claims; see
  /// dispatch_mask_slot).
  Mask run(Pos pos, Mask mask, std::size_t depth) {
    ++steps_;
    const std::size_t words = width();
    const Plane* const annotation = row(pos);
    // Step 2: refinement against this node's annotation.
    if constexpr (std::is_same_v<Plane, TritWord>) {
      packed::refine_with(mask.data(), annotation, words);
    } else {
      const std::array<TritWord, 2> wide{annotation[0], annotation[1]};
      packed::refine_with(mask.data(), wide.data(), 1);
    }
    // Local matches at or below this node are collected by this call.
    const bool local_here = wants_local(annotation);

    if (walk_.is_leaf(pos)) {
      if constexpr (Walk::kLocal) {
        if (local_here) {
          const auto subs = walk_.local_subscribers(pos);
          // gryphon-analyze: allow(alloc): local-match staging reuses the
          // Decision's capacity once the batch is warm.
          local_out_->insert(local_out_->end(), subs.begin(), subs.end());
        }
      }
      packed::maybes_to_no(mask.data(), words);
      return mask;
    }
    if (!packed::has_maybe(mask.data(), words) && !local_here) {
      return mask;  // nothing left to decide below
    }

    // Step 3: perform the test, subsearch each selected child that can
    // still contribute — a Maybe to resolve, or local matches to collect.
    walk_.for_each_child(pos, [&](Pos child) {
      if (!packed::has_maybe(mask.data(), words) && !(local_here && wants_local(row(child)))) {
        return;
      }
      const Mask result = run(child, child_copy(mask, depth), depth + 1);
      packed::promote_yes_from(mask.data(), result.data(), words);
    });

    packed::maybes_to_no(mask.data(), words);
    return mask;
  }

  [[nodiscard]] std::size_t width() const { return kWords != 0 ? kWords : words_; }

  /// The row of `pos` (2 * width() Plane words). A compiled walk only
  /// visits nodes whose row is stored (see "Stored rows").
  [[nodiscard]] const Plane* row(Pos pos) const { return rows_ + walk_.row(pos) * 2 * width(); }

  /// The mask a subsearch of a node at `depth` starts from.
  Mask child_copy(const Mask& mask, std::size_t depth) {
    if constexpr (kWords != 0) {
      return mask;
    } else {
      const MutablePackedTrits slot =
          dispatch_mask_slot(scratch_, kDispatchCallerSlots + depth, link_count_);
      std::copy_n(mask.data(), slot.size(), slot.data());
      return SlotMask{slot.data()};
    }
  }

  /// One bit test: the local-link trit of row `r` is not No. Always
  /// false without local enumeration (local_bit_ stays 0, and only a
  /// kernel walk has any).
  [[nodiscard]] bool wants_local(const Plane* r) const {
    if constexpr (!Walk::kLocal) return false;
    return ((TritWord{r[local_word_]} | TritWord{r[width() + local_word_]}) & local_bit_) != 0;
  }

  Walk walk_;
  const Plane* rows_;
  std::size_t link_count_;
  std::size_t words_;
  MatchScratch& scratch_;
  std::vector<SubscriptionId>* local_out_;
  std::size_t local_word_{0};
  TritWord local_bit_{0};
  std::uint64_t steps_{0};
};

// Runs the search over the rows of `rows` (a CompiledAnnotation or an
// AnnotatedPst) at the instantiation their stored row width picks: one per
// narrow plane word, and rows wider than 64 links take the run-time-width
// search.
template <class Rows, class Walk>
std::uint64_t run_search(const Rows& rows, Walk walk, LinkIndex local_link,
                         MatchScratch& scratch, std::vector<SubscriptionId>* local_out,
                         MutablePackedTrits out_mask) {
  const auto search = [&]<std::size_t kWords, class Plane>() {
    RefinementSearch<kWords, Plane, Walk> s(walk, rows.template planes<Plane>(),
                                            rows.link_count(), local_link, scratch, local_out);
    return s.refine_from_root(out_mask);
  };
  switch (rows.plane_bytes()) {
    case 1:
      return search.template operator()<1, std::uint8_t>();
    case 2:
      return search.template operator()<1, std::uint16_t>();
    case 4:
      return search.template operator()<1, std::uint32_t>();
    default:
      break;
  }
  if (rows.words() == 1) return search.template operator()<1, TritWord>();
  return search.template operator()<0, TritWord>();
}

// Checks that both packed masks have the width of `link_count` links and
// that the initialization mask sets no bit past it (such a bit would name
// a link the rows lack), then starts the refined mask as a copy of it.
inline void start_masks(const char* who, std::size_t link_count, PackedTrits initialization_mask,
                 MutablePackedTrits out_mask) {
  const std::size_t words = trit_words(link_count);
  const std::size_t tail = link_count % kTritWordBits;
  const TritWord past_width = tail == 0 ? 0 : ~TritWord{0} << tail;
  if (initialization_mask.size() != 2 * words || out_mask.size() != 2 * words ||
      ((initialization_mask[words - 1] | initialization_mask[2 * words - 1]) & past_width) != 0) {
    throw std::invalid_argument(std::string(who) + ": mask width != link count");
  }
  std::copy(initialization_mask.begin(), initialization_mask.end(), out_mask.begin());
}

}  // namespace gryphon::detail
