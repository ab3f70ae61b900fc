// Trits and trit vectors (paper Section 3).
//
// A trit is Yes / No / Maybe. Each broker annotates every PST node with a
// trit vector holding one trit per outgoing link: Yes — a search reaching
// this node is guaranteed to match a subscriber reachable through the link;
// No — it definitely will not; Maybe — further searching must decide.
//
// The two combine operators of Figure 4:
//   Alternative Combine — merges annotations of sibling value-branches
//     (mutually exclusive alternatives): the least specific result wins,
//     i.e. A(x, y) = x when x == y, Maybe otherwise.
//   Parallel Combine — merges the value-branch result with the `*` branch
//     (both searched in parallel): the most liberal result wins, i.e.
//     P = max under the order No < Maybe < Yes.
//
// One representation. Every trit vector — a search mask, and every
// annotation row of AnnotatedPst and CompiledAnnotation — is stored as bit
// planes: a vector of width n is W = trit_words(n) Yes words followed by W
// Maybe words, so every mask operation is a few word operations per 64
// links (the `packed` namespace below). The scalar Trit and its combines
// define what the word operations compute.
#pragma once

#include <algorithm>
#include <bit>
#include <cstdint>
#include <span>
#include <stdexcept>
#include <type_traits>
#include <variant>
#include <vector>

#include "common/ids.h"

namespace gryphon {

enum class Trit : std::uint8_t { No = 0, Maybe = 1, Yes = 2 };

constexpr Trit alternative_combine(Trit a, Trit b) noexcept {
  return a == b ? a : Trit::Maybe;
}

constexpr Trit parallel_combine(Trit a, Trit b) noexcept { return a > b ? a : b; }

// ---------------------------------------------------------------------------
// Bit-plane form.
//
// A packed mask of width n is 2W words, W = trit_words(n): words [0, W) are
// the Yes plane, words [W, 2W) the Maybe plane. A link set in neither plane
// is No; no link is set in both, and bits at or past n are clear in both.
// Per word, with y/m the planes of the mask being updated:
//   Alternative Combine:  y = y & o.y;    m = m | o.m | (y ^ o.y)
//   Parallel Combine:     y = y | o.y;    m = (m | o.m) & ~y
//   refine (step 2):      y |= m & a.y;   m &= a.m
//   promote (step 3):     p = m & s.y;    y |= p;  m &= ~p
//   maybes-to-no:         m = 0
// The kernels take raw word pointers and the plane width W, and are inline,
// so a search instantiated at a fixed W folds each loop to straight-line
// word operations.

using TritWord = std::uint64_t;
inline constexpr std::size_t kTritWordBits = 64;

/// Words per plane for a vector of `width` trits.
[[nodiscard]] constexpr std::size_t trit_words(std::size_t width) noexcept {
  return (width + kTritWordBits - 1) / kTritWordBits;
}

/// A packed mask (2W words: Yes plane, then Maybe plane).
using PackedTrits = std::span<const TritWord>;
using MutablePackedTrits = std::span<TritWord>;

// ---------------------------------------------------------------------------
// Row width.
//
// Annotation rows are the largest structure a routed tree carries besides
// the tree itself, and the simulator holds one set per broker. Real brokers
// have few links — 5 to 14 on the paper's Figure 6 network — so a 64-bit
// plane word would be mostly padding. When a row fits one word
// (link_count <= 64), each plane is stored in the narrowest of u8, u16, u32
// and u64 that holds link_count bits; wider rows keep W 64-bit words per
// plane. The width follows from the link count alone and is not an option.
// It changes storage only: the search widens a stored row into its 64-bit
// mask registers before refining, so masks and every refined mask and step
// count are the same at every width.

/// Stored rows, [row][plane][word], in the plane word the link count picks.
using PlaneArena = std::variant<std::vector<std::uint8_t>, std::vector<std::uint16_t>,
                                std::vector<std::uint32_t>, std::vector<TritWord>>;

/// An empty arena of the plane word "Row width" picks for `link_count`.
[[nodiscard]] inline PlaneArena plane_arena(std::size_t link_count) {
  if (link_count <= 8) return std::vector<std::uint8_t>{};
  if (link_count <= 16) return std::vector<std::uint16_t>{};
  if (link_count <= 32) return std::vector<std::uint32_t>{};
  return std::vector<TritWord>{};
}

/// Bytes per stored plane word of `arena`: 1, 2, 4 or 8.
[[nodiscard]] inline std::size_t plane_bytes(const PlaneArena& arena) {
  return std::visit([](const auto& planes) { return sizeof(planes.front()); }, arena);
}

/// Plane words per stored row: a narrow plane holds a one-word row, so a
/// constant width lets row copies and combines compile to a few word moves.
template <class Plane>
[[nodiscard]] constexpr std::size_t row_plane_words(std::size_t words) noexcept {
  return std::is_same_v<Plane, TritWord> ? words : 1;
}

namespace packed {

/// mask = Alternative(mask, other), trit by trit. The two combines take
/// any unsigned word type: masks are TritWord, and stored rows may be
/// narrower (see "Row width").
template <class Word>
inline void alternative_with(Word* mask, const Word* other, std::size_t words) noexcept {
  for (std::size_t w = 0; w < words; ++w) {
    const auto differ = static_cast<Word>(mask[w] ^ other[w]);
    mask[w] &= other[w];
    mask[words + w] |= static_cast<Word>(other[words + w] | differ);
  }
}

/// mask = Parallel(mask, other), trit by trit.
template <class Word>
inline void parallel_with(Word* mask, const Word* other, std::size_t words) noexcept {
  for (std::size_t w = 0; w < words; ++w) {
    mask[w] |= other[w];
    mask[words + w] = static_cast<Word>((mask[words + w] | other[words + w]) & ~mask[w]);
  }
}

/// Section 3.3 step 2: every Maybe in `mask` takes the annotation's trit.
inline void refine_with(TritWord* mask, const TritWord* annotation, std::size_t words) noexcept {
  for (std::size_t w = 0; w < words; ++w) {
    mask[w] |= mask[words + w] & annotation[w];
    mask[words + w] &= annotation[words + w];
  }
}

/// Step 3: every Maybe in `mask` with a Yes in the subsearch result
/// becomes Yes.
inline void promote_yes_from(TritWord* mask, const TritWord* subsearch_result,
                             std::size_t words) noexcept {
  for (std::size_t w = 0; w < words; ++w) {
    const TritWord promoted = mask[words + w] & subsearch_result[w];
    mask[w] |= promoted;
    mask[words + w] &= ~promoted;
  }
}

/// Step 3 epilogue: remaining Maybes become No.
inline void maybes_to_no(TritWord* mask, std::size_t words) noexcept {
  std::fill_n(mask + words, words, TritWord{0});
}

[[nodiscard]] inline bool has_maybe(const TritWord* mask, std::size_t words) noexcept {
  for (std::size_t w = 0; w < words; ++w) {
    if (mask[words + w] != 0) return true;
  }
  return false;
}

/// Sets trit `i` of `mask` to `t`.
inline void set(MutablePackedTrits mask, std::size_t i, Trit t) noexcept {
  const std::size_t words = mask.size() / 2;
  const TritWord bit = TritWord{1} << (i % kTritWordBits);
  TritWord& yes = mask[i / kTritWordBits];
  TritWord& maybe = mask[words + i / kTritWordBits];
  yes = t == Trit::Yes ? yes | bit : yes & ~bit;
  maybe = t == Trit::Maybe ? maybe | bit : maybe & ~bit;
}

/// Calls `fn(i)` for every Yes position i of `mask`, in increasing order.
template <class Fn>
void for_each_yes(PackedTrits mask, Fn&& fn) {
  const std::size_t words = mask.size() / 2;
  for (std::size_t w = 0; w < words; ++w) {
    for (TritWord bits = mask[w]; bits != 0; bits &= bits - 1) {
      fn(w * kTritWordBits + static_cast<std::size_t>(std::countr_zero(bits)));
    }
  }
}

/// Section 3.1's row of a leaf into `out` (2 * words Plane words): Yes at
/// the link of each of its subscribers, No elsewhere. `for_each_link(set)`
/// calls set(link) once per subscriber. Throws std::logic_error for a link
/// outside [0, link_count).
template <class Plane, class ForEachLink>
void fold_leaf(Plane* out, std::size_t words, std::size_t link_count,
               ForEachLink&& for_each_link) {
  constexpr std::size_t kPlaneBits = 8 * sizeof(Plane);
  std::fill_n(out, 2 * words, Plane{0});
  for_each_link([&](LinkIndex link) {
    if (!link.valid() || static_cast<std::size_t>(link.value) >= link_count) {
      throw std::logic_error("annotation: subscription resolved to a bad link");
    }
    const auto l = static_cast<std::size_t>(link.value);
    out[l / kPlaneBits] |= static_cast<Plane>(Plane{1} << (l % kPlaneBits));  // Yes plane
  });
}

/// Section 3.1's row of an interior node into `out` (2 * words Plane
/// words): the rows of its non-star branches Alternative-combined, seeded
/// with the implicit all-No alternative (event values with no branch)
/// unless the equality branches cover the attribute's whole finite domain,
/// then Parallel-combined with the `*` branch's row (`star`; null when the
/// node has none). `for_each_branch(fold)` calls fold(row) once per
/// non-star branch. A node with no branches at all gets an all-No row.
///
/// General branches (range and not-equals tests) join the Alternative
/// combine like equality branches; a node holding one never covers its
/// domain, so the implicit all-No alternative is always folded in with
/// them. That is the sound conservative generalization of the paper's
/// equality-only annotation: such a branch can make a row Maybe (search
/// deeper) or No (prune), never an unsound Yes — a Yes can then only come
/// from the `*` branch's Parallel combine.
template <class Plane, class ForEachBranch>
void fold_interior(Plane* out, std::size_t words, bool covers_domain,
                   ForEachBranch&& for_each_branch, const Plane* star) {
  std::fill_n(out, 2 * words, Plane{0});  // the implicit all-No alternative
  bool first = covers_domain;
  for_each_branch([&](const Plane* branch) {
    if (first) {
      std::copy_n(branch, 2 * words, out);
      first = false;
    } else {
      alternative_with(out, branch, words);
    }
  });
  if (star != nullptr) parallel_with(out, star, words);
}

}  // namespace packed

}  // namespace gryphon
