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
// Two representations. TritVector (and AnnotatedPst / link_match, which
// route churning trees and serve as the differential reference) stores one
// byte per link. The compiled dispatch search (routing/compiled_annotation.h)
// stores bit planes: a packed vector of width n is W = trit_words(n) Yes
// words followed by W Maybe words, so every mask operation is a few word
// operations per 64 links (the `packed` namespace below).
#pragma once

#include <algorithm>
#include <bit>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "common/ids.h"

namespace gryphon {

enum class Trit : std::uint8_t { No = 0, Maybe = 1, Yes = 2 };

/// Read-only view over a stored byte-form trit vector (AnnotatedPst rows).
using TritSpan = std::span<const Trit>;

/// Mutable view over a byte-form trit row owned elsewhere — link_match's
/// per-level masks (routing/link_matcher.cpp).
using MutableTritSpan = std::span<Trit>;

constexpr Trit alternative_combine(Trit a, Trit b) noexcept {
  return a == b ? a : Trit::Maybe;
}

constexpr Trit parallel_combine(Trit a, Trit b) noexcept { return a > b ? a : b; }

constexpr char to_char(Trit t) noexcept {
  return t == Trit::Yes ? 'Y' : (t == Trit::No ? 'N' : 'M');
}

/// Span forms of the byte-form mask operations, shared by TritVector and
/// link_match, which keeps its per-level masks in one reusable buffer
/// instead of TritVector temporaries. Size mismatches throw
/// std::invalid_argument, matching the TritVector methods.
void alternative_with(MutableTritSpan mask, TritSpan other);
void parallel_with(MutableTritSpan mask, TritSpan other);
/// Mask refinement (Section 3.3, step 2): every Maybe in `mask` is replaced
/// by the corresponding annotation trit.
void refine_with(MutableTritSpan mask, TritSpan annotation);
/// Subsearch merge (step 3): every Maybe in `mask` with a Yes in the
/// subsearch result becomes Yes.
void promote_yes_from(MutableTritSpan mask, TritSpan subsearch_result);
/// Step 3 epilogue: remaining Maybes become No.
void maybes_to_no(MutableTritSpan mask);
[[nodiscard]] bool has_maybe(TritSpan mask);

/// A fixed-width vector of trits, one per outgoing link of a broker.
class TritVector {
 public:
  TritVector() = default;
  explicit TritVector(std::size_t size, Trit fill = Trit::No) : trits_(size, fill) {}

  /// Parse from a string like "YMN" (test convenience).
  static TritVector from_string(std::string_view text);

  [[nodiscard]] std::size_t size() const { return trits_.size(); }
  [[nodiscard]] Trit at(std::size_t i) const { return trits_[i]; }
  void set(std::size_t i, Trit t) { trits_[i] = t; }
  [[nodiscard]] Trit at(LinkIndex link) const {
    return trits_[static_cast<std::size_t>(link.value)];
  }
  void set(LinkIndex link, Trit t) { trits_[static_cast<std::size_t>(link.value)] = t; }

  void fill(Trit t) { std::fill(trits_.begin(), trits_.end(), t); }

  [[nodiscard]] TritSpan span() const { return TritSpan(trits_); }
  [[nodiscard]] MutableTritSpan mutable_span() { return MutableTritSpan(trits_); }
  operator TritSpan() const { return span(); }

  /// this[i] = Alternative(this[i], other[i]).
  void alternative_with(TritSpan other);
  /// this[i] = Parallel(this[i], other[i]).
  void parallel_with(TritSpan other);

  /// Mask refinement (Section 3.3, step 2): every Maybe in this mask is
  /// replaced by the corresponding annotation trit.
  void refine_with(TritSpan annotation);

  /// Subsearch merge (step 3): every Maybe in this mask with a Yes in the
  /// returned subsearch mask becomes Yes.
  void promote_yes_from(const TritVector& subsearch_result);

  /// Step 3 epilogue: remaining Maybes become No.
  void maybes_to_no();

  [[nodiscard]] bool has_maybe() const;
  [[nodiscard]] bool any_yes() const;
  [[nodiscard]] std::size_t count(Trit t) const;

  /// Indices of Yes positions — the links to forward the event on.
  [[nodiscard]] std::vector<LinkIndex> yes_links() const;

  [[nodiscard]] std::string to_string() const;

  [[nodiscard]] bool equals(TritSpan other) const {
    return trits_.size() == other.size() &&
           std::equal(trits_.begin(), trits_.end(), other.begin());
  }

  friend bool operator==(const TritVector& a, const TritVector& b) {
    return a.trits_ == b.trits_;
  }
  friend bool operator!=(const TritVector& a, const TritVector& b) { return !(a == b); }

 private:
  std::vector<Trit> trits_;
};

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
using PackedTritSpan = std::span<const TritWord>;
using MutablePackedTritSpan = std::span<TritWord>;

namespace packed {

/// mask = Alternative(mask, other), trit by trit. The two combines take
/// any unsigned word type: masks are TritWord, and CompiledAnnotation also
/// folds its narrow stored rows (8-, 16- and 32-bit planes) with them.
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

/// Calls `fn(i)` for every Yes position i of `mask`, in increasing order.
template <class Fn>
void for_each_yes(PackedTritSpan mask, Fn&& fn) {
  const std::size_t words = mask.size() / 2;
  for (std::size_t w = 0; w < words; ++w) {
    for (TritWord bits = mask[w]; bits != 0; bits &= bits - 1) {
      fn(w * kTritWordBits + static_cast<std::size_t>(std::countr_zero(bits)));
    }
  }
}

/// The packed form of a byte-form vector (2 * trit_words(size) words).
[[nodiscard]] std::vector<TritWord> pack(TritSpan trits);
/// The first `width` trits of a packed mask, in byte form.
[[nodiscard]] TritVector unpack(PackedTritSpan mask, std::size_t width);

}  // namespace packed

}  // namespace gryphon
