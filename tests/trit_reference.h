// A byte-form reference for link matching (paper Sections 3.1 and 3.3),
// written for the tests and sharing no code with src/routing. A trit
// vector is a string of 'Y', 'M' and 'N', one character per link; every
// annotation row is recomputed recursively from the Pst, with no
// maintenance; and the search is the Section 3.3 recursion over those
// rows, honouring the tree's trivial-test elimination and delayed-star
// options. pack() and unpack() convert to and from the bit-plane masks
// src/routing searches with (Yes words, then Maybe words, 64 links per
// word), so the tests can compare the two.
#pragma once

#include <cstdint>
#include <functional>
#include <span>
#include <stdexcept>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "common/ids.h"
#include "common/rng.h"
#include "event/event.h"
#include "matching/pst.h"

namespace gryphon::reference {

/// One trit per link: 'Y', 'M' or 'N'.
using Trits = std::string;

/// Figure 4's Alternative Combine.
inline char alternative(char a, char b) { return a == b ? a : 'M'; }
/// Figure 4's Parallel Combine: the most liberal trit, No < Maybe < Yes.
inline char parallel(char a, char b) {
  if (a == 'Y' || b == 'Y') return 'Y';
  return a == 'M' || b == 'M' ? 'M' : 'N';
}

inline std::size_t plane_words(std::size_t width) { return (width + 63) / 64; }

/// The bit-plane form of `trits`. Throws std::invalid_argument on a
/// character other than Y, M and N.
inline std::vector<std::uint64_t> pack(std::string_view trits) {
  const std::size_t words = plane_words(trits.size());
  std::vector<std::uint64_t> out(2 * words, 0);
  for (std::size_t i = 0; i < trits.size(); ++i) {
    const std::uint64_t bit = std::uint64_t{1} << (i % 64);
    switch (trits[i]) {
      case 'Y': out[i / 64] |= bit; break;
      case 'M': out[words + i / 64] |= bit; break;
      case 'N': break;
      default: throw std::invalid_argument("reference::pack: bad trit character");
    }
  }
  return out;
}

/// The trits of a bit-plane mask of `width` links. Throws
/// std::invalid_argument when the mask has the wrong size, sets a link in
/// both planes, or sets a bit at or past `width`.
inline Trits unpack(std::span<const std::uint64_t> mask, std::size_t width) {
  const std::size_t words = plane_words(width);
  if (mask.size() != 2 * words) throw std::invalid_argument("reference::unpack: size mismatch");
  Trits out(width, 'N');
  for (std::size_t w = 0; w < words; ++w) {
    for (std::size_t b = 0; b < 64; ++b) {
      const std::size_t i = w * 64 + b;
      const bool yes = ((mask[w] >> b) & 1) != 0;
      const bool maybe = ((mask[words + w] >> b) & 1) != 0;
      if (!yes && !maybe) continue;
      if (i >= width || (yes && maybe)) {
        throw std::invalid_argument("reference::unpack: malformed planes");
      }
      out[i] = yes ? 'Y' : 'M';
    }
  }
  return out;
}

inline Trits random_trits(Rng& rng, std::size_t width) {
  Trits out(width, 'N');
  for (char& t : out) t = "NMY"[rng.below(3)];
  return out;
}

/// Every live node's annotation row, recomputed recursively from `tree`.
class Annotation {
 public:
  Annotation(const Pst& tree, std::size_t link_count,
             std::function<LinkIndex(SubscriptionId)> link_of)
      : tree_(tree), link_count_(link_count), link_of_(std::move(link_of)) {
    compute(tree.root());
  }

  [[nodiscard]] const Trits& row(Pst::NodeId n) const { return rows_.at(n); }
  /// Every live node's row, by node id.
  [[nodiscard]] const std::unordered_map<Pst::NodeId, Trits>& rows() const { return rows_; }

 private:
  const Trits& compute(Pst::NodeId n) {
    Trits row(link_count_, 'N');
    if (tree_.is_leaf(n)) {
      for (const SubscriptionId id : tree_.subscribers(n)) {
        row.at(static_cast<std::size_t>(link_of_(id).value)) = 'Y';
      }
      return rows_[n] = row;
    }
    // Value branches fold with Alternative Combine, starting from the
    // implicit all-No alternative unless they cover the whole domain.
    bool first = covers_domain(n);
    const auto fold = [&](Pst::NodeId child) {
      const Trits& other = compute(child);
      for (std::size_t l = 0; l < link_count_; ++l) {
        row[l] = first ? other[l] : alternative(row[l], other[l]);
      }
      first = false;
    };
    for (const auto& entry : tree_.eq_children(n)) fold(entry.second);
    for (const auto& entry : tree_.other_children(n)) fold(entry.second);
    if (tree_.star_child(n) != Pst::kNoNode) {
      const Trits& star = compute(tree_.star_child(n));
      for (std::size_t l = 0; l < link_count_; ++l) row[l] = parallel(row[l], star[l]);
    }
    return rows_[n] = row;
  }

  // Every value of the attribute's finite domain has an equality branch,
  // and there are no general branches.
  [[nodiscard]] bool covers_domain(Pst::NodeId n) const {
    if (!tree_.other_children(n).empty()) return false;
    const auto& domain = tree_.schema()
                             ->attribute(tree_.order()[static_cast<std::size_t>(tree_.level(n))])
                             .domain;
    if (domain.empty()) return false;
    for (const Value& v : domain) {
      bool found = false;
      for (const auto& entry : tree_.eq_children(n)) found = found || entry.first == v;
      if (!found) return false;
    }
    return true;
  }

  const Pst& tree_;
  std::size_t link_count_;
  std::function<LinkIndex(SubscriptionId)> link_of_;
  std::unordered_map<Pst::NodeId, Trits> rows_;
};

struct SearchResult {
  Trits mask;
  std::uint64_t steps{0};
};

/// The Section 3.3 search of `event` over `annotation` (rows of `tree`),
/// from initialization mask `init`.
inline SearchResult link_match(const Pst& tree, const Annotation& annotation, const Event& event,
                               const Trits& init) {
  const bool tte = tree.options().trivial_test_elimination;
  const bool delayed = tree.options().delayed_star;
  SearchResult result{init, 0};
  const auto has_maybe = [](const Trits& m) { return m.find('M') != Trits::npos; };
  if (!has_maybe(init)) return result;
  const std::function<void(Pst::NodeId, Trits&)> run = [&](Pst::NodeId n, Trits& mask) {
    // Trivial-test elimination: star-only chains test nothing.
    while (tte && !tree.is_leaf(n) && tree.eq_children(n).empty() &&
           tree.other_children(n).empty() && tree.star_child(n) != Pst::kNoNode) {
      n = tree.star_child(n);
    }
    ++result.steps;
    const Trits& row = annotation.row(n);
    for (std::size_t l = 0; l < mask.size(); ++l) {
      if (mask[l] == 'M') mask[l] = row[l];
    }
    if (!has_maybe(mask)) return;
    if (!tree.is_leaf(n)) {
      const Value& v = event.value(tree.order()[static_cast<std::size_t>(tree.level(n))]);
      const auto subsearch = [&](Pst::NodeId child) {
        if (!has_maybe(mask)) return;
        Trits sub = mask;
        run(child, sub);
        for (std::size_t l = 0; l < mask.size(); ++l) {
          if (mask[l] == 'M' && sub[l] == 'Y') mask[l] = 'Y';
        }
      };
      const Pst::NodeId star = tree.star_child(n);
      if (!delayed && star != Pst::kNoNode) subsearch(star);
      for (const auto& [test, child] : tree.other_children(n)) {
        if (test.accepts(v)) subsearch(child);
      }
      for (const auto& [value, child] : tree.eq_children(n)) {
        if (value == v) subsearch(child);
      }
      if (delayed && star != Pst::kNoNode) subsearch(star);
    }
    for (char& t : mask) {
      if (t == 'M') t = 'N';
    }
  };
  run(tree.root(), result.mask);
  return result;
}

}  // namespace gryphon::reference
