#include "routing/compiled_annotation.h"

#include <algorithm>
#include <array>
#include <stdexcept>
#include <type_traits>

#include "event/event.h"

namespace gryphon {

CompiledAnnotation::CompiledAnnotation(const CompiledPst& kernel, std::size_t link_count,
                                       std::span<const std::uint32_t> owners,
                                       std::span<const std::vector<LinkIndex>> group_links,
                                       LinkIndex local_link)
    : kernel_(&kernel),
      link_count_(link_count),
      words_(trit_words(link_count)),
      group_count_(group_links.size()),
      node_count_(kernel.node_count()),
      local_link_(local_link) {
  if (link_count_ == 0) throw std::invalid_argument("CompiledAnnotation: zero links");
  if (group_count_ == 0) throw std::invalid_argument("CompiledAnnotation: zero groups");
  if (owners.size() != kernel.subscriber_arena().size()) {
    throw std::invalid_argument("CompiledAnnotation: owners do not match the kernel");
  }
  const std::uint32_t owner_bound =
      owners.empty() ? 0 : *std::max_element(owners.begin(), owners.end()) + 1;
  for (const std::vector<LinkIndex>& table : group_links) {
    if (table.size() < owner_bound) {
      throw std::invalid_argument("CompiledAnnotation: link table misses an owner");
    }
  }
  planes_.assign(group_count_ * node_count_ * 2 * words_, 0);
  local_slices_.assign(node_count_, {0, 0});

  // The shared local-subscriber arena: the local-link column never depends
  // on the spanning tree (every group maps the local owner to local_link),
  // so any group's table identifies the local subscribers.
  if (local_link_.valid()) {
    const std::vector<LinkIndex>& links = group_links.front();
    for (std::size_t i = 0; i < node_count_; ++i) {
      const auto n = static_cast<CompiledPst::NodeId>(i);
      if (!kernel.is_leaf(n)) continue;
      const auto begin = static_cast<std::uint32_t>(local_subs_.size());
      const std::size_t first = kernel.subscribers_begin(n);
      const auto subs = kernel.subscribers(n);
      for (std::size_t k = 0; k < subs.size(); ++k) {
        if (links[owners[first + k]] == local_link_) local_subs_.push_back(subs[k]);
      }
      local_slices_[i] = {begin, static_cast<std::uint32_t>(local_subs_.size()) - begin};
    }
  }

  const std::size_t row_words = 2 * words_;
  for (std::size_t g = 0; g < group_count_; ++g) {
    const LinkIndex* const links = group_links[g].data();
    const auto row_of = [&](CompiledPst::NodeId n) { return planes_.data() + row_offset(g, n); };

    // One forward pass over the bottom-up order computes every row in
    // place, with its children's rows already final. Rows start all-No.
    for (const CompiledPst::NodeId n : kernel.bottom_up_order()) {
      TritWord* const out = row_of(n);
      if (kernel.is_leaf(n)) {
        const std::size_t first = kernel.subscribers_begin(n);
        const std::size_t last = first + kernel.subscribers(n).size();
        for (std::size_t k = first; k < last; ++k) {
          const LinkIndex link = links[owners[k]];
          if (!link.valid() || static_cast<std::size_t>(link.value) >= link_count_) {
            throw std::logic_error("CompiledAnnotation: subscription resolved to a bad link");
          }
          const auto l = static_cast<std::size_t>(link.value);
          out[l / kTritWordBits] |= TritWord{1} << (l % kTritWordBits);  // Yes plane
        }
        continue;
      }
      // Alternative-combine the non-star branches, seeded with the implicit
      // all-No alternative (the row as it starts) unless the equality
      // branches cover the whole finite domain (flag precomputed at kernel
      // compile time; same soundness argument as AnnotatedPst).
      bool first = kernel.covers_domain(n);
      const auto fold = [&](CompiledPst::NodeId child) {
        const TritWord* const child_row = row_of(child);
        if (first) {
          std::copy_n(child_row, row_words, out);
          first = false;
        } else {
          packed::alternative_with(out, child_row, words_);
        }
      };
      for (const CompiledPst::NodeId child : kernel.eq_targets(n)) fold(child);
      for (const CompiledPst::NodeId child : kernel.other_targets(n)) fold(child);
      // No branches at all leaves the row all-No.
      const CompiledPst::NodeId star = kernel.star_child(n);
      if (star != CompiledPst::kNoNode) packed::parallel_with(out, row_of(star), words_);
    }
  }
}

namespace {

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

// The Section 3.3 search over the compiled kernel. Without local
// enumeration, control flow mirrors link_match's Search exactly (the
// differential tests depend on bit-identical masks and step counts); the
// differences are representational — star-only chains are already gone
// from the kernel, equality tests consume the pre-resolved key vector,
// annotation rows / branch tables come from flat arenas, and masks are bit
// planes. kWords fixes the plane width at compile time; 0 reads it from
// the annotation.
template <std::size_t kWords>
class CompiledDispatchSearch {
 public:
  using Mask = std::conditional_t<kWords == 0, SlotMask, FixedMask<kWords>>;

  CompiledDispatchSearch(const CompiledAnnotation& annotated, std::size_t group,
                         const Event& event, const std::uint64_t* keys, MatchScratch& scratch,
                         std::vector<SubscriptionId>* local_out)
      : annotated_(annotated),
        kernel_(annotated.kernel()),
        group_(group),
        event_(event),
        keys_(keys),
        scratch_(scratch),
        local_out_(local_out),
        words_(annotated.words()),
        delayed_star_(kernel_.delayed_star()) {
    const LinkIndex local = annotated.local_link();
    if (local_out != nullptr && local.valid()) {
      const auto l = static_cast<std::size_t>(local.value);
      local_word_ = l / kTritWordBits;
      local_bit_ = TritWord{1} << (l % kTritWordBits);
    }
  }

  /// Refines `mask` in place from the kernel root; returns the step count.
  std::uint64_t refine_from_root(MutablePackedTritSpan mask) {
    if constexpr (kWords != 0) {
      Mask root;
      std::copy_n(mask.data(), root.planes.size(), root.data());
      const Mask refined = run(kernel_.root(), root, 0);
      std::copy_n(refined.data(), root.planes.size(), mask.data());
    } else {
      run(kernel_.root(), Mask{mask.data()}, 0);
    }
    return steps_;
  }

 private:
  /// Refines `mask` below `node` and returns it. Each subsearch gets its
  /// own copy of the current mask — by value at a fixed width, in the
  /// level's scratch word slot otherwise — so the search performs no
  /// per-event heap allocation (slot spans survive deeper claims; see
  /// dispatch_mask_slot).
  Mask run(CompiledPst::NodeId node, Mask mask, std::size_t depth) {
    ++steps_;
    const std::size_t words = width();
    // Step 2: refinement against this node's annotation.
    packed::refine_with(mask.data(), annotated_.annotation(group_, node).data(), words);
    // Stamping marks "local matches at or below this node are collected by
    // this call".
    const bool local_here = wants_local(node);
    if (local_here) scratch_.visit(static_cast<std::size_t>(node));

    if (kernel_.is_leaf(node)) {
      if (local_here) {
        const auto subs = annotated_.local_subscribers(node);
        // gryphon-analyze: allow(alloc): local-match staging reuses the
        // Decision's capacity once the batch is warm.
        local_out_->insert(local_out_->end(), subs.begin(), subs.end());
      }
      packed::maybes_to_no(mask.data(), words);
      return mask;
    }
    if (!packed::has_maybe(mask.data(), words) && !local_here) {
      return mask;  // nothing left to decide below
    }

    // Step 3: perform the test, subsearch each selected child that can
    // still contribute — a Maybe to resolve, or uncollected local matches.
    const auto subsearch = [&](CompiledPst::NodeId child) {
      if (!packed::has_maybe(mask.data(), words) && !(local_here && wants_local(child))) return;
      const Mask result = run(child, child_copy(mask, depth), depth + 1);
      packed::promote_yes_from(mask.data(), result.data(), words);
    };

    const CompiledPst::NodeId star = kernel_.star_child(node);
    if (!delayed_star_ && star != CompiledPst::kNoNode) subsearch(star);
    const auto other_tests = kernel_.other_tests(node);
    if (!other_tests.empty()) {
      const Value& v = event_.value(kernel_.order()[static_cast<std::size_t>(kernel_.level(node))]);
      const auto other_targets = kernel_.other_targets(node);
      for (std::size_t i = 0; i < other_tests.size(); ++i) {
        if (other_tests[i].accepts(v)) subsearch(other_targets[i]);
      }
    }
    const CompiledPst::NodeId eq =
        kernel_.eq_child(node, keys_[static_cast<std::size_t>(kernel_.level(node))]);
    if (eq != CompiledPst::kNoNode) subsearch(eq);
    if (delayed_star_ && star != CompiledPst::kNoNode) subsearch(star);

    packed::maybes_to_no(mask.data(), words);
    return mask;
  }

  [[nodiscard]] std::size_t width() const { return kWords != 0 ? kWords : words_; }

  /// The mask a subsearch of a node at `depth` starts from.
  Mask child_copy(const Mask& mask, std::size_t depth) {
    if constexpr (kWords != 0) {
      return mask;
    } else {
      const MutablePackedTritSpan slot =
          dispatch_mask_slot(scratch_, kDispatchCallerSlots + depth, annotated_.link_count());
      std::copy_n(mask.data(), slot.size(), slot.data());
      return SlotMask{slot.data()};
    }
  }

  /// One bit test: the node's local-link trit is not No, and its local
  /// matches are not yet collected. Always false without local enumeration
  /// (local_bit_ stays 0).
  [[nodiscard]] bool wants_local(CompiledPst::NodeId node) const {
    const TritWord* const row = annotated_.annotation(group_, node).data();
    return ((row[local_word_] | row[width() + local_word_]) & local_bit_) != 0 &&
           !scratch_.visited(static_cast<std::size_t>(node));
  }

  const CompiledAnnotation& annotated_;
  const CompiledPst& kernel_;
  std::size_t group_;
  const Event& event_;
  const std::uint64_t* keys_;
  MatchScratch& scratch_;
  std::vector<SubscriptionId>* local_out_;
  std::size_t words_;
  std::size_t local_word_{0};
  TritWord local_bit_{0};
  bool delayed_star_;
  std::uint64_t steps_{0};
};

}  // namespace

MutablePackedTritSpan dispatch_mask_slot(MatchScratch& scratch, std::size_t slot,
                                         std::size_t width) {
  std::vector<std::uint64_t>& raw = scratch.word_slot(slot);
  // gryphon-analyze: allow(alloc): cold-path slot growth; the resize is a
  // no-op once the slot has seen this mask width.
  raw.resize(2 * trit_words(width));
  return MutablePackedTritSpan(raw.data(), raw.size());
}

std::uint64_t compiled_dispatch_into(const CompiledAnnotation& annotated, std::size_t group,
                                     const Event& event, PackedTritSpan initialization_mask,
                                     MatchScratch& scratch,
                                     std::vector<SubscriptionId>* local_out,
                                     MutablePackedTritSpan out_mask) {
  const std::size_t words = annotated.words();
  // Bits at or past link_count would name links the annotation lacks.
  const std::size_t tail = annotated.link_count() % kTritWordBits;
  const TritWord past_width = tail == 0 ? 0 : ~TritWord{0} << tail;
  if (initialization_mask.size() != 2 * words || out_mask.size() != 2 * words ||
      ((initialization_mask[words - 1] | initialization_mask[2 * words - 1]) & past_width) != 0) {
    throw std::invalid_argument("compiled_dispatch: mask width != link count");
  }
  if (group >= annotated.group_count()) {
    throw std::invalid_argument("compiled_dispatch: bad group index");
  }
  const CompiledPst& kernel = annotated.kernel();
  std::copy(initialization_mask.begin(), initialization_mask.end(), out_mask.begin());
  if (kernel.subscription_count() == 0 || kernel.root() < 0) {
    packed::maybes_to_no(out_mask.data(), words);  // nothing downstream can match
    return 0;
  }
  const bool want_local = local_out != nullptr && annotated.local_link().valid();
  if (!packed::has_maybe(out_mask.data(), words) && !want_local) {
    return 0;  // already final, and no local work
  }
  kernel.resolve(event, scratch.value_keys());
  scratch.begin(kernel.node_count());
  const std::uint64_t* keys = scratch.value_keys().data();
  if (words == 1) {
    CompiledDispatchSearch<1> search(annotated, group, event, keys, scratch, local_out);
    return search.refine_from_root(out_mask);
  }
  CompiledDispatchSearch<0> search(annotated, group, event, keys, scratch, local_out);
  return search.refine_from_root(out_mask);
}

CompiledDispatchResult compiled_dispatch(const CompiledAnnotation& annotated, std::size_t group,
                                         const Event& event,
                                         const TritVector& initialization_mask,
                                         MatchScratch& scratch,
                                         std::vector<SubscriptionId>* local_out) {
  if (initialization_mask.size() != annotated.link_count()) {
    throw std::invalid_argument("compiled_dispatch: mask width != link count");
  }
  const std::vector<TritWord> init = packed::pack(initialization_mask.span());
  std::vector<TritWord> out(init.size());
  CompiledDispatchResult result;
  result.steps = compiled_dispatch_into(annotated, group, event, init, scratch, local_out, out);
  result.mask = packed::unpack(out, annotated.link_count());
  return result;
}

}  // namespace gryphon
