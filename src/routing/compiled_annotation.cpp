#include "routing/compiled_annotation.h"

#include <algorithm>
#include <stdexcept>

#include "event/event.h"

namespace gryphon {

CompiledAnnotation::CompiledAnnotation(const CompiledPst& kernel, std::size_t link_count,
                                       std::span<const SubscriptionLinkFn> group_link_fns,
                                       LinkIndex local_link)
    : kernel_(&kernel),
      link_count_(link_count),
      group_count_(group_link_fns.size()),
      node_count_(kernel.node_count()),
      local_link_(local_link) {
  if (link_count_ == 0) throw std::invalid_argument("CompiledAnnotation: zero links");
  if (group_count_ == 0) throw std::invalid_argument("CompiledAnnotation: zero groups");
  rows_.assign(group_count_ * node_count_ * link_count_, Trit::No);
  local_slices_.assign(node_count_, {0, 0});

  // The shared local-subscriber arena: the local-link column never depends
  // on the spanning tree (every group maps owner == self to local_link), so
  // any group's link function identifies the local subscribers.
  if (local_link_.valid()) {
    const SubscriptionLinkFn& link_of = group_link_fns.front();
    if (!link_of) throw std::invalid_argument("CompiledAnnotation: null link function");
    for (std::size_t i = 0; i < node_count_; ++i) {
      const auto n = static_cast<CompiledPst::NodeId>(i);
      if (!kernel.is_leaf(n)) continue;
      const auto begin = static_cast<std::uint32_t>(local_subs_.size());
      for (const SubscriptionId sub : kernel.subscribers(n)) {
        if (link_of(sub) == local_link_) local_subs_.push_back(sub);
      }
      local_slices_[i] = {begin, static_cast<std::uint32_t>(local_subs_.size()) - begin};
    }
  }

  for (std::size_t g = 0; g < group_count_; ++g) {
    const SubscriptionLinkFn& link_of = group_link_fns[g];
    if (!link_of) throw std::invalid_argument("CompiledAnnotation: null link function");
    Trit* const base = rows_.data() + g * node_count_ * link_count_;
    const auto row_of = [&](CompiledPst::NodeId n) {
      return MutableTritSpan(base + static_cast<std::size_t>(n) * link_count_, link_count_);
    };

    // One forward pass over the bottom-up order computes every row in
    // place, with its children's rows already final. Rows start all-No.
    for (const CompiledPst::NodeId n : kernel.bottom_up_order()) {
      const MutableTritSpan out = row_of(n);
      if (kernel.is_leaf(n)) {
        for (const SubscriptionId sub : kernel.subscribers(n)) {
          const LinkIndex link = link_of(sub);
          if (!link.valid() || static_cast<std::size_t>(link.value) >= link_count_) {
            throw std::logic_error("CompiledAnnotation: subscription resolved to a bad link");
          }
          out[static_cast<std::size_t>(link.value)] = Trit::Yes;
        }
        continue;
      }
      // Alternative-combine the non-star branches, seeded with the implicit
      // all-No alternative (the row as it starts) unless the equality
      // branches cover the whole finite domain (flag precomputed at kernel
      // compile time; same soundness argument as AnnotatedPst).
      bool first = kernel.covers_domain(n);
      const auto fold = [&](CompiledPst::NodeId child) {
        const MutableTritSpan child_row = row_of(child);
        if (first) {
          std::copy(child_row.begin(), child_row.end(), out.begin());
          first = false;
        } else {
          alternative_with(out, child_row);
        }
      };
      for (const CompiledPst::NodeId child : kernel.eq_targets(n)) fold(child);
      for (const CompiledPst::NodeId child : kernel.other_targets(n)) fold(child);
      // No branches at all leaves the row all-No.
      const CompiledPst::NodeId star = kernel.star_child(n);
      if (star != CompiledPst::kNoNode) parallel_with(out, row_of(star));
    }
  }
}

namespace {

// The Section 3.3 search over the compiled kernel. Without local
// enumeration, control flow mirrors link_match's Search exactly (the
// differential tests depend on bit-identical masks and step counts); the
// differences are representational — star-only chains are already gone
// from the kernel, equality tests consume the pre-resolved key vector, and
// annotation rows / branch tables come from flat arenas.
class CompiledDispatchSearch {
 public:
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
        local_(annotated.local_link()),
        delayed_star_(kernel_.delayed_star()) {}

  /// Refines `mask` in place. Each recursion level copies the current mask
  /// into its own scratch byte slot instead of a TritVector temporary, so
  /// the search performs no per-event heap allocation (slot spans survive
  /// deeper claims; see dispatch_mask_slot).
  void run(CompiledPst::NodeId node, MutableTritSpan mask, std::size_t depth) {
    ++steps_;
    // Step 2: refinement against this node's annotation.
    refine_with(mask, annotated_.annotation(group_, node));
    // Stamping marks "local matches at or below this node are collected by
    // this call" — sound on the DAG because the leaf union below a shared
    // node is path-independent.
    const bool local_here = wants_local(node);
    if (local_here) scratch_.visit(static_cast<std::size_t>(node));

    if (kernel_.is_leaf(node)) {
      if (local_here) {
        const auto subs = annotated_.local_subscribers(node);
        // gryphon-analyze: allow(alloc): local-match staging reuses the
        // Decision's capacity once the batch is warm.
        local_out_->insert(local_out_->end(), subs.begin(), subs.end());
      }
      maybes_to_no(mask);
      return;
    }
    if (!has_maybe(mask) && !local_here) return;  // nothing left to decide below

    // Step 3: perform the test, subsearch each selected child that can
    // still contribute — a Maybe to resolve, or uncollected local matches.
    const auto subsearch = [&](CompiledPst::NodeId child) {
      if (!has_maybe(mask) && !(local_here && wants_local(child))) return;
      const MutableTritSpan child_mask =
          dispatch_mask_slot(scratch_, kDispatchCallerSlots + depth, mask.size());
      std::copy(mask.begin(), mask.end(), child_mask.begin());
      run(child, child_mask, depth + 1);
      promote_yes_from(mask, child_mask);
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

    maybes_to_no(mask);
  }

  [[nodiscard]] std::uint64_t steps() const { return steps_; }

 private:
  [[nodiscard]] bool wants_local(CompiledPst::NodeId node) const {
    return local_out_ != nullptr && local_.valid() &&
           !scratch_.visited(static_cast<std::size_t>(node)) &&
           annotated_.annotation(group_, node)[static_cast<std::size_t>(local_.value)] !=
               Trit::No;
  }

  const CompiledAnnotation& annotated_;
  const CompiledPst& kernel_;
  std::size_t group_;
  const Event& event_;
  const std::uint64_t* keys_;
  MatchScratch& scratch_;
  std::vector<SubscriptionId>* local_out_;
  LinkIndex local_;
  bool delayed_star_;
  std::uint64_t steps_{0};
};

}  // namespace

MutableTritSpan dispatch_mask_slot(MatchScratch& scratch, std::size_t slot, std::size_t width) {
  static_assert(sizeof(Trit) == sizeof(std::uint8_t) && alignof(Trit) == alignof(std::uint8_t));
  std::vector<std::uint8_t>& raw = scratch.byte_slot(slot);
  // gryphon-analyze: allow(alloc): cold-path slot growth; the resize is a
  // no-op once the slot has seen this mask width.
  raw.resize(width);
  return MutableTritSpan(reinterpret_cast<Trit*>(raw.data()), width);
}

std::uint64_t compiled_dispatch_into(const CompiledAnnotation& annotated, std::size_t group,
                                     const Event& event, TritSpan initialization_mask,
                                     MatchScratch& scratch,
                                     std::vector<SubscriptionId>* local_out,
                                     MutableTritSpan out_mask) {
  if (initialization_mask.size() != annotated.link_count() ||
      out_mask.size() != annotated.link_count()) {
    throw std::invalid_argument("compiled_dispatch: mask width != link count");
  }
  if (group >= annotated.group_count()) {
    throw std::invalid_argument("compiled_dispatch: bad group index");
  }
  const CompiledPst& kernel = annotated.kernel();
  std::copy(initialization_mask.begin(), initialization_mask.end(), out_mask.begin());
  if (kernel.subscription_count() == 0 || kernel.root() < 0) {
    maybes_to_no(out_mask);  // nothing downstream can match
    return 0;
  }
  const bool want_local = local_out != nullptr && annotated.local_link().valid();
  if (!has_maybe(out_mask) && !want_local) return 0;  // already final, and no local work
  kernel.resolve(event, scratch.value_keys());
  scratch.begin(kernel.node_count());
  CompiledDispatchSearch search(annotated, group, event, scratch.value_keys().data(), scratch,
                                local_out);
  search.run(kernel.root(), out_mask, 0);
  return search.steps();
}

CompiledDispatchResult compiled_dispatch(const CompiledAnnotation& annotated, std::size_t group,
                                         const Event& event,
                                         const TritVector& initialization_mask,
                                         MatchScratch& scratch,
                                         std::vector<SubscriptionId>* local_out) {
  CompiledDispatchResult result;
  result.mask = TritVector(annotated.link_count());
  result.steps = compiled_dispatch_into(annotated, group, event, initialization_mask.span(),
                                        scratch, local_out, result.mask.mutable_span());
  return result;
}

}  // namespace gryphon
