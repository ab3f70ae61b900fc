#include "routing/compiled_annotation.h"

#include <algorithm>
#include <array>
#include <bit>
#include <limits>
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
      blocks_per_group_((node_count_ + 63) / 64),
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
  // The shared local-subscriber arena: the local-link column never depends
  // on the spanning tree (every group maps the local owner to local_link),
  // so any group's table identifies the local subscribers.
  if (local_link_.valid()) {
    local_slices_.assign(node_count_, {0, 0});
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

  if (link_count_ <= 8) {
    build_rows<std::uint8_t>(owners, group_links);
  } else if (link_count_ <= 16) {
    build_rows<std::uint16_t>(owners, group_links);
  } else if (link_count_ <= 32) {
    build_rows<std::uint32_t>(owners, group_links);
  } else {
    build_rows<TritWord>(owners, group_links);
  }
}

template <class Plane>
void CompiledAnnotation::build_rows(std::span<const std::uint32_t> owners,
                                    std::span<const std::vector<LinkIndex>> group_links) {
  constexpr std::size_t kPlaneBits = 8 * sizeof(Plane);
  const CompiledPst& kernel = *kernel_;
  std::vector<Plane>& arena = planes_.emplace<std::vector<Plane>>();
  ranks_.assign(group_count_ * blocks_per_group_, RankBlock{0, {0, 0}});
  // A narrow plane holds a one-word row: a constant width lets the row
  // copies and combines below compile to a few word moves.
  const std::size_t words = std::is_same_v<Plane, TritWord> ? words_ : 1;
  const std::size_t row_words = 2 * words;
  // Every node's row of the group being built, reused group to group (and
  // annotation to annotation on this thread).
  thread_local std::vector<Plane> scratch;
  scratch.resize(node_count_ * row_words);
  Plane* const rows = scratch.data();
  for (std::size_t g = 0; g < group_count_; ++g) {
    const LinkIndex* const links = group_links[g].data();
    const auto row_of = [rows, row_words](CompiledPst::NodeId n) {
      return rows + static_cast<std::size_t>(n) * row_words;
    };

    // One forward pass over the bottom-up order computes every row in
    // place, with its children's rows already final.
    for (const CompiledPst::NodeId n : kernel.bottom_up_order()) {
      Plane* const out = row_of(n);
      std::fill_n(out, row_words, Plane{0});  // all-No
      if (kernel.is_leaf(n)) {
        const std::size_t first = kernel.subscribers_begin(n);
        const std::size_t last = first + kernel.subscribers(n).size();
        for (std::size_t k = first; k < last; ++k) {
          const LinkIndex link = links[owners[k]];
          if (!link.valid() || static_cast<std::size_t>(link.value) >= link_count_) {
            throw std::logic_error("CompiledAnnotation: subscription resolved to a bad link");
          }
          const auto l = static_cast<std::size_t>(link.value);
          out[l / kPlaneBits] |= static_cast<Plane>(Plane{1} << (l % kPlaneBits));  // Yes plane
        }
        continue;
      }
      // Alternative-combine the non-star branches, seeded with the implicit
      // all-No alternative (the row as it starts) unless the equality
      // branches cover the whole finite domain (flag precomputed at kernel
      // compile time; same soundness argument as AnnotatedPst).
      bool first = kernel.covers_domain(n);
      const auto fold = [&](CompiledPst::NodeId child) {
        const Plane* const child_row = row_of(child);
        if (first) {
          std::copy_n(child_row, row_words, out);
          first = false;
        } else {
          packed::alternative_with(out, child_row, words);
        }
      };
      for (const CompiledPst::NodeId child : kernel.eq_targets(n)) fold(child);
      for (const CompiledPst::NodeId child : kernel.other_targets(n)) fold(child);
      // No branches at all leaves the row all-No.
      const CompiledPst::NodeId star = kernel.star_child(n);
      if (star != CompiledPst::kNoNode) packed::parallel_with(out, row_of(star), words);
    }
    store_reachable(g, rows, words, arena);
  }
  if (arena.size() / row_words > std::numeric_limits<std::uint32_t>::max()) {
    throw std::length_error("CompiledAnnotation: more stored rows than a rank block indexes");
  }
  arena.shrink_to_fit();
}

template <class Plane>
void CompiledAnnotation::store_reachable(std::size_t group, Plane* rows, std::size_t words,
                                         std::vector<Plane>& arena) {
  const CompiledPst& kernel = *kernel_;
  const std::size_t row_words = 2 * words;
  RankBlock* const blocks = ranks_.data() + group * blocks_per_group_;
  // The search reads a child's row below a row with a Maybe and, with
  // local enumeration, below a local trit that is not No.
  const bool local = local_link_.valid();
  const std::size_t local_word = local ? static_cast<std::size_t>(local_link_.value) / 64 : 0;
  const auto local_bit = static_cast<Plane>(local ? Plane{1} << (local_link_.value % 64) : 0);
  const auto expands = [&](const Plane* row) {
    for (std::size_t w = 0; w < words; ++w) {
      if (row[words + w] != 0) return true;
    }
    return local && ((row[local_word] | row[words + local_word]) & local_bit) != 0;
  };
  // Pre-order with pruning: from a stored node, descend to its first child
  // when its row expands, else skip its subtree. Either way the next node
  // is a child of an expanding stored node, so it is stored too. Stored
  // rows are compacted to the front of `rows` as they are found; a row
  // only ever moves to a lower index, past rows already read.
  std::size_t stored = 0;
  const auto end = static_cast<CompiledPst::NodeId>(node_count_);
  for (CompiledPst::NodeId n = kernel.root() == CompiledPst::kNoNode ? end : kernel.root();
       n < end;) {
    const auto i = static_cast<std::size_t>(n);
    blocks[i / 64].bits[(i % 64) / 32] |= std::uint32_t{1} << (i % 32);
    const Plane* const row = rows + i * row_words;
    const bool descend = !kernel.is_leaf(n) && expands(row);
    std::copy_n(row, row_words, rows + stored * row_words);
    ++stored;
    n = descend ? n + 1 : kernel.subtree_end(n);
  }
  std::size_t first_row = arena.size() / row_words;
  for (std::size_t b = 0; b < blocks_per_group_; ++b) {
    blocks[b].first_row = static_cast<std::uint32_t>(first_row);
    first_row += static_cast<std::size_t>(std::popcount(blocks[b].bits[0]) +
                                          std::popcount(blocks[b].bits[1]));
  }
  arena.insert(arena.end(), rows, rows + stored * row_words);
}

std::size_t CompiledAnnotation::plane_bytes() const {
  // Indexed like planes_'s alternatives.
  static constexpr std::array<std::size_t, 4> kBytes{1, 2, 4, 8};
  return kBytes[planes_.index()];
}

std::size_t CompiledAnnotation::stored_rows(std::size_t group) const {
  if (group >= group_count_) throw std::out_of_range("CompiledAnnotation: bad group index");
  if (blocks_per_group_ == 0) return 0;
  const std::size_t end =
      group + 1 < group_count_ ? rank_blocks(group + 1)->first_row : stored_rows();
  return end - rank_blocks(group)->first_row;
}

std::size_t CompiledAnnotation::stored_rows() const {
  return std::visit([](const auto& planes) { return planes.size(); }, planes_) / (2 * words_);
}

std::size_t CompiledAnnotation::memory_bytes() const {
  const std::size_t row_bytes = std::visit(
      [](const auto& planes) { return planes.capacity() * sizeof(planes.front()); }, planes_);
  return sizeof(*this) + row_bytes + ranks_.capacity() * sizeof(RankBlock) +
         local_subs_.capacity() * sizeof(SubscriptionId) +
         local_slices_.capacity() * sizeof(local_slices_.front());
}

namespace {

// The arena row of stored `node` in the group whose rank index is
// `blocks`: its block's first row plus the stored nodes before it in the
// block. On x86-64 this file is built with POPCNT (src/routing's
// CMakeLists.txt), so the count is one instruction.
std::size_t row_index(const CompiledAnnotation::RankBlock* blocks, CompiledPst::NodeId node) {
  const auto n = static_cast<std::size_t>(node);
  const CompiledAnnotation::RankBlock& block = blocks[n / 64];
  const std::uint64_t bits = block.bits[0] | std::uint64_t{block.bits[1]} << 32;
  const std::uint64_t before = bits & ((std::uint64_t{1} << (n % 64)) - 1);
  return block.first_row + static_cast<std::size_t>(std::popcount(before));
}

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

// Where the search takes a node's children from. A position names one
// node the search may visit.
//
// KernelWalk walks the kernel and tests the event at every node it
// visits: one kernel walk per search. BrokerCore::dispatch uses it, with
// local enumeration.
struct KernelWalk {
  using Pos = CompiledPst::NodeId;
  static constexpr bool kLocal = true;  // local enumeration possible
  const CompiledPst& kernel;
  const Event& event;
  const std::uint64_t* keys;  // the event's resolved equality keys

  [[nodiscard]] Pos root() const { return kernel.root(); }
  [[nodiscard]] CompiledPst::NodeId node(Pos pos) const { return pos; }
  [[nodiscard]] bool is_leaf(Pos pos) const { return kernel.is_leaf(pos); }
  template <class Visit>
  void for_each_child(Pos pos, Visit&& visit) const {
    kernel.for_each_reached_child(pos, event, keys, visit);
  }
};

// ReachWalk replays an EventReach: the event was tested against the kernel
// once, when the list was made, and every search over the list only
// refines rows. A position is a list index. An entry without reached
// children ends its subsearch exactly as a leaf does (the mask's Maybes
// become No), so is_leaf need not read the kernel; the walk carries no
// local enumeration, which is the one place a leaf differs.
struct ReachWalk {
  using Pos = std::uint32_t;
  static constexpr bool kLocal = false;
  const EventReach::Entry* entries;

  [[nodiscard]] Pos root() const { return 0; }
  [[nodiscard]] CompiledPst::NodeId node(Pos pos) const { return entries[pos].node; }
  [[nodiscard]] bool is_leaf(Pos pos) const { return entries[pos].end == pos + 1; }
  template <class Visit>
  void for_each_child(Pos pos, Visit&& visit) const {
    for (Pos child = pos + 1; child < entries[pos].end; child = entries[child].end) visit(child);
  }
};

// The Section 3.3 search over the compiled kernel. Without local
// enumeration, control flow mirrors link_match's Search exactly (the
// differential tests depend on bit-identical masks and step counts); the
// differences are representational — star-only chains are already gone
// from the kernel, equality tests consume the pre-resolved key vector,
// annotation rows / branch tables come from flat arenas, and masks are bit
// planes. kWords fixes the plane width at compile time; 0 reads it from
// the annotation. Plane is the stored row word (CompiledAnnotation's "Row
// width"); a narrow row is widened into TritWords as it is read. Walk
// supplies each node's children (KernelWalk or ReachWalk): both list them
// in the same order, so both give the same masks and step counts.
//
// The kernel is a tree, so the search reaches each node at most once and
// local matches need no "already collected" marks: a node's local
// subscribers are collected by the one call that visits it.
template <std::size_t kWords, class Plane, class Walk>
class CompiledDispatchSearch {
 public:
  using Mask = std::conditional_t<kWords == 0, SlotMask, FixedMask<kWords>>;
  using Pos = typename Walk::Pos;
  static_assert(std::is_same_v<Plane, TritWord> || kWords == 1,
                "narrow planes hold one-word rows only");

  CompiledDispatchSearch(const CompiledAnnotation& annotated, std::size_t group, Walk walk,
                         MatchScratch& scratch, std::vector<SubscriptionId>* local_out)
      : annotated_(annotated),
        walk_(walk),
        rows_(annotated.planes<Plane>()),
        blocks_(annotated.rank_blocks(group)),
        scratch_(scratch),
        local_out_(local_out),
        words_(annotated.words()) {
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
    const CompiledPst::NodeId node = walk_.node(pos);
    const Plane* const annotation = row(node);
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
    // still contribute — a Maybe to resolve, or local matches to collect.
    walk_.for_each_child(pos, [&](Pos child) {
      if (!packed::has_maybe(mask.data(), words) &&
          !(local_here && wants_local(row(walk_.node(child))))) {
        return;
      }
      const Mask result = run(child, child_copy(mask, depth), depth + 1);
      packed::promote_yes_from(mask.data(), result.data(), words);
    });

    packed::maybes_to_no(mask.data(), words);
    return mask;
  }

  [[nodiscard]] std::size_t width() const { return kWords != 0 ? kWords : words_; }

  /// The stored annotation row of `node` (2 * width() Plane words). The
  /// search only visits nodes whose row is stored (see "Stored rows").
  [[nodiscard]] const Plane* row(CompiledPst::NodeId node) const {
    return rows_ + row_index(blocks_, node) * 2 * width();
  }

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

  /// One bit test: the local-link trit of row `r` is not No. Always
  /// false without local enumeration (local_bit_ stays 0, and a reach walk
  /// has none).
  [[nodiscard]] bool wants_local(const Plane* r) const {
    if constexpr (!Walk::kLocal) return false;
    return ((TritWord{r[local_word_]} | TritWord{r[width() + local_word_]}) & local_bit_) != 0;
  }

  const CompiledAnnotation& annotated_;
  Walk walk_;
  const Plane* rows_;  // the stored rows
  const CompiledAnnotation::RankBlock* blocks_;  // the group's rank index
  MatchScratch& scratch_;
  std::vector<SubscriptionId>* local_out_;
  std::size_t words_;
  std::size_t local_word_{0};
  TritWord local_bit_{0};
  std::uint64_t steps_{0};
};

// Runs the search at the instantiation the annotation's stored row width
// picks: one per narrow plane word, and rows wider than 64 links take the
// run-time-width search.
template <class Walk>
std::uint64_t run_search(const CompiledAnnotation& annotated, std::size_t group, Walk walk,
                         MatchScratch& scratch, std::vector<SubscriptionId>* local_out,
                         MutablePackedTritSpan out_mask) {
  const auto search = [&]<std::size_t kWords, class Plane>() {
    CompiledDispatchSearch<kWords, Plane, Walk> s(annotated, group, walk, scratch, local_out);
    return s.refine_from_root(out_mask);
  };
  switch (annotated.plane_bytes()) {
    case 1:
      return search.template operator()<1, std::uint8_t>();
    case 2:
      return search.template operator()<1, std::uint16_t>();
    case 4:
      return search.template operator()<1, std::uint32_t>();
    default:
      break;
  }
  if (annotated.words() == 1) return search.template operator()<1, TritWord>();
  return search.template operator()<0, TritWord>();
}

// Checks a packed initialization mask and group against the annotation
// and starts the refined mask as a copy of it. Returns false when the
// mask is final already: the kernel is empty (every Maybe becomes No) or
// no Maybe is left, and no local enumeration is wanted.
bool start_dispatch(const CompiledAnnotation& annotated, std::size_t group,
                    PackedTritSpan initialization_mask, bool want_local,
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
    return false;
  }
  return packed::has_maybe(out_mask.data(), words) || want_local;
}

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
  const bool want_local = local_out != nullptr && annotated.local_link().valid();
  if (!start_dispatch(annotated, group, initialization_mask, want_local, out_mask)) return 0;
  const CompiledPst& kernel = annotated.kernel();
  kernel.resolve(event, scratch.value_keys());
  return run_search(annotated, group, KernelWalk{kernel, event, scratch.value_keys().data()},
                    scratch, local_out, out_mask);
}

std::uint64_t compiled_dispatch_into(const CompiledAnnotation& annotated, std::size_t group,
                                     const EventReach& reach,
                                     PackedTritSpan initialization_mask, MatchScratch& scratch,
                                     MutablePackedTritSpan out_mask) {
  if (!start_dispatch(annotated, group, initialization_mask, false, out_mask)) return 0;
  if (reach.entries.empty() || reach.entries.front().node != annotated.kernel().root()) {
    throw std::invalid_argument("compiled_dispatch: reach list is not of this kernel");
  }
  return run_search(annotated, group, ReachWalk{reach.entries.data()}, scratch, nullptr,
                    out_mask);
}

namespace {

// The byte-form wrapper: packs the initialization mask, runs `dispatch`
// into a packed output and unpacks the refined mask.
template <class Dispatch>
CompiledDispatchResult dispatch_unpacked(const CompiledAnnotation& annotated,
                                         const TritVector& initialization_mask,
                                         Dispatch&& dispatch) {
  if (initialization_mask.size() != annotated.link_count()) {
    throw std::invalid_argument("compiled_dispatch: mask width != link count");
  }
  const std::vector<TritWord> init = packed::pack(initialization_mask.span());
  std::vector<TritWord> out(init.size());
  CompiledDispatchResult result;
  result.steps = dispatch(PackedTritSpan(init), MutablePackedTritSpan(out));
  result.mask = packed::unpack(out, annotated.link_count());
  return result;
}

}  // namespace

CompiledDispatchResult compiled_dispatch(const CompiledAnnotation& annotated, std::size_t group,
                                         const Event& event,
                                         const TritVector& initialization_mask,
                                         MatchScratch& scratch,
                                         std::vector<SubscriptionId>* local_out) {
  return dispatch_unpacked(annotated, initialization_mask, [&](auto init, auto out) {
    return compiled_dispatch_into(annotated, group, event, init, scratch, local_out, out);
  });
}

CompiledDispatchResult compiled_dispatch(const CompiledAnnotation& annotated, std::size_t group,
                                         const EventReach& reach,
                                         const TritVector& initialization_mask,
                                         MatchScratch& scratch) {
  return dispatch_unpacked(annotated, initialization_mask, [&](auto init, auto out) {
    return compiled_dispatch_into(annotated, group, reach, init, scratch, out);
  });
}

}  // namespace gryphon
