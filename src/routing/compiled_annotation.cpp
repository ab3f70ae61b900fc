#include "routing/compiled_annotation.h"

#include <algorithm>
#include <array>
#include <bit>
#include <limits>
#include <stdexcept>
#include <type_traits>

#include "event/event.h"
#include "routing/refinement_search.h"

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

  planes_ = plane_arena(link_count_);
  std::visit([&](auto& arena) { build_rows(arena, owners, group_links); }, planes_);
}

template <class Plane>
void CompiledAnnotation::build_rows(std::vector<Plane>& arena,
                                    std::span<const std::uint32_t> owners,
                                    std::span<const std::vector<LinkIndex>> group_links) {
  const CompiledPst& kernel = *kernel_;
  ranks_.assign(group_count_ * blocks_per_group_, RankBlock{0, {0, 0}});
  const std::size_t words = row_plane_words<Plane>(words_);
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
      if (kernel.is_leaf(n)) {
        const std::size_t first = kernel.subscribers_begin(n);
        const std::size_t last = first + kernel.subscribers(n).size();
        packed::fold_leaf(out, words, link_count_, [&](auto&& set) {
          for (std::size_t k = first; k < last; ++k) set(links[owners[k]]);
        });
        continue;
      }
      const CompiledPst::NodeId star = kernel.star_child(n);
      packed::fold_interior(
          out, words, kernel.covers_domain(n),
          [&](auto&& fold) {
            for (const CompiledPst::NodeId child : kernel.eq_targets(n)) fold(row_of(child));
            for (const CompiledPst::NodeId child : kernel.other_targets(n)) fold(row_of(child));
          },
          star == CompiledPst::kNoNode ? nullptr : row_of(star));
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

// The two walks over a CompiledAnnotation's stored rows
// (refinement_search.h states what a walk supplies).
//
// KernelWalk walks the kernel and tests the event at every node it
// visits: one kernel walk per search, over one group's stored rows of a
// CompiledAnnotation. BrokerCore::dispatch uses it, with local
// enumeration.
struct KernelWalk {
  using Pos = CompiledPst::NodeId;
  static constexpr bool kLocal = true;  // local enumeration possible
  const CompiledAnnotation& annotated;
  const CompiledPst& kernel;
  const CompiledAnnotation::RankBlock* blocks;  // the group's rank index
  const Event& event;
  const std::uint64_t* keys;  // the event's resolved equality keys

  [[nodiscard]] Pos root() const { return kernel.root(); }
  [[nodiscard]] std::size_t row(Pos pos) const { return row_index(blocks, pos); }
  [[nodiscard]] bool is_leaf(Pos pos) const { return kernel.is_leaf(pos); }
  [[nodiscard]] std::span<const SubscriptionId> local_subscribers(Pos pos) const {
    return annotated.local_subscribers(pos);
  }
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
  const CompiledAnnotation::RankBlock* blocks;  // the group's rank index

  [[nodiscard]] Pos root() const { return 0; }
  [[nodiscard]] std::size_t row(Pos pos) const { return row_index(blocks, entries[pos].node); }
  [[nodiscard]] bool is_leaf(Pos pos) const { return entries[pos].end == pos + 1; }
  template <class Visit>
  void for_each_child(Pos pos, Visit&& visit) const {
    for (Pos child = pos + 1; child < entries[pos].end; child = entries[child].end) visit(child);
  }
};

// Checks a packed initialization mask and group against the annotation
// and starts the refined mask as a copy of it. Returns false when the
// mask is final already: the kernel is empty (every Maybe becomes No) or
// no Maybe is left, and no local enumeration is wanted.
bool start_dispatch(const CompiledAnnotation& annotated, std::size_t group,
                    PackedTrits initialization_mask, bool want_local,
                    MutablePackedTrits out_mask) {
  detail::start_masks("compiled_dispatch", annotated.link_count(), initialization_mask, out_mask);
  if (group >= annotated.group_count()) {
    throw std::invalid_argument("compiled_dispatch: bad group index");
  }
  const CompiledPst& kernel = annotated.kernel();
  if (kernel.subscription_count() == 0 || kernel.root() < 0) {
    packed::maybes_to_no(out_mask.data(), annotated.words());  // nothing downstream can match
    return false;
  }
  return packed::has_maybe(out_mask.data(), annotated.words()) || want_local;
}

}  // namespace

MutablePackedTrits dispatch_mask_slot(MatchScratch& scratch, std::size_t slot,
                                         std::size_t width) {
  std::vector<std::uint64_t>& raw = scratch.word_slot(slot);
  // gryphon-analyze: allow(alloc): cold-path slot growth; the resize is a
  // no-op once the slot has seen this mask width.
  raw.resize(2 * trit_words(width));
  return MutablePackedTrits(raw.data(), raw.size());
}

std::uint64_t compiled_dispatch_into(const CompiledAnnotation& annotated, std::size_t group,
                                     const Event& event, PackedTrits initialization_mask,
                                     MatchScratch& scratch,
                                     std::vector<SubscriptionId>* local_out,
                                     MutablePackedTrits out_mask) {
  const bool want_local = local_out != nullptr && annotated.local_link().valid();
  if (!start_dispatch(annotated, group, initialization_mask, want_local, out_mask)) return 0;
  const CompiledPst& kernel = annotated.kernel();
  kernel.resolve(event, scratch.value_keys());
  return detail::run_search(annotated,
                            KernelWalk{annotated, kernel, annotated.rank_blocks(group), event,
                                       scratch.value_keys().data()},
                            annotated.local_link(), scratch, local_out, out_mask);
}

std::uint64_t compiled_dispatch_into(const CompiledAnnotation& annotated, std::size_t group,
                                     const EventReach& reach,
                                     PackedTrits initialization_mask, MatchScratch& scratch,
                                     MutablePackedTrits out_mask) {
  if (!start_dispatch(annotated, group, initialization_mask, false, out_mask)) return 0;
  if (reach.entries.empty() || reach.entries.front().node != annotated.kernel().root()) {
    throw std::invalid_argument("compiled_dispatch: reach list is not of this kernel");
  }
  return detail::run_search(annotated,
                            ReachWalk{reach.entries.data(), annotated.rank_blocks(group)},
                            LinkIndex{}, scratch, nullptr, out_mask);
}

}  // namespace gryphon
