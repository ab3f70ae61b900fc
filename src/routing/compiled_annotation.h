// Frozen trit annotations over the compiled PST kernel, plus the compiled
// dispatch search — the data-plane form of the Section 3.3 link matching,
// shared by the broker (BrokerCore::dispatch) and the simulator's
// ContentRoutingNetwork. The search takes a node's children from one of
// two sources: a walk of the kernel that tests the event at each node
// (the broker: one hop per event, with local enumeration), or an
// EventReach the event was resolved into once (CompiledPst::reach; the
// network: every hop of the event's spanning tree reuses it). One search
// body serves both, so both give the same masks and step counts.
//
// AnnotatedPst (annotated_pst.h) annotates the mutable Pst incrementally;
// it routes churning trees and is the differential-test reference. This
// layer produces the same annotation rows laid out for the dispatch walk:
//
//  * rows are bit planes (routing/trit.h, "Bit-plane form"): a row is W =
//    trit_words(link_count) Yes words followed by W Maybe words, so the
//    search's refine and promote steps are two word operations per 64
//    links instead of one byte compare per link;
//  * rows are right-sized (see "Row width" below): a broker with at most
//    64 links stores each plane in the narrowest unsigned word that holds
//    its link count;
//  * all rows of all spanning-tree groups live in one flat word arena
//    indexed [group][node][plane][word], so the mask-refinement search for
//    one group walks a single contiguous region whose row offsets are the
//    compiled node ids — the annotation of a node sits a multiply-add away
//    from its branch tables;
//  * the locally-owned subscriber ids of every leaf are precomputed into a
//    contiguous arena (per-leaf slices), so local enumeration needs no
//    per-subscriber link lookup at dispatch time. An annotation built
//    without a local link (the simulator's ContentRoutingNetwork: its
//    clients are ordinary links) holds no slice table at all;
//  * construction reads flat link tables: the caller resolves each kernel
//    subscriber's owner once into an array parallel to the kernel's
//    subscriber arena, and each group maps owners to links through a dense
//    table, so a leaf row costs two array loads per (subscriber, group).
//
// Annotation semantics are identical to AnnotatedPst (paper Section 3.1):
// leaves get Yes at the link of each subscriber, interiors fold value
// branches with Alternative Combine — seeded with the implicit all-No
// alternative unless the node's equality branches cover the attribute's
// finite domain (a flag precomputed by CompiledPst) — and merge the `*`
// branch with Parallel Combine (both in their packed word form). Rows are
// computed in one forward pass over CompiledPst::bottom_up_order().
//
// Row width. The annotation arena is the largest structure a compiled
// tree carries besides the kernel itself: one row per (group, node), and
// the simulator holds one annotation per broker. Real brokers have few
// links — 5 to 14 on the paper's Figure 6 network — so a 64-bit plane word
// would be mostly padding. When a row fits one word (link_count <= 64),
// each plane is stored in the narrowest of u8, u16, u32 and u64 that holds
// link_count bits; wider rows keep W 64-bit words per plane. The width
// follows from the link count alone and is not an option. It changes
// storage only: the search widens a stored row into its 64-bit mask
// registers before refining, so masks, TritWord and the multi-word path
// are unchanged, and so is every refined mask and step count.
//
// A CompiledAnnotation is deeply immutable after construction; any number
// of threads may run compiled_dispatch() concurrently, each with its own
// MatchScratch.
#pragma once

#include <cstdint>
#include <span>
#include <variant>
#include <vector>

#include "common/ids.h"
#include "matching/compiled_pst.h"
#include "matching/match_scratch.h"
#include "routing/trit.h"

namespace gryphon {

class CompiledAnnotation {
 public:
  /// Builds annotation rows for every spanning-tree group over `kernel`,
  /// which must outlive this object. `owners[i]` is the owner of
  /// kernel.subscriber_arena()[i] — a broker or client index, whatever the
  /// caller's tables are keyed by — and `group_links[g][o]` is the link
  /// owner o's subscriptions take under group g. All groups must agree on
  /// the local link (they map the local owner to `local_link`), which is
  /// what makes the shared local-subscriber arena sound. Pass an invalid
  /// `local_link` when local enumeration is never wanted.
  CompiledAnnotation(const CompiledPst& kernel, std::size_t link_count,
                     std::span<const std::uint32_t> owners,
                     std::span<const std::vector<LinkIndex>> group_links, LinkIndex local_link);

  [[nodiscard]] const CompiledPst& kernel() const { return *kernel_; }
  [[nodiscard]] std::size_t link_count() const { return link_count_; }
  /// 64-bit words per plane of a mask: a mask is 2 * words() TritWords.
  [[nodiscard]] std::size_t words() const { return words_; }
  [[nodiscard]] std::size_t group_count() const { return group_count_; }
  [[nodiscard]] LinkIndex local_link() const { return local_link_; }

  /// Bytes per stored plane word: 1, 2, 4 or 8 (see "Row width").
  [[nodiscard]] std::size_t plane_bytes() const;

  /// The stored rows when planes are `Plane` words (precondition:
  /// sizeof(Plane) == plane_bytes()). The row of `node` under `group` is
  /// the 2 * words() words at row_offset(group, node).
  template <class Plane>
  [[nodiscard]] const Plane* planes() const {
    return std::get<std::vector<Plane>>(planes_).data();
  }
  [[nodiscard]] std::size_t row_offset(std::size_t group, CompiledPst::NodeId node) const {
    return (group * node_count_ + static_cast<std::size_t>(node)) * 2 * words_;
  }

  /// The subscriber ids at leaf `node` owned by the local link (empty for
  /// interior nodes and when no local link was configured).
  [[nodiscard]] std::span<const SubscriptionId> local_subscribers(
      CompiledPst::NodeId node) const {
    if (local_slices_.empty()) return {};
    const auto& slice = local_slices_[static_cast<std::size_t>(node)];
    return {local_subs_.data() + slice.first, slice.second};
  }

  /// Bytes this annotation occupies: the object, its row arena and its
  /// local-subscriber tables (the kernel is shared and not counted).
  [[nodiscard]] std::size_t memory_bytes() const;

 private:
  template <class Plane>
  void build_rows(std::span<const std::uint32_t> owners,
                  std::span<const std::vector<LinkIndex>> group_links);

  const CompiledPst* kernel_;
  std::size_t link_count_;
  std::size_t words_;
  std::size_t group_count_;
  std::size_t node_count_;
  LinkIndex local_link_;
  // [group][node][plane][word], in the plane type "Row width" picks.
  std::variant<std::vector<std::uint8_t>, std::vector<std::uint16_t>,
               std::vector<std::uint32_t>, std::vector<TritWord>>
      planes_;
  std::vector<SubscriptionId> local_subs_;  // leaf slices
  // begin, count per node; empty without a local link.
  std::vector<std::pair<std::uint32_t, std::uint32_t>> local_slices_;
};

/// The outcome of one compiled dispatch search.
struct CompiledDispatchResult {
  /// Fully refined mask: Yes marks every link to forward the event on.
  TritVector mask;
  /// Matching steps — node visitations, the paper's Chart 2 unit.
  std::uint64_t steps{0};
};

/// Scratch word-slot layout for the allocation-free dispatch path
/// (MatchScratch::word_slot): slots [0, kDispatchCallerSlots) belong to the
/// caller — BrokerCore::dispatch_pinned's per-segment accumulator pair, or
/// ContentRoutingNetwork's output mask — and compiled_dispatch_into claims
/// slot kDispatchCallerSlots + depth for the search level at `depth` when
/// a plane is wider than one word (one-word masks are passed by value).
inline constexpr std::size_t kDispatchCallerSlots = 2;

/// A packed trit mask over scratch word slot `slot`, sized for `width`
/// trits (2 * trit_words(width) words; contents unspecified). The returned
/// span stays valid across later slot claims: growing the slot table moves
/// the inner buffers' handles, never their heap blocks.
[[nodiscard]] MutablePackedTritSpan dispatch_mask_slot(MatchScratch& scratch, std::size_t slot,
                                                       std::size_t width);

/// The link-matching search of Section 3.3 over the compiled kernel,
/// simultaneously enumerating local matches when `local_out` is non-null.
/// The refined mask is bit-identical to link_match() over the equivalent
/// AnnotatedPst, and so is the step count when `local_out` is null (local
/// enumeration searches below fully refined masks); the local-match set is
/// every matching subscription on the local link. The differential churn
/// test in tests/test_compiled_pst.cpp holds the kernel to those references.
///
/// The event is resolved to interned equality keys once (into
/// `scratch.value_keys()`), not per node. Thread-safe: concurrent calls
/// with distinct scratches share only the immutable annotation.
///
/// This form takes a packed initialization mask and writes the packed
/// refined mask into `out_mask` (both 2 * annotated.words() words, with no
/// bit set at or past link_count), and returns the step count. A warm
/// scratch allocates nothing; a cold one grows the per-level mask arena
/// once.
std::uint64_t compiled_dispatch_into(const CompiledAnnotation& annotated, std::size_t group,
                                     const Event& event, PackedTritSpan initialization_mask,
                                     MatchScratch& scratch,
                                     std::vector<SubscriptionId>* local_out,
                                     MutablePackedTritSpan out_mask);

/// The same search over a reach list instead of the kernel walk: `reach`
/// is CompiledPst::reach of the event over annotated.kernel(), so the
/// event's equality keys, branch lookups and general tests were done once
/// when the list was made, and this search only refines rows along it.
/// One reach list serves every broker's annotation over the same kernel.
/// No local enumeration. The refined mask and the step count are
/// bit-identical to the event form's with `local_out` null.
std::uint64_t compiled_dispatch_into(const CompiledAnnotation& annotated, std::size_t group,
                                     const EventReach& reach,
                                     PackedTritSpan initialization_mask, MatchScratch& scratch,
                                     MutablePackedTritSpan out_mask);

/// Convenience wrappers over compiled_dispatch_into taking and returning
/// byte-form masks — the differential-test and oracle entry points; the
/// dispatch hot path calls the _into forms to stay allocation-free.
CompiledDispatchResult compiled_dispatch(const CompiledAnnotation& annotated, std::size_t group,
                                         const Event& event,
                                         const TritVector& initialization_mask,
                                         MatchScratch& scratch,
                                         std::vector<SubscriptionId>* local_out);
CompiledDispatchResult compiled_dispatch(const CompiledAnnotation& annotated, std::size_t group,
                                         const EventReach& reach,
                                         const TritVector& initialization_mask,
                                         MatchScratch& scratch);

}  // namespace gryphon
