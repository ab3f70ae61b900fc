// The link-matching search (paper Section 3.3) over an incrementally
// maintained AnnotatedPst — the route of trees whose subscriptions churn.
//
// Given an event, an annotated PST, and the initialization mask of the
// publisher's spanning tree, refine the mask until every trit is Yes or No:
//
//  1. mask := initialization mask;
//  2. at the current node, every Maybe in the mask is replaced by the
//     node's annotation trit; a fully refined mask ends the search;
//  3. otherwise the node's test selects 0, 1, or 2 children; each child is
//     subsearched with a copy of the current mask; on each return, Maybes
//     with a Yes in the subsearch result become Yes; after all children,
//     remaining Maybes become No;
//  4. the event is sent on every link whose final trit is Yes.
//
// This is the compiled dispatch search (compiled_annotation.h) run over a
// third walk, a walk of the Pst, reading AnnotatedPst's bit-plane rows; it
// is defined beside the other two walks in compiled_annotation.cpp, so one
// refinement serves all three. Two search-order refinements from Section
// 2.1 apply, as the tree's Options say: trivial-test elimination skips
// star-only chains (their annotations are identities, and a compiled
// kernel holds none), and delayed branching subsearches value branches
// before the `*` branch so a mask fully refined by value branches prunes
// the `*` subtree. Remaining subsearches are skipped as soon as the
// current mask has no Maybe left — they could only re-derive Yes trits the
// mask already has.
#pragma once

#include "event/event.h"
#include "matching/match_scratch.h"
#include "routing/annotated_pst.h"
#include "routing/trit.h"

namespace gryphon {

/// Runs the search. `initialization_mask` and `out_mask` are packed masks
/// of annotated.words() words per plane (one trit per broker link, no bit
/// set at or past link_count); the refined mask is written into
/// `out_mask`, and the step count — node visitations, the unit reported in
/// Chart 2 — is returned. A warm scratch allocates nothing. Throws
/// std::invalid_argument on a mask of the wrong width and std::logic_error
/// on an annotation that missed a tree mutation.
std::uint64_t link_match(const AnnotatedPst& annotated, const Event& event,
                         PackedTrits initialization_mask, MatchScratch& scratch,
                         MutablePackedTrits out_mask);

}  // namespace gryphon
