// The trit algebra of paper Figure 4, verified cell by cell, and the
// bit-plane form checked against the byte form on random vectors.
#include "routing/trit.h"

#include <gtest/gtest.h>

#include "common/rng.h"

namespace gryphon {
namespace {

constexpr Trit Y = Trit::Yes;
constexpr Trit M = Trit::Maybe;
constexpr Trit N = Trit::No;

TEST(TritAlgebra, AlternativeCombineTruthTable) {
  // Figure 4, left table.
  EXPECT_EQ(alternative_combine(Y, Y), Y);
  EXPECT_EQ(alternative_combine(Y, M), M);
  EXPECT_EQ(alternative_combine(Y, N), M);
  EXPECT_EQ(alternative_combine(M, Y), M);
  EXPECT_EQ(alternative_combine(M, M), M);
  EXPECT_EQ(alternative_combine(M, N), M);
  EXPECT_EQ(alternative_combine(N, Y), M);
  EXPECT_EQ(alternative_combine(N, M), M);
  EXPECT_EQ(alternative_combine(N, N), N);
}

TEST(TritAlgebra, ParallelCombineTruthTable) {
  // Figure 4, right table.
  EXPECT_EQ(parallel_combine(Y, Y), Y);
  EXPECT_EQ(parallel_combine(Y, M), Y);
  EXPECT_EQ(parallel_combine(Y, N), Y);
  EXPECT_EQ(parallel_combine(M, Y), Y);
  EXPECT_EQ(parallel_combine(M, M), M);
  EXPECT_EQ(parallel_combine(M, N), M);
  EXPECT_EQ(parallel_combine(N, Y), Y);
  EXPECT_EQ(parallel_combine(N, M), M);
  EXPECT_EQ(parallel_combine(N, N), N);
}

TEST(TritAlgebra, BothCommutativeAndAssociative) {
  const Trit all[] = {Y, M, N};
  for (const Trit a : all) {
    for (const Trit b : all) {
      EXPECT_EQ(alternative_combine(a, b), alternative_combine(b, a));
      EXPECT_EQ(parallel_combine(a, b), parallel_combine(b, a));
      for (const Trit c : all) {
        EXPECT_EQ(alternative_combine(alternative_combine(a, b), c),
                  alternative_combine(a, alternative_combine(b, c)));
        EXPECT_EQ(parallel_combine(parallel_combine(a, b), c),
                  parallel_combine(a, parallel_combine(b, c)));
      }
    }
  }
}

TEST(TritVector, FromStringRoundTrip) {
  const auto v = TritVector::from_string("YMN");
  EXPECT_EQ(v.size(), 3u);
  EXPECT_EQ(v.at(0), Y);
  EXPECT_EQ(v.at(1), M);
  EXPECT_EQ(v.at(2), N);
  EXPECT_EQ(v.to_string(), "YMN");
  EXPECT_THROW(TritVector::from_string("YXZ"), std::invalid_argument);
}

TEST(TritVector, PaperFigure5Example) {
  // MYY A NYN = MYM; MYM P YYN = YYM.
  auto alt = TritVector::from_string("MYY");
  alt.alternative_with(TritVector::from_string("NYN"));
  EXPECT_EQ(alt.to_string(), "MYM");
  alt.parallel_with(TritVector::from_string("YYN"));
  EXPECT_EQ(alt.to_string(), "YYM");
}

TEST(TritVector, RefineReplacesOnlyMaybes) {
  auto mask = TritVector::from_string("YMNM");
  mask.refine_with(TritVector::from_string("NYNY"));
  EXPECT_EQ(mask.to_string(), "YYNY");
}

TEST(TritVector, PromoteYesFromSubsearch) {
  auto mask = TritVector::from_string("MMNM");
  mask.promote_yes_from(TritVector::from_string("YNNN"));
  // Only Maybes with a subsearch Yes flip; subsearch No leaves Maybe alone
  // (another sibling's subsearch may still produce a Yes).
  EXPECT_EQ(mask.to_string(), "YMNM");
}

TEST(TritVector, MaybesToNo) {
  auto mask = TritVector::from_string("YMNM");
  mask.maybes_to_no();
  EXPECT_EQ(mask.to_string(), "YNNN");
}

TEST(TritVector, Queries) {
  const auto v = TritVector::from_string("YMNY");
  EXPECT_TRUE(v.has_maybe());
  EXPECT_TRUE(v.any_yes());
  EXPECT_EQ(v.count(Trit::Yes), 2u);
  EXPECT_EQ(v.count(Trit::Maybe), 1u);
  EXPECT_EQ(v.count(Trit::No), 1u);
  const auto yes = v.yes_links();
  ASSERT_EQ(yes.size(), 2u);
  EXPECT_EQ(yes[0].value, 0);
  EXPECT_EQ(yes[1].value, 3);

  const auto refined = TritVector::from_string("YNNN");
  EXPECT_FALSE(refined.has_maybe());
  EXPECT_FALSE(TritVector::from_string("NNN").any_yes());
}

TEST(TritVector, SizeMismatchThrows) {
  auto v = TritVector::from_string("YM");
  EXPECT_THROW(v.refine_with(TritVector::from_string("Y")), std::invalid_argument);
  EXPECT_THROW(v.alternative_with(TritVector::from_string("YMN")), std::invalid_argument);
}

TEST(TritVector, FillAndEquality) {
  TritVector v(4, Trit::Maybe);
  EXPECT_EQ(v.to_string(), "MMMM");
  v.fill(Trit::No);
  EXPECT_EQ(v, TritVector::from_string("NNNN"));
  EXPECT_NE(v, TritVector::from_string("NNNY"));
  EXPECT_TRUE(v.equals(TritVector::from_string("NNNN").span()));
}

TEST(PackedTrits, PackUnpackRoundTripAndLayout) {
  const auto v = TritVector::from_string("YMNY");
  const std::vector<TritWord> p = packed::pack(v.span());
  ASSERT_EQ(p.size(), 2u);
  EXPECT_EQ(p[0], 0b1001u);  // Yes plane
  EXPECT_EQ(p[1], 0b0010u);  // Maybe plane
  EXPECT_EQ(packed::unpack(p, v.size()), v);
  EXPECT_EQ(trit_words(0), 0u);
  EXPECT_EQ(trit_words(64), 1u);
  EXPECT_EQ(trit_words(65), 2u);
  EXPECT_THROW((void)packed::unpack(p, 65), std::invalid_argument);
}

// Seeded property test: every packed operation equals the per-trit
// TritVector operation, at widths on both sides of each word boundary.
TEST(PackedTrits, OperationsEqualByteFormAtEveryWidth) {
  Rng rng(17);
  const auto random_vector = [&](std::size_t width) {
    TritVector v(width);
    for (std::size_t i = 0; i < width; ++i) v.set(i, static_cast<Trit>(rng.below(3)));
    return v;
  };
  for (const std::size_t width : {1, 2, 63, 64, 65, 128, 130}) {
    const std::size_t words = trit_words(width);
    for (int trial = 0; trial < 200; ++trial) {
      const TritVector a = random_vector(width);
      const TritVector b = random_vector(width);
      const std::vector<TritWord> pb = packed::pack(b.span());
      const auto check = [&](const char* op, void (TritVector::*byte_op)(TritSpan),
                             void (*word_op)(TritWord*, const TritWord*, std::size_t)) {
        TritVector want = a;
        (want.*byte_op)(b.span());
        std::vector<TritWord> got = packed::pack(a.span());
        word_op(got.data(), pb.data(), words);
        ASSERT_EQ(packed::unpack(got, width), want)
            << op << " width " << width << ": " << a.to_string() << " with " << b.to_string();
        ASSERT_EQ(got, packed::pack(want.span())) << op << ": padding bits or both planes set";
      };
      check("alternative", &TritVector::alternative_with, &packed::alternative_with);
      check("parallel", &TritVector::parallel_with, &packed::parallel_with);
      check("refine", &TritVector::refine_with, &packed::refine_with);

      TritVector promoted = a;
      promoted.promote_yes_from(b);
      std::vector<TritWord> got = packed::pack(a.span());
      packed::promote_yes_from(got.data(), pb.data(), words);
      ASSERT_EQ(packed::unpack(got, width), promoted) << "promote width " << width;

      TritVector no_maybes = a;
      no_maybes.maybes_to_no();
      got = packed::pack(a.span());
      EXPECT_EQ(packed::has_maybe(got.data(), words), a.has_maybe());
      packed::maybes_to_no(got.data(), words);
      ASSERT_EQ(packed::unpack(got, width), no_maybes) << "maybes_to_no width " << width;

      std::vector<LinkIndex> yes;
      packed::for_each_yes(pb, [&](std::size_t i) {
        yes.push_back(LinkIndex{static_cast<LinkIndex::rep_type>(i)});
      });
      ASSERT_EQ(yes, b.yes_links());
    }
  }
}

}  // namespace
}  // namespace gryphon
