// The trit algebra of paper Figure 4, verified cell by cell, and the
// bit-plane trit vectors of src/routing checked against the scalar
// combines, trit by trit, on random vectors. Vectors are written as
// strings of Y, M and N and converted with the byte-form test reference
// (trit_reference.h).
#include "routing/trit.h"

#include <gtest/gtest.h>

#include "common/rng.h"
#include "trit_reference.h"

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

using reference::pack;
using reference::unpack;

Trit to_trit(char c) { return c == 'Y' ? Y : (c == 'M' ? M : N); }
char to_char(Trit t) { return t == Y ? 'Y' : (t == M ? 'M' : 'N'); }

// `op` applied to packed `a` and `b`, back in string form.
template <class Op>
std::string packed_op(const std::string& a, const std::string& b, Op op) {
  std::vector<TritWord> mask = pack(a);
  const std::vector<TritWord> other = pack(b);
  op(mask.data(), other.data(), trit_words(a.size()));
  return unpack(mask, a.size());
}

TEST(TritVector, FromStringRoundTrip) {
  // The test codec every differential compares through.
  const std::vector<TritWord> v = pack("YMN");
  ASSERT_EQ(v.size(), 2u);
  EXPECT_EQ(v[0], 0b001u);  // Yes plane
  EXPECT_EQ(v[1], 0b010u);  // Maybe plane
  EXPECT_EQ(unpack(v, 3), "YMN");
  EXPECT_THROW(pack("YXZ"), std::invalid_argument);
}

TEST(TritVector, PaperFigure5Example) {
  // MYY A NYN = MYM; MYM P YYN = YYM.
  const std::string alt = packed_op("MYY", "NYN", packed::alternative_with<TritWord>);
  EXPECT_EQ(alt, "MYM");
  EXPECT_EQ(packed_op(alt, "YYN", packed::parallel_with<TritWord>), "YYM");
}

TEST(TritVector, RefineReplacesOnlyMaybes) {
  EXPECT_EQ(packed_op("YMNM", "NYNY", packed::refine_with), "YYNY");
}

TEST(TritVector, PromoteYesFromSubsearch) {
  // Only Maybes with a subsearch Yes flip; subsearch No leaves Maybe alone
  // (another sibling's subsearch may still produce a Yes).
  EXPECT_EQ(packed_op("MMNM", "YNNN", packed::promote_yes_from), "YMNM");
}

TEST(TritVector, MaybesToNo) {
  std::vector<TritWord> mask = pack("YMNM");
  packed::maybes_to_no(mask.data(), 1);
  EXPECT_EQ(unpack(mask, 4), "YNNN");
}

TEST(TritVector, Queries) {
  const std::vector<TritWord> v = pack("YMNY");
  EXPECT_TRUE(packed::has_maybe(v.data(), 1));
  std::vector<std::size_t> yes;
  packed::for_each_yes(v, [&](std::size_t i) { yes.push_back(i); });
  EXPECT_EQ(yes, (std::vector<std::size_t>{0, 3}));
  EXPECT_FALSE(packed::has_maybe(pack("YNNN").data(), 1));
}

TEST(TritVector, SizeMismatchThrows) {
  // The codec rejects a mask of another width, a link in both planes and a
  // bit past the width, so a kernel that produced one fails its test.
  EXPECT_THROW((void)unpack(pack("YM"), 65), std::invalid_argument);
  EXPECT_THROW((void)unpack(std::vector<TritWord>{0b1, 0b1}, 2), std::invalid_argument);
  EXPECT_THROW((void)unpack(std::vector<TritWord>{0b100, 0}, 2), std::invalid_argument);
}

TEST(TritVector, FillAndEquality) {
  std::vector<TritWord> v(2 * trit_words(70), 0);
  for (std::size_t i = 0; i < 70; ++i) packed::set(v, i, M);
  EXPECT_EQ(unpack(v, 70), std::string(70, 'M'));
  packed::set(v, 0, Y);
  packed::set(v, 69, N);
  packed::set(v, 64, Y);
  packed::set(v, 64, M);
  EXPECT_EQ(unpack(v, 70), "Y" + std::string(68, 'M') + "N");
  EXPECT_EQ(v, pack("Y" + std::string(68, 'M') + "N"));
}

TEST(PackedTrits, PackUnpackRoundTripAndLayout) {
  const std::vector<TritWord> p = pack("YMNY");
  ASSERT_EQ(p.size(), 2u);
  EXPECT_EQ(p[0], 0b1001u);  // Yes plane
  EXPECT_EQ(p[1], 0b0010u);  // Maybe plane
  EXPECT_EQ(unpack(p, 4), "YMNY");
  EXPECT_EQ(trit_words(0), 0u);
  EXPECT_EQ(trit_words(64), 1u);
  EXPECT_EQ(trit_words(65), 2u);
  const std::string wide = std::string(64, 'N') + "Y";
  EXPECT_EQ(pack(wide), (std::vector<TritWord>{0, 1, 0, 0}));
}

// Seeded property test: every packed operation equals the scalar Figure 4
// combines (and Section 3.3's refine and promote) applied trit by trit, at
// widths on both sides of each word boundary, and the two combines agree on
// the narrow plane words stored rows use.
TEST(PackedTrits, OperationsEqualByteFormAtEveryWidth) {
  Rng rng(17);
  const auto each_trit = [](const std::string& a, const std::string& b, auto scalar) {
    std::string out = a;
    for (std::size_t i = 0; i < a.size(); ++i) {
      out[i] = to_char(scalar(to_trit(a[i]), to_trit(b[i])));
    }
    return out;
  };
  const auto refine = [](Trit mask, Trit row) { return mask == M ? row : mask; };
  const auto promote = [](Trit mask, Trit sub) { return mask == M && sub == Y ? Y : mask; };
  for (const std::size_t width : {1, 2, 7, 8, 63, 64, 65, 128, 130}) {
    const std::size_t words = trit_words(width);
    for (int trial = 0; trial < 200; ++trial) {
      const std::string a = reference::random_trits(rng, width);
      const std::string b = reference::random_trits(rng, width);
      const auto context = [&] { return "width " + std::to_string(width) + ": " + a + ", " + b; };
      ASSERT_EQ(packed_op(a, b, packed::alternative_with<TritWord>),
                each_trit(a, b, alternative_combine))
          << context();
      ASSERT_EQ(packed_op(a, b, packed::parallel_with<TritWord>),
                each_trit(a, b, parallel_combine))
          << context();
      ASSERT_EQ(packed_op(a, b, packed::refine_with), each_trit(a, b, refine)) << context();
      ASSERT_EQ(packed_op(a, b, packed::promote_yes_from), each_trit(a, b, promote))
          << context();

      std::vector<TritWord> got = pack(a);
      EXPECT_EQ(packed::has_maybe(got.data(), words), a.find('M') != std::string::npos);
      packed::maybes_to_no(got.data(), words);
      std::string no_maybes = a;
      for (char& t : no_maybes) t = t == 'M' ? 'N' : t;
      ASSERT_EQ(unpack(got, width), no_maybes) << context();

      std::string yes(width, 'N');
      packed::for_each_yes(pack(b), [&](std::size_t i) { yes.at(i) = 'Y'; });
      std::string want_yes = b;
      for (char& t : want_yes) t = t == 'Y' ? 'Y' : 'N';
      ASSERT_EQ(yes, want_yes) << context();

      if (width <= 8) {
        // An 8-bit plane word holds the same row.
        const std::vector<TritWord> pa = pack(a);
        const std::vector<TritWord> pb = pack(b);
        std::uint8_t narrow[2] = {static_cast<std::uint8_t>(pa[0]),
                                  static_cast<std::uint8_t>(pa[1])};
        const std::uint8_t other[2] = {static_cast<std::uint8_t>(pb[0]),
                                       static_cast<std::uint8_t>(pb[1])};
        packed::alternative_with(narrow, other, 1);
        ASSERT_EQ(unpack(std::vector<TritWord>{narrow[0], narrow[1]}, width),
                  each_trit(a, b, alternative_combine))
            << context();
        packed::parallel_with(narrow, other, 1);
        std::string both = each_trit(each_trit(a, b, alternative_combine), b, parallel_combine);
        ASSERT_EQ(unpack(std::vector<TritWord>{narrow[0], narrow[1]}, width), both)
            << context();
      }
    }
  }
}

}  // namespace
}  // namespace gryphon
