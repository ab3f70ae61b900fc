#include "routing/trit.h"

#include <algorithm>
#include <stdexcept>

namespace gryphon {

TritVector TritVector::from_string(std::string_view text) {
  TritVector v(text.size());
  for (std::size_t i = 0; i < text.size(); ++i) {
    switch (text[i]) {
      case 'Y': case 'y': v.trits_[i] = Trit::Yes; break;
      case 'N': case 'n': v.trits_[i] = Trit::No; break;
      case 'M': case 'm': v.trits_[i] = Trit::Maybe; break;
      default: throw std::invalid_argument("TritVector::from_string: bad character");
    }
  }
  return v;
}

namespace {
void check_same_size(TritSpan a, TritSpan b) {
  if (a.size() != b.size()) throw std::invalid_argument("TritVector: size mismatch");
}
}  // namespace

void alternative_with(MutableTritSpan mask, TritSpan other) {
  check_same_size(mask, other);
  for (std::size_t i = 0; i < mask.size(); ++i) {
    mask[i] = alternative_combine(mask[i], other[i]);
  }
}

void parallel_with(MutableTritSpan mask, TritSpan other) {
  check_same_size(mask, other);
  for (std::size_t i = 0; i < mask.size(); ++i) {
    mask[i] = parallel_combine(mask[i], other[i]);
  }
}

void refine_with(MutableTritSpan mask, TritSpan annotation) {
  check_same_size(mask, annotation);
  for (std::size_t i = 0; i < mask.size(); ++i) {
    if (mask[i] == Trit::Maybe) mask[i] = annotation[i];
  }
}

void promote_yes_from(MutableTritSpan mask, TritSpan subsearch_result) {
  check_same_size(mask, subsearch_result);
  for (std::size_t i = 0; i < mask.size(); ++i) {
    if (mask[i] == Trit::Maybe && subsearch_result[i] == Trit::Yes) mask[i] = Trit::Yes;
  }
}

void maybes_to_no(MutableTritSpan mask) {
  for (Trit& t : mask) {
    if (t == Trit::Maybe) t = Trit::No;
  }
}

bool has_maybe(TritSpan mask) {
  return std::find(mask.begin(), mask.end(), Trit::Maybe) != mask.end();
}

void TritVector::alternative_with(TritSpan other) {
  gryphon::alternative_with(mutable_span(), other);
}

void TritVector::parallel_with(TritSpan other) { gryphon::parallel_with(mutable_span(), other); }

void TritVector::refine_with(TritSpan annotation) {
  gryphon::refine_with(mutable_span(), annotation);
}

void TritVector::promote_yes_from(const TritVector& subsearch_result) {
  gryphon::promote_yes_from(mutable_span(), subsearch_result.span());
}

void TritVector::maybes_to_no() { gryphon::maybes_to_no(mutable_span()); }

bool TritVector::has_maybe() const { return gryphon::has_maybe(span()); }

bool TritVector::any_yes() const {
  return std::find(trits_.begin(), trits_.end(), Trit::Yes) != trits_.end();
}

std::size_t TritVector::count(Trit t) const {
  return static_cast<std::size_t>(std::count(trits_.begin(), trits_.end(), t));
}

std::vector<LinkIndex> TritVector::yes_links() const {
  std::vector<LinkIndex> out;
  for (std::size_t i = 0; i < trits_.size(); ++i) {
    if (trits_[i] == Trit::Yes) out.push_back(LinkIndex{static_cast<LinkIndex::rep_type>(i)});
  }
  return out;
}

std::string TritVector::to_string() const {
  std::string s;
  s.reserve(trits_.size());
  for (const Trit t : trits_) s.push_back(to_char(t));
  return s;
}

namespace packed {

std::vector<TritWord> pack(TritSpan trits) {
  const std::size_t words = trit_words(trits.size());
  std::vector<TritWord> out(2 * words, 0);
  for (std::size_t i = 0; i < trits.size(); ++i) {
    const TritWord bit = TritWord{1} << (i % kTritWordBits);
    if (trits[i] == Trit::Yes) out[i / kTritWordBits] |= bit;
    if (trits[i] == Trit::Maybe) out[words + i / kTritWordBits] |= bit;
  }
  return out;
}

TritVector unpack(PackedTritSpan mask, std::size_t width) {
  const std::size_t words = trit_words(width);
  if (mask.size() != 2 * words) throw std::invalid_argument("packed::unpack: size mismatch");
  TritVector out(width, Trit::No);
  for (std::size_t i = 0; i < width; ++i) {
    const TritWord bit = TritWord{1} << (i % kTritWordBits);
    if ((mask[i / kTritWordBits] & bit) != 0) out.set(i, Trit::Yes);
    if ((mask[words + i / kTritWordBits] & bit) != 0) out.set(i, Trit::Maybe);
  }
  return out;
}

}  // namespace packed

}  // namespace gryphon
