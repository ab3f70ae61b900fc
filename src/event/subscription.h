// Content-based subscriptions.
//
// A subscription is a conjunction of tests over the attributes of one event
// schema, e.g. (issue="IBM" & price < 120 & volume > 1000). Attributes not
// mentioned are "don't care" (the paper's `*`). Following the paper, at most
// one test applies per attribute; the parser folds multiple comparisons on
// the same attribute into a single interval test where possible.
#pragma once

#include <limits>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/ids.h"
#include "event/event.h"
#include "event/schema.h"
#include "event/value.h"

namespace gryphon {

/// The kind of test attached to one attribute position.
enum class TestKind : std::uint8_t {
  kDontCare = 0,  // the `*` branch — matches anything
  kEquals = 1,    // attribute == operand
  kNotEquals = 2, // attribute != operand
  kRange = 3,     // lo (<|<=) attribute (<|<=) hi, either side may be open
};

/// One per-attribute test. For kRange, missing bounds are open (unbounded).
///
/// Layout: a subscription holds one test per schema attribute, so the
/// size of this struct times the schema's arity times the subscription
/// count is most of a large simulator instance's resident memory (each
/// subscription is held once, see SubscriptionRef). The paper's workloads
/// (Section 4.1) use only equality and don't-care tests, so the layout is
/// sized for them: the one operand an equality or not-equals test needs is
/// inline, and the two optional range bounds live out of line in a shared
/// immutable block that only range tests allocate (copies share it). Equality, not-equals and
/// don't-care tests therefore cost sizeof(AttributeTest) bytes and no heap
/// block; the static_assert below keeps that at one cache line.
class AttributeTest {
 public:
  /// The don't-care test.
  AttributeTest() = default;

  static AttributeTest dont_care() { return {}; }
  static AttributeTest equals(Value v);
  static AttributeTest not_equals(Value v);
  static AttributeTest less_than(Value v, bool inclusive = false);
  static AttributeTest greater_than(Value v, bool inclusive = false);
  static AttributeTest between(Value lo, Value hi, bool lo_inclusive = true,
                               bool hi_inclusive = true);
  /// The general range test: either bound may be absent (open). The
  /// inclusivity flags are kept as given even for an absent bound, so the
  /// codec's wire form round-trips exactly. A range with no bound at all
  /// can be built, and Subscription rejects it.
  static AttributeTest range(std::optional<Value> lo, std::optional<Value> hi,
                             bool lo_inclusive = true, bool hi_inclusive = true);

  [[nodiscard]] TestKind kind() const { return kind_; }
  [[nodiscard]] bool is_dont_care() const { return kind_ == TestKind::kDontCare; }
  /// The operand of a kEquals / kNotEquals test (unset otherwise).
  [[nodiscard]] const Value& operand() const { return operand_; }
  /// The range bounds of a kRange test; null when open (and for every
  /// other kind).
  [[nodiscard]] const Value* lo() const {
    return bounds_ != nullptr && bounds_->lo ? &*bounds_->lo : nullptr;
  }
  [[nodiscard]] const Value* hi() const {
    return bounds_ != nullptr && bounds_->hi ? &*bounds_->hi : nullptr;
  }
  [[nodiscard]] bool lo_inclusive() const { return lo_inclusive_; }
  [[nodiscard]] bool hi_inclusive() const { return hi_inclusive_; }

  /// Evaluates the test against a concrete value.
  [[nodiscard]] bool accepts(const Value& v) const;

  /// Structural equality (used to share PST branches between subscriptions).
  friend bool operator==(const AttributeTest& a, const AttributeTest& b);

  [[nodiscard]] std::string to_text(const std::string& attribute_name) const;

  /// Heap bytes this test owns beyond sizeof(AttributeTest): the operand's
  /// string buffer, and the range block (counted in full by every sharer).
  [[nodiscard]] std::size_t heap_bytes() const;

 private:
  struct Bounds {
    std::optional<Value> lo;
    std::optional<Value> hi;
  };

  Value operand_;                        // kEquals / kNotEquals
  std::shared_ptr<const Bounds> bounds_;  // kRange with a bound; else null
  TestKind kind_{TestKind::kDontCare};
  bool lo_inclusive_{true};
  bool hi_inclusive_{true};
};

static_assert(sizeof(AttributeTest) <= 64, "AttributeTest must stay within one cache line");

/// An immutable conjunction of per-attribute tests over a schema.
class Subscription {
 public:
  /// `tests` is positional: tests[i] applies to schema attribute i.
  /// Throws std::invalid_argument on arity mismatch or type/domain errors.
  Subscription(SchemaPtr schema, std::vector<AttributeTest> tests);

  /// The all-don't-care subscription: matches every event of the schema.
  static Subscription match_all(SchemaPtr schema);

  [[nodiscard]] const SchemaPtr& schema() const { return schema_; }
  [[nodiscard]] const std::vector<AttributeTest>& tests() const { return tests_; }
  [[nodiscard]] const AttributeTest& test(std::size_t index) const { return tests_[index]; }

  /// Number of non-* tests (selectivity indicator).
  [[nodiscard]] std::size_t specific_test_count() const;

  /// Full predicate evaluation against an event.
  [[nodiscard]] bool matches(const Event& event) const;

  /// True when every test is an equality or a don't-care. Trit annotation of
  /// the PST (paper Section 3.1) is defined for this class of subscriptions.
  [[nodiscard]] bool equality_only() const;

  /// Rendering such as (issue = "IBM" & price < 120).
  [[nodiscard]] std::string to_text() const;

  /// Bytes this subscription occupies: the object, its test array and
  /// every test's heap blocks (the schema is shared and not counted).
  [[nodiscard]] std::size_t memory_bytes() const;

  friend bool operator==(const Subscription& a, const Subscription& b) {
    return a.schema_ == b.schema_ && a.tests_ == b.tests_;
  }

 private:
  SchemaPtr schema_;
  std::vector<AttributeTest> tests_;
};

/// A subscription held once and shared by reference. The broker core and
/// the simulator create one immutable object per subscription when it
/// arrives, and every structure that keeps it (matcher registries, the
/// covering index, the simulator's store) holds this reference instead of
/// a copy.
using SubscriptionRef = std::shared_ptr<const Subscription>;

}  // namespace gryphon
