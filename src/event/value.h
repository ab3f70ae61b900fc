// Attribute values and their types.
//
// An information space defines an event schema: an ordered list of typed
// attributes (paper Section 1: "[issue: string, price: dollar, volume:
// integer]"). Values are a closed variant over the supported attribute types.
#pragma once

#include <cstdint>
#include <string>
#include <variant>

namespace gryphon {

enum class AttributeType : std::uint8_t { kInt = 0, kDouble = 1, kString = 2, kBool = 3 };

/// Human-readable name of a type ("int", "double", "string", "bool").
const char* to_string(AttributeType type) noexcept;

/// A single attribute value. Monostate represents "unset" (only valid while
/// an event is under construction; complete events have every slot set).
class Value {
 public:
  Value() = default;
  // Implicit by design: attribute literals read as values in tests and
  // subscription builders (google-explicit-constructor is not part of the
  // curated .clang-tidy check set).
  Value(std::int64_t v) : data_(v) {}
  Value(int v) : data_(std::int64_t{v}) {}
  Value(double v) : data_(v) {}
  Value(std::string v) : data_(std::move(v)) {}
  Value(const char* v) : data_(std::string(v)) {}
  Value(bool v) : data_(v) {}

  [[nodiscard]] bool is_set() const { return data_.index() != 0; }
  [[nodiscard]] bool is_int() const { return std::holds_alternative<std::int64_t>(data_); }
  [[nodiscard]] bool is_double() const { return std::holds_alternative<double>(data_); }
  [[nodiscard]] bool is_string() const { return std::holds_alternative<std::string>(data_); }
  [[nodiscard]] bool is_bool() const { return std::holds_alternative<bool>(data_); }

  /// Accessors; precondition: the value holds that alternative.
  [[nodiscard]] std::int64_t as_int() const { return std::get<std::int64_t>(data_); }
  [[nodiscard]] double as_double() const { return std::get<double>(data_); }
  [[nodiscard]] const std::string& as_string() const { return std::get<std::string>(data_); }
  [[nodiscard]] bool as_bool() const { return std::get<bool>(data_); }

  /// True when this value's dynamic type matches the schema type.
  [[nodiscard]] bool matches_type(AttributeType type) const;

  /// Numeric values of either arithmetic type widened to double.
  /// Precondition: is_int() || is_double().
  [[nodiscard]] double as_number() const;

  /// Total order within one type; ordering across types follows variant index.
  friend bool operator==(const Value& a, const Value& b) { return a.data_ == b.data_; }
  friend bool operator!=(const Value& a, const Value& b) { return !(a == b); }
  friend bool operator<(const Value& a, const Value& b) { return a.data_ < b.data_; }
  friend bool operator<=(const Value& a, const Value& b) { return !(b < a); }
  friend bool operator>(const Value& a, const Value& b) { return b < a; }
  friend bool operator>=(const Value& a, const Value& b) { return !(a < b); }

  /// Stable hash (used to key equality branches in the parallel search tree).
  [[nodiscard]] std::size_t hash() const noexcept;

  /// Rendering for logs, examples, and predicate round-tripping.
  [[nodiscard]] std::string to_text() const;

  /// Heap bytes owned beyond sizeof(Value): a string's buffer when it
  /// outgrows the small-string storage, else 0.
  [[nodiscard]] std::size_t heap_bytes() const;

 private:
  std::variant<std::monostate, std::int64_t, double, std::string, bool> data_;
};

struct ValueHash {
  std::size_t operator()(const Value& v) const noexcept { return v.hash(); }
};

}  // namespace gryphon
