#include "event/value.h"

#include <functional>
#include <sstream>

namespace gryphon {

const char* to_string(AttributeType type) noexcept {
  switch (type) {
    case AttributeType::kInt: return "int";
    case AttributeType::kDouble: return "double";
    case AttributeType::kString: return "string";
    case AttributeType::kBool: return "bool";
  }
  return "?";
}

bool Value::matches_type(AttributeType type) const {
  switch (type) {
    case AttributeType::kInt: return is_int();
    case AttributeType::kDouble: return is_double();
    case AttributeType::kString: return is_string();
    case AttributeType::kBool: return is_bool();
  }
  return false;
}

double Value::as_number() const {
  return is_int() ? static_cast<double>(as_int()) : as_double();
}

std::size_t Value::hash() const noexcept {
  const std::size_t tag = data_.index();
  std::size_t h = 0;
  switch (data_.index()) {
    case 1: h = std::hash<std::int64_t>{}(as_int()); break;
    case 2: h = std::hash<double>{}(as_double()); break;
    case 3: h = std::hash<std::string>{}(as_string()); break;
    case 4: h = std::hash<bool>{}(as_bool()); break;
    default: break;
  }
  // Mix in the alternative tag so int 1 and bool true hash differently.
  return h ^ (tag * 0x9e3779b97f4a7c15ULL);
}

std::size_t Value::heap_bytes() const {
  if (!is_string()) return 0;
  const std::size_t capacity = as_string().capacity();
  return capacity > std::string().capacity() ? capacity + 1 : 0;
}

std::string Value::to_text() const {
  std::ostringstream os;
  if (is_int()) {
    os << as_int();
  } else if (is_double()) {
    os << as_double();
  } else if (is_string()) {
    os << '"' << as_string() << '"';
  } else if (is_bool()) {
    os << (as_bool() ? "true" : "false");
  } else {
    os << "<unset>";
  }
  return os.str();
}

}  // namespace gryphon
