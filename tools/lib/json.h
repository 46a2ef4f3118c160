#ifndef SILOFUSE_TOOLS_LIB_JSON_H_
#define SILOFUSE_TOOLS_LIB_JSON_H_

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/result.h"

namespace silofuse {
namespace json {

/// Minimal JSON document model for the analysis tools (sf_report) and the
/// tests: they must read back the telemetry the library itself writes
/// (metrics snapshots, Chrome traces) without an external JSON dependency. Full RFC 8259 input is accepted; numbers are
/// held as double (telemetry values are counts and milliseconds, well inside
/// the 2^53 exact-integer range).
class Value {
 public:
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };

  Value() = default;
  explicit Value(bool b) : kind_(Kind::kBool), bool_(b) {}
  explicit Value(double n) : kind_(Kind::kNumber), number_(n) {}
  explicit Value(std::string s) : kind_(Kind::kString), string_(std::move(s)) {}

  static Value Array() {
    Value v;
    v.kind_ = Kind::kArray;
    return v;
  }
  static Value Object() {
    Value v;
    v.kind_ = Kind::kObject;
    return v;
  }

  Kind kind() const { return kind_; }
  bool is_null() const { return kind_ == Kind::kNull; }
  bool is_bool() const { return kind_ == Kind::kBool; }
  bool is_number() const { return kind_ == Kind::kNumber; }
  bool is_string() const { return kind_ == Kind::kString; }
  bool is_array() const { return kind_ == Kind::kArray; }
  bool is_object() const { return kind_ == Kind::kObject; }

  bool AsBool() const { return bool_; }
  double AsNumber() const { return number_; }
  const std::string& AsString() const { return string_; }
  const std::vector<Value>& AsArray() const { return array_; }
  const std::map<std::string, Value>& AsObject() const { return object_; }

  std::vector<Value>* mutable_array() { return &array_; }
  std::map<std::string, Value>* mutable_object() { return &object_; }

  /// Object member lookup; returns nullptr when absent or not an object.
  const Value* Find(const std::string& key) const;

  /// Convenience typed lookups with fallbacks, for tolerant readers.
  double NumberOr(const std::string& key, double fallback) const;
  std::string StringOr(const std::string& key,
                       const std::string& fallback) const;

 private:
  Kind kind_ = Kind::kNull;
  bool bool_ = false;
  double number_ = 0.0;
  std::string string_;
  std::vector<Value> array_;
  std::map<std::string, Value> object_;
};

/// Parses one JSON document. Trailing non-whitespace, unterminated strings,
/// malformed escapes, and deeply nested input (>256 levels) are errors.
Result<Value> Parse(const std::string& text);

/// Reads and parses `path`; the error message names the file.
Result<Value> ParseFile(const std::string& path);

}  // namespace json
}  // namespace silofuse

#endif  // SILOFUSE_TOOLS_LIB_JSON_H_
