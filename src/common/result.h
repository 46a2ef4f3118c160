#ifndef SILOFUSE_COMMON_RESULT_H_
#define SILOFUSE_COMMON_RESULT_H_

#include <optional>
#include <utility>

#include "common/check.h"
#include "common/status.h"

namespace silofuse {

/// Holds either a value of type T or an error Status (never both).
///
/// Usage:
///   Result<Table> r = Table::FromCsv(path);
///   if (!r.ok()) return r.status();
///   Table t = std::move(r).Value();
template <typename T>
class Result {
 public:
  /// Constructs from a value (implicit so functions can `return value;`).
  Result(T value) : value_(std::move(value)) {}  // NOLINT(runtime/explicit)

  /// Constructs from an error status. `status.ok()` must be false.
  Result(Status status)  // NOLINT(runtime/explicit)
      : status_(std::move(status)) {
    SF_CHECK(!status_.ok()) << "Result constructed from OK status";
  }

  bool ok() const { return value_.has_value(); }

  const Status& status() const { return status_; }

  /// Returns the contained value. Requires ok().
  const T& Value() const& {
    SF_CHECK(ok()) << "Result::Value on error: " << status_.ToString();
    return *value_;
  }
  T& Value() & {
    SF_CHECK(ok()) << "Result::Value on error: " << status_.ToString();
    return *value_;
  }
  T&& Value() && {
    SF_CHECK(ok()) << "Result::Value on error: " << status_.ToString();
    return std::move(*value_);
  }

 private:
  std::optional<T> value_;
  Status status_;
};

/// Assigns the value of a Result expression to `lhs`, or propagates its
/// error status from the current function.
#define SF_ASSIGN_OR_RETURN(lhs, expr)           \
  auto SF_CONCAT_(_res_, __LINE__) = (expr);     \
  if (!SF_CONCAT_(_res_, __LINE__).ok())         \
    return SF_CONCAT_(_res_, __LINE__).status(); \
  lhs = std::move(SF_CONCAT_(_res_, __LINE__)).Value()

#define SF_CONCAT_IMPL_(a, b) a##b
#define SF_CONCAT_(a, b) SF_CONCAT_IMPL_(a, b)

}  // namespace silofuse

#endif  // SILOFUSE_COMMON_RESULT_H_
