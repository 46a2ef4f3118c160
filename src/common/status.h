#ifndef SILOFUSE_COMMON_STATUS_H_
#define SILOFUSE_COMMON_STATUS_H_

#include <string>
#include <utility>

namespace silofuse {

/// Error codes for fallible SiloFuse operations. Mirrors the Arrow/RocksDB
/// convention of returning a Status instead of throwing exceptions across
/// library boundaries.
enum class StatusCode {
  kOk = 0,
  kInvalidArgument = 1,
  kNotFound = 2,
  kOutOfRange = 3,
  kIOError = 4,
  kInternal = 5,
  kFailedPrecondition = 7,
  /// A party or resource is (possibly transiently) unreachable; callers may
  /// retry with backoff. Produced by the fault-injected transport layer.
  kUnavailable = 8,
  /// An attempt exceeded its per-attempt timeout budget.
  kDeadlineExceeded = 9,
};

/// Returns a stable human-readable name for `code` ("OK",
/// "Invalid argument", ...).
const char* StatusCodeToString(StatusCode code);

/// Outcome of an operation: either OK or an error code plus message.
///
/// Usage:
///   Status s = table.AppendColumn(...);
///   if (!s.ok()) return s;
class Status {
 public:
  /// Constructs an OK status.
  Status() : code_(StatusCode::kOk) {}

  Status(StatusCode code, std::string message)
      : code_(code), message_(std::move(message)) {}

  static Status OK() { return Status(); }
  static Status InvalidArgument(std::string msg) {
    return Status(StatusCode::kInvalidArgument, std::move(msg));
  }
  static Status NotFound(std::string msg) {
    return Status(StatusCode::kNotFound, std::move(msg));
  }
  static Status OutOfRange(std::string msg) {
    return Status(StatusCode::kOutOfRange, std::move(msg));
  }
  static Status IOError(std::string msg) {
    return Status(StatusCode::kIOError, std::move(msg));
  }
  static Status Internal(std::string msg) {
    return Status(StatusCode::kInternal, std::move(msg));
  }
  static Status FailedPrecondition(std::string msg) {
    return Status(StatusCode::kFailedPrecondition, std::move(msg));
  }
  static Status Unavailable(std::string msg) {
    return Status(StatusCode::kUnavailable, std::move(msg));
  }
  static Status DeadlineExceeded(std::string msg) {
    return Status(StatusCode::kDeadlineExceeded, std::move(msg));
  }

  bool ok() const { return code_ == StatusCode::kOk; }
  StatusCode code() const { return code_; }
  const std::string& message() const { return message_; }

  /// "OK" or "<code name>: <message>".
  std::string ToString() const;

  bool operator==(const Status& other) const {
    return code_ == other.code_ && message_ == other.message_;
  }

 private:
  StatusCode code_;
  std::string message_;
};

/// Propagates a non-OK Status from the current function.
#define SF_RETURN_NOT_OK(expr)                 \
  do {                                         \
    ::silofuse::Status _st = (expr);           \
    if (!_st.ok()) return _st;                 \
  } while (false)

}  // namespace silofuse

#endif  // SILOFUSE_COMMON_STATUS_H_
