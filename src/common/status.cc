#include "common/status.h"

namespace silofuse {

const char* StatusCodeToString(StatusCode code) {
  switch (code) {
    case StatusCode::kOk:
      return "OK";
    case StatusCode::kInvalidArgument:
      return "Invalid argument";
    case StatusCode::kNotFound:
      return "Not found";
    case StatusCode::kOutOfRange:
      return "Out of range";
    case StatusCode::kIOError:
      return "IO error";
    case StatusCode::kInternal:
      return "Internal error";
    case StatusCode::kFailedPrecondition:
      return "Failed precondition";
    case StatusCode::kUnavailable:
      return "Unavailable";
    case StatusCode::kDeadlineExceeded:
      return "Deadline exceeded";
  }
  return "Unknown";
}

std::string Status::ToString() const {
  if (ok()) return "OK";
  std::string out = StatusCodeToString(code_);
  if (!message_.empty()) {
    out += ": ";
    out += message_;
  }
  return out;
}

}  // namespace silofuse
