#include "util/status.h"

namespace vde {

std::string_view StatusCodeName(StatusCode code) {
  switch (code) {
    case StatusCode::kOk:
      return "OK";
    case StatusCode::kNotFound:
      return "NotFound";
    case StatusCode::kCorruption:
      return "Corruption";
    case StatusCode::kInvalidArgument:
      return "InvalidArgument";
    case StatusCode::kIoError:
      return "IoError";
    case StatusCode::kPermissionDenied:
      return "PermissionDenied";
    case StatusCode::kOutOfSpace:
      return "OutOfSpace";
    case StatusCode::kBusy:
      return "Busy";
  }
  return "Unknown";
}

std::string Status::ToString() const {
  if (ok()) return "OK";
  std::string s(StatusCodeName(code_));
  if (!message_.empty()) {
    s += ": ";
    s += message_;
  }
  return s;
}

}  // namespace vde
