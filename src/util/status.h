// Status / Result error model used across the library.
//
// Storage-system idiom (LevelDB/Ceph style): recoverable errors travel as
// values, assertions guard contract violations. A `Status` is cheap to copy
// in the OK case (single enum) and carries a message otherwise.
#pragma once

#include <cassert>
#include <string>
#include <string_view>
#include <utility>
#include <variant>

namespace vde {

enum class StatusCode {
  kOk = 0,
  kNotFound,
  kCorruption,
  kInvalidArgument,
  kIoError,
  kPermissionDenied,
  kOutOfSpace,
  kBusy,
};

// Human-readable name for a status code, e.g. "Corruption".
std::string_view StatusCodeName(StatusCode code);

class Status {
 public:
  Status() = default;  // OK
  Status(StatusCode code, std::string message)
      : code_(code), message_(std::move(message)) {}

  static Status Ok() { return Status(); }
  static Status NotFound(std::string m = "") {
    return Status(StatusCode::kNotFound, std::move(m));
  }
  static Status Corruption(std::string m = "") {
    return Status(StatusCode::kCorruption, std::move(m));
  }
  static Status InvalidArgument(std::string m = "") {
    return Status(StatusCode::kInvalidArgument, std::move(m));
  }
  static Status IoError(std::string m = "") {
    return Status(StatusCode::kIoError, std::move(m));
  }
  static Status PermissionDenied(std::string m = "") {
    return Status(StatusCode::kPermissionDenied, std::move(m));
  }
  static Status OutOfSpace(std::string m = "") {
    return Status(StatusCode::kOutOfSpace, std::move(m));
  }
  static Status Busy(std::string m = "") {
    return Status(StatusCode::kBusy, std::move(m));
  }

  bool ok() const { return code_ == StatusCode::kOk; }
  StatusCode code() const { return code_; }
  const std::string& message() const { return message_; }

  bool IsNotFound() const { return code_ == StatusCode::kNotFound; }
  bool IsCorruption() const { return code_ == StatusCode::kCorruption; }

  // "OK" or "<CodeName>: <message>".
  std::string ToString() const;

  friend bool operator==(const Status& a, const Status& b) {
    return a.code_ == b.code_;
  }

 private:
  StatusCode code_ = StatusCode::kOk;
  std::string message_;
};

// Result<T>: either a value or a non-OK Status.
template <typename T>
class Result {
 public:
  Result(T value) : var_(std::move(value)) {}  // NOLINT: implicit by design
  Result(Status status) : var_(std::move(status)) {
    assert(!std::get<Status>(var_).ok() && "Result from OK status has no value");
  }

  bool ok() const { return std::holds_alternative<T>(var_); }
  explicit operator bool() const { return ok(); }

  const T& value() const& {
    assert(ok());
    return std::get<T>(var_);
  }
  T& value() & {
    assert(ok());
    return std::get<T>(var_);
  }
  T&& value() && {
    assert(ok());
    return std::get<T>(std::move(var_));
  }

  const T& operator*() const& { return value(); }
  T& operator*() & { return value(); }
  const T* operator->() const { return &value(); }
  T* operator->() { return &value(); }

  Status status() const {
    return ok() ? Status::Ok() : std::get<Status>(var_);
  }

  // Value if OK, otherwise `fallback`.
  T value_or(T fallback) const& { return ok() ? value() : std::move(fallback); }

 private:
  std::variant<T, Status> var_;
};

}  // namespace vde

// Propagate a non-OK Status from an expression.
#define VDE_RETURN_IF_ERROR(expr)                \
  do {                                           \
    ::vde::Status vde_status_ = (expr);          \
    if (!vde_status_.ok()) return vde_status_;   \
  } while (0)

// Assign the value of a Result expression or propagate its Status.
#define VDE_ASSIGN_OR_RETURN(lhs, expr)            \
  auto vde_result_##__LINE__ = (expr);             \
  if (!vde_result_##__LINE__.ok())                 \
    return vde_result_##__LINE__.status();         \
  lhs = std::move(vde_result_##__LINE__).value()

// Coroutine variants (co_return instead of return).
#define VDE_CO_RETURN_IF_ERROR(expr)                 \
  do {                                               \
    ::vde::Status vde_status_ = (expr);              \
    if (!vde_status_.ok()) co_return vde_status_;    \
  } while (0)

#define VDE_CO_ASSIGN_OR_RETURN(lhs, expr)           \
  auto vde_result_##__LINE__ = (expr);               \
  if (!vde_result_##__LINE__.ok())                   \
    co_return vde_result_##__LINE__.status();        \
  lhs = std::move(vde_result_##__LINE__).value()
