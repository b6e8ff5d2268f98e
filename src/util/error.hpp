// Typed errors for the public API and the snapshot failure domains.
//
// Lived in platform/errors.hpp until the fault-injection work: the snapshot
// store and the VM restore path (vmm/) are failure domains too, and they
// must surface typed toss::Error values — never raw std:: exceptions — so
// the recovery ladder in core/platform can tell a transient I/O fault
// (retry) from a corrupted artifact (quarantine + degrade) from a missing
// one (regenerate). platform/errors.hpp now forwards here; the public
// surface is unchanged.
//
// Rules (see DESIGN.md "Public API"):
//   - fallible operations return Result<T> (an std::expected-style
//     value-or-error);
//   - reference-returning accessors throw toss::Error with a
//     machine-readable code; Result<T>::value() throws the same Error, so
//     callers can choose between explicit checking and exception style
//     without losing the code.
#pragma once

#include <optional>
#include <stdexcept>
#include <string>
#include <utility>

#include "util/units.hpp"

namespace toss {

enum class ErrorCode : u8 {
  kUnknownFunction,    ///< name not registered
  kDuplicateFunction,  ///< name already registered
  kInvalidOptions,     ///< registration failed validation
  kInvalidRequest,     ///< malformed invocation parameters
  kSnapshotMissing,    ///< snapshot file id unknown or quarantined
  kSnapshotCorrupted,  ///< checksum mismatch / truncated tier or layout file
  kTransientIo,        ///< torn write, mmap failure: retryable
  kExecutionCrashed,   ///< guest crashed mid-invocation: retryable
  kOverloaded,         ///< admission control shed the request (retry later)
  kHostLost,           ///< owning host crashed; request shed at failover
};

inline const char* error_code_name(ErrorCode code) {
  switch (code) {
    case ErrorCode::kUnknownFunction: return "unknown_function";
    case ErrorCode::kDuplicateFunction: return "duplicate_function";
    case ErrorCode::kInvalidOptions: return "invalid_options";
    case ErrorCode::kInvalidRequest: return "invalid_request";
    case ErrorCode::kSnapshotMissing: return "snapshot_missing";
    case ErrorCode::kSnapshotCorrupted: return "snapshot_corrupted";
    case ErrorCode::kTransientIo: return "transient_io";
    case ErrorCode::kExecutionCrashed: return "execution_crashed";
    case ErrorCode::kOverloaded: return "overloaded";
    case ErrorCode::kHostLost: return "host_lost";
  }
  return "?";
}

/// Transient failures are safe to retry verbatim; everything else needs a
/// different artifact (degrade/regenerate) or a different request.
inline bool is_transient(ErrorCode code) {
  return code == ErrorCode::kTransientIo ||
         code == ErrorCode::kExecutionCrashed;
}

/// The one exception type the public API throws.
class Error : public std::runtime_error {
 public:
  Error(ErrorCode code, const std::string& message)
      : std::runtime_error(std::string(error_code_name(code)) + ": " +
                           message),
        code_(code) {}

  ErrorCode code() const { return code_; }

 private:
  ErrorCode code_;
};

/// Value-or-Error. Engagement is mandatory: value() on an error throws the
/// carried Error; ok()/operator bool gate the explicit-checking style.
template <typename T>
class [[nodiscard]] Result {
 public:
  Result(T value) : value_(std::move(value)) {}  // NOLINT: implicit by design
  Result(ErrorCode code, std::string message)
      : code_(code), message_(std::move(message)) {}

  bool ok() const { return value_.has_value(); }
  explicit operator bool() const { return ok(); }

  const T& value() const& {
    if (!ok()) throw Error(code_, message_);
    return *value_;
  }
  T&& value() && {
    if (!ok()) throw Error(code_, message_);
    return std::move(*value_);
  }
  const T& operator*() const& { return value(); }
  const T* operator->() const { return &value(); }

  /// Only meaningful when !ok().
  ErrorCode code() const { return code_; }
  const std::string& message() const { return message_; }

 private:
  std::optional<T> value_;
  ErrorCode code_ = ErrorCode::kInvalidRequest;
  std::string message_;
};

template <>
class [[nodiscard]] Result<void> {
 public:
  Result() = default;
  Result(ErrorCode code, std::string message)
      : failed_(true), code_(code), message_(std::move(message)) {}

  bool ok() const { return !failed_; }
  explicit operator bool() const { return ok(); }

  /// Throw the carried Error when failed; no-op on success.
  void value() const {
    if (failed_) throw Error(code_, message_);
  }

  ErrorCode code() const { return code_; }
  const std::string& message() const { return message_; }

 private:
  bool failed_ = false;
  ErrorCode code_ = ErrorCode::kInvalidRequest;
  std::string message_;
};

}  // namespace toss
