#ifndef EXODUS_UTIL_STATUS_H_
#define EXODUS_UTIL_STATUS_H_

#include <memory>
#include <ostream>
#include <string>
#include <utility>

namespace exodus::util {

/// Error categories used throughout the EXTRA/EXCESS system.
///
/// The project does not use C++ exceptions; every fallible operation
/// returns a `Status` (or a `Result<T>`, see result.h). This mirrors the
/// error-handling idiom of Arrow / RocksDB.
enum class StatusCode {
  kOk = 0,
  kInvalidArgument,    // malformed input that is not a parse error
  kParseError,         // EXCESS lexical/syntactic error
  kTypeError,          // EXTRA type-check / binder failure
  kNotFound,           // missing catalog entry, object, attribute, ...
  kAlreadyExists,      // duplicate definition
  kConstraintViolation,// ownership / referential-integrity violation
  kPermissionDenied,   // authorization failure
  kOutOfRange,         // array index, arity, numeric range
  kIoError,            // file or image I/O failure, corrupt bytes
  kNotImplemented,
  kInternal,           // invariant breakage; indicates a bug
};

/// Human-readable name of a status code (e.g. "TypeError").
const char* StatusCodeToString(StatusCode code);

/// A success-or-error value.
///
/// `Status::OK()` is represented by a null state pointer, making the
/// success path allocation-free and cheap to copy.
class Status {
 public:
  /// Constructs an OK status.
  Status() = default;

  Status(StatusCode code, std::string message) {
    if (code != StatusCode::kOk) {
      state_ = std::make_shared<State>(State{code, std::move(message)});
    }
  }

  Status(const Status&) = default;
  Status& operator=(const Status&) = default;
  Status(Status&&) = default;
  Status& operator=(Status&&) = default;

  static Status OK() { return Status(); }
  static Status InvalidArgument(std::string msg) {
    return Status(StatusCode::kInvalidArgument, std::move(msg));
  }
  static Status ParseError(std::string msg) {
    return Status(StatusCode::kParseError, std::move(msg));
  }
  static Status TypeError(std::string msg) {
    return Status(StatusCode::kTypeError, std::move(msg));
  }
  static Status NotFound(std::string msg) {
    return Status(StatusCode::kNotFound, std::move(msg));
  }
  static Status AlreadyExists(std::string msg) {
    return Status(StatusCode::kAlreadyExists, std::move(msg));
  }
  static Status ConstraintViolation(std::string msg) {
    return Status(StatusCode::kConstraintViolation, std::move(msg));
  }
  static Status PermissionDenied(std::string msg) {
    return Status(StatusCode::kPermissionDenied, std::move(msg));
  }
  static Status OutOfRange(std::string msg) {
    return Status(StatusCode::kOutOfRange, std::move(msg));
  }
  static Status IoError(std::string msg) {
    return Status(StatusCode::kIoError, std::move(msg));
  }
  static Status NotImplemented(std::string msg) {
    return Status(StatusCode::kNotImplemented, std::move(msg));
  }
  static Status Internal(std::string msg) {
    return Status(StatusCode::kInternal, std::move(msg));
  }

  bool ok() const { return state_ == nullptr; }
  StatusCode code() const {
    return state_ ? state_->code : StatusCode::kOk;
  }
  /// The error message; empty for OK.
  const std::string& message() const {
    static const std::string kEmpty;
    return state_ ? state_->message : kEmpty;
  }

  /// "OK" or "<CodeName>: <message>".
  std::string ToString() const;

  bool operator==(const Status& other) const {
    return code() == other.code() && message() == other.message();
  }

 private:
  struct State {
    StatusCode code;
    std::string message;
  };
  std::shared_ptr<State> state_;  // null == OK
};

inline std::ostream& operator<<(std::ostream& os, const Status& s) {
  return os << s.ToString();
}

}  // namespace exodus::util

/// Evaluates `expr` (a Status expression) and returns it from the enclosing
/// function if it is not OK.
#define EXODUS_RETURN_IF_ERROR(expr)                   \
  do {                                                 \
    ::exodus::util::Status _st = (expr);               \
    if (!_st.ok()) return _st;                         \
  } while (0)

#endif  // EXODUS_UTIL_STATUS_H_
