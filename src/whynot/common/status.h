#ifndef WHYNOT_COMMON_STATUS_H_
#define WHYNOT_COMMON_STATUS_H_

#include <cassert>
#include <optional>
#include <ostream>
#include <string>
#include <utility>

namespace whynot {

/// Error category for a failed operation.
///
/// The library is exception-free: fallible operations return `Status` or
/// `Result<T>` (see below), following the Arrow/RocksDB idiom.
enum class StatusCode {
  kOk = 0,
  /// Malformed input (bad arity, unknown relation, unbound variable, ...).
  kInvalidArgument,
  /// Lookup failed (no such relation / concept / attribute).
  kNotFound,
  /// The request is well-formed but the theory says "no": e.g. deciding
  /// schema subsumption under FDs + IDs combined, which is undecidable
  /// (Table 1 of the paper).
  kUnsupported,
  /// A configured resource limit (chase depth, enumeration cap) was hit
  /// before an answer could be produced.
  kResourceExhausted,
  /// Internal invariant violation; indicates a bug in this library.
  kInternal,
  /// The request's deadline expired before an answer could be produced
  /// (exec::Deadline); partial results travel via exec::Certificate.
  kDeadlineExceeded,
  /// The request was cooperatively cancelled (exec::CancelToken).
  kCancelled,
  /// The operation's inputs are out of date: e.g. a search over an
  /// explain::Binding whose instance was mutated after the binding was made.
  kFailedPrecondition,
};

/// Human-readable name of a status code ("Ok", "InvalidArgument", ...).
const char* StatusCodeName(StatusCode code);

/// Outcome of a fallible operation: a code plus a diagnostic message.
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
  static Status Unsupported(std::string msg) {
    return Status(StatusCode::kUnsupported, std::move(msg));
  }
  static Status ResourceExhausted(std::string msg) {
    return Status(StatusCode::kResourceExhausted, std::move(msg));
  }
  static Status Internal(std::string msg) {
    return Status(StatusCode::kInternal, std::move(msg));
  }
  static Status DeadlineExceeded(std::string msg) {
    return Status(StatusCode::kDeadlineExceeded, std::move(msg));
  }
  static Status Cancelled(std::string msg) {
    return Status(StatusCode::kCancelled, std::move(msg));
  }
  static Status FailedPrecondition(std::string msg) {
    return Status(StatusCode::kFailedPrecondition, std::move(msg));
  }

  bool ok() const { return code_ == StatusCode::kOk; }
  StatusCode code() const { return code_; }
  const std::string& message() const { return message_; }

  /// "OK" or "<CodeName>: <message>".
  std::string ToString() const;

 private:
  StatusCode code_;
  std::string message_;
};

std::ostream& operator<<(std::ostream& os, const Status& status);

/// Either a value of type `T` or an error `Status`. Never both.
template <typename T>
class Result {
 public:
  /// Implicit from a value: allows `return value;` in functions returning
  /// Result<T>.
  Result(T value) : value_(std::move(value)) {}  // NOLINT(runtime/explicit)
  /// Implicit from an error status. Must not be OK.
  Result(Status status) : status_(std::move(status)) {  // NOLINT
    assert(!status_.ok() && "Result constructed from OK status");
    if (status_.ok()) {
      // NDEBUG builds must not fabricate an engaged-looking error result.
      status_ = Status::Internal("Result constructed from OK status");
    }
  }

  /// A Result whose value was consumed by `std::move(r).value()` is no
  /// longer ok(): the moved-from optional stays engaged, but status()
  /// reports the consumption instead of silently staying OK.
  bool ok() const { return value_.has_value() && status_.ok(); }
  const Status& status() const { return status_; }

  /// Requires ok().
  const T& value() const& {
    assert(ok());
    return *value_;
  }
  T& value() & {
    assert(ok());
    return *value_;
  }
  T&& value() && {
    assert(ok());
    status_ = Status::Internal("Result value consumed by move");
    return std::move(*value_);
  }

  const T& operator*() const& { return value(); }
  T& operator*() & { return value(); }
  const T* operator->() const { return &value(); }
  T* operator->() { return &value(); }

 private:
  std::optional<T> value_;
  Status status_;
};

/// Propagates a non-OK Status out of the enclosing function.
#define WHYNOT_RETURN_IF_ERROR(expr)        \
  do {                                      \
    ::whynot::Status _st = (expr);          \
    if (!_st.ok()) return _st;              \
  } while (false)

/// Assigns the value of a Result expression to `lhs`, propagating errors.
#define WHYNOT_ASSIGN_OR_RETURN_IMPL(tmp, lhs, expr) \
  auto tmp = (expr);                                 \
  if (!tmp.ok()) return tmp.status();                \
  lhs = std::move(tmp).value()
#define WHYNOT_ASSIGN_OR_RETURN_CAT(a, b) a##b
#define WHYNOT_ASSIGN_OR_RETURN_NAME(a, b) WHYNOT_ASSIGN_OR_RETURN_CAT(a, b)
#define WHYNOT_ASSIGN_OR_RETURN(lhs, expr)                                  \
  WHYNOT_ASSIGN_OR_RETURN_IMPL(                                             \
      WHYNOT_ASSIGN_OR_RETURN_NAME(_whynot_result_, __LINE__), lhs, expr)

}  // namespace whynot

#endif  // WHYNOT_COMMON_STATUS_H_
