#ifndef PNW_UTIL_STATUS_H_
#define PNW_UTIL_STATUS_H_

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <ostream>
#include <string>
#include <string_view>
#include <utility>

namespace pnw {

/// Error-handling vocabulary for the whole library. Fallible operations on
/// hot paths return `Status` (or `Result<T>`) instead of throwing, in the
/// style of RocksDB / Arrow. A default-constructed Status is OK and carries
/// no allocation.
///
/// The class itself is `[[nodiscard]]`: every function returning a Status
/// by value -- current and future, no per-declaration annotation needed --
/// makes a silently ignored result a compile error under -Werror. A
/// deliberate drop must be spelled `(void)Call();` with an adjacent
/// `// status-dropped: <why>` comment; scripts/lint/status_discipline_lint.py
/// enforces both the attribute and the justification.
class [[nodiscard]] Status {
 public:
  /// Machine-readable error category.
  enum class Code : uint8_t {
    kOk = 0,
    kNotFound = 1,
    kAlreadyExists = 2,
    kInvalidArgument = 3,
    kOutOfSpace = 4,
    kFailedPrecondition = 5,
    kInternal = 6,
    kUnimplemented = 7,
    /// Persisted state (snapshot section, op-log record) failed its
    /// checksum or structural validation: the bytes on disk cannot be
    /// trusted. Distinct from kInvalidArgument so recovery callers can
    /// tell "you asked for something nonsensical" from "the file rotted".
    kCorruption = 8,
    /// The networked front-end shed this request under admission control:
    /// the server's global in-flight budget was exhausted, so the frame
    /// was answered without touching the store. Retryable by construction
    /// -- nothing was applied -- and distinct from kOutOfSpace (a *store*
    /// resource) so load-shedding is visible as its own category.
    kOverloaded = 9,
  };

  Status() = default;

  Status(const Status&) = default;
  Status& operator=(const Status&) = default;
  Status(Status&&) = default;
  Status& operator=(Status&&) = default;

  /// Factory constructors, one per category.
  static Status OK() { return Status(); }
  static Status NotFound(std::string_view msg) {
    return Status(Code::kNotFound, msg);
  }
  static Status AlreadyExists(std::string_view msg) {
    return Status(Code::kAlreadyExists, msg);
  }
  static Status InvalidArgument(std::string_view msg) {
    return Status(Code::kInvalidArgument, msg);
  }
  static Status OutOfSpace(std::string_view msg) {
    return Status(Code::kOutOfSpace, msg);
  }
  static Status FailedPrecondition(std::string_view msg) {
    return Status(Code::kFailedPrecondition, msg);
  }
  static Status Internal(std::string_view msg) {
    return Status(Code::kInternal, msg);
  }
  static Status Unimplemented(std::string_view msg) {
    return Status(Code::kUnimplemented, msg);
  }
  static Status Corruption(std::string_view msg) {
    return Status(Code::kCorruption, msg);
  }
  static Status Overloaded(std::string_view msg) {
    return Status(Code::kOverloaded, msg);
  }

  bool ok() const { return code_ == Code::kOk; }
  bool IsNotFound() const { return code_ == Code::kNotFound; }
  bool IsAlreadyExists() const { return code_ == Code::kAlreadyExists; }
  bool IsInvalidArgument() const { return code_ == Code::kInvalidArgument; }
  bool IsOutOfSpace() const { return code_ == Code::kOutOfSpace; }
  bool IsFailedPrecondition() const {
    return code_ == Code::kFailedPrecondition;
  }
  bool IsInternal() const { return code_ == Code::kInternal; }
  bool IsUnimplemented() const { return code_ == Code::kUnimplemented; }
  bool IsCorruption() const { return code_ == Code::kCorruption; }
  bool IsOverloaded() const { return code_ == Code::kOverloaded; }

  Code code() const { return code_; }
  const std::string& message() const { return message_; }

  /// "OK" or "<category>: <message>", for logs and test failures.
  std::string ToString() const;

 private:
  Status(Code code, std::string_view msg) : code_(code), message_(msg) {}

  Code code_ = Code::kOk;
  std::string message_;
};

inline std::ostream& operator<<(std::ostream& os, const Status& s) {
  return os << s.ToString();
}

/// Crash-on-error guard for benches, examples, and test scaffolding: when
/// a failed call invalidates everything downstream of it (a warmup
/// Bootstrap, a bench op loop, a scheme write), aborting with the status
/// beats silently measuring a half-populated store. Library code never
/// uses this -- the store propagates Status to its caller.
inline void AbortOnError(const Status& s, const char* what) {
  if (!s.ok()) {
    std::fprintf(stderr, "%s: %s\n", what, s.ToString().c_str());
    std::abort();
  }
}

namespace internal {
/// Prints `status` and aborts: the failure path of Result<T>::value(), out
/// of line and cold so an inlined value() stays one compare on its ok path.
[[noreturn, gnu::cold]] void DieOnValueOfError(const Status& status);
}  // namespace internal

/// A value-or-error holder. `ok()` must be checked before `value()`.
/// Intentionally minimal: no exceptions, no variant overhead beyond the
/// Status itself.
template <typename T>
class [[nodiscard]] Result {
 public:
  /// Implicit from a value: `return 42;`.
  Result(T value) : value_(std::move(value)) {}  // NOLINT(runtime/explicit)
  /// Implicit from an error status: `return Status::NotFound(...)`.
  Result(Status status) : status_(std::move(status)) {}  // NOLINT

  bool ok() const { return status_.ok(); }
  const Status& status() const { return status_; }

  /// Pre-condition: ok(). Accessing the value of an error Result is a
  /// programming error: every build prints the status and aborts.
  const T& value() const& {
    CheckOk();
    return value_;
  }
  T& value() & {
    CheckOk();
    return value_;
  }
  T&& value() && {
    CheckOk();
    return std::move(value_);
  }

 private:
  void CheckOk() const {
    if (!status_.ok()) {
      internal::DieOnValueOfError(status_);
    }
  }

  T value_{};
  Status status_;
};

/// Result<T> convenience: aborts on error, discards the value (for call
/// sites that only care that the operation landed).
template <typename T>
inline void AbortOnError(const Result<T>& r, const char* what) {
  AbortOnError(r.status(), what);
}

/// Propagate errors upward: `PNW_RETURN_IF_ERROR(DoThing());`
#define PNW_RETURN_IF_ERROR(expr)                 \
  do {                                            \
    ::pnw::Status pnw_status_macro_s = (expr);    \
    if (!pnw_status_macro_s.ok()) {               \
      return pnw_status_macro_s;                  \
    }                                             \
  } while (0)

}  // namespace pnw

#endif  // PNW_UTIL_STATUS_H_
