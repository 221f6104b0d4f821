#ifndef EXODUS_EXCESS_EXECUTOR_INTERNAL_H_
#define EXODUS_EXCESS_EXECUTOR_INTERNAL_H_

// Helpers shared by the executor's translation units. Not part of the
// public API.

#include <string>

#include "excess/executor.h"

namespace exodus::excess::internal {

/// RAII user swap for definer-rights execution of functions/procedures.
class ScopedUser {
 public:
  ScopedUser(ExecContext* ctx, const std::string& user)
      : ctx_(ctx), saved_(ctx->current_user) {
    ctx_->current_user = user;
  }
  ~ScopedUser() { ctx_->current_user = saved_; }
  ScopedUser(const ScopedUser&) = delete;
  ScopedUser& operator=(const ScopedUser&) = delete;

 private:
  ExecContext* ctx_;
  std::string saved_;
};

/// Sets `*slot` to `value` for the guard's lifetime, then restores the
/// previous value (the statement's current query, aggregate columns).
template <typename T>
class ScopedValue {
 public:
  ScopedValue(T* slot, T value) : slot_(slot), saved_(*slot) { *slot_ = value; }
  ~ScopedValue() { *slot_ = saved_; }
  ScopedValue(const ScopedValue&) = delete;
  ScopedValue& operator=(const ScopedValue&) = delete;

 private:
  T* slot_;
  T saved_;
};

/// Recursion guard for EXCESS function / procedure invocation.
inline constexpr int kMaxCallDepth = 128;

}  // namespace exodus::excess::internal

#endif  // EXODUS_EXCESS_EXECUTOR_INTERNAL_H_
