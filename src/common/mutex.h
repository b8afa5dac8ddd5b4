#ifndef QFCARD_COMMON_MUTEX_H_
#define QFCARD_COMMON_MUTEX_H_

#include <condition_variable>
#include <mutex>

#include "common/thread_annotations.h"

namespace qfcard::common {

/// std::mutex wrapped as a Clang thread-safety capability. All shared
/// mutable state in the repo is declared QFCARD_GUARDED_BY one of these, so
/// -Wthread-safety (a blocking CI job) rejects any unlocked access at
/// compile time. Lock/Unlock are lowercase-aliased too so the wrapper still
/// satisfies BasicLockable for std:: facilities.
class QFCARD_CAPABILITY("mutex") Mutex {
 public:
  constexpr Mutex() = default;

  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void Lock() QFCARD_ACQUIRE() { mu_.lock(); }
  void Unlock() QFCARD_RELEASE() { mu_.unlock(); }
  bool TryLock() QFCARD_TRY_ACQUIRE(true) { return mu_.try_lock(); }

  // BasicLockable spelling (std::lock_guard, condition_variable_any, ...).
  void lock() QFCARD_ACQUIRE() { mu_.lock(); }
  void unlock() QFCARD_RELEASE() { mu_.unlock(); }
  bool try_lock() QFCARD_TRY_ACQUIRE(true) { return mu_.try_lock(); }

 private:
  std::mutex mu_;
};

/// RAII lock: holds the Mutex for the enclosing scope. The scoped-capability
/// annotation tells the analysis which guarded members become accessible.
class QFCARD_SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex* mu) QFCARD_ACQUIRE(mu) : mu_(mu) { mu_->Lock(); }
  ~MutexLock() QFCARD_RELEASE() { mu_->Unlock(); }

  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

 private:
  Mutex* const mu_;
};

/// Condition variable paired with Mutex. Wait takes the Mutex directly (and
/// REQUIRES it held), so waiting loops spell their predicate as a plain
/// while-loop over guarded state the analysis can check:
///
///   MutexLock lock(&mu_);
///   while (!ready_) cv_.Wait(&mu_);   // ready_ is GUARDED_BY(mu_)
class CondVar {
 public:
  CondVar() = default;

  CondVar(const CondVar&) = delete;
  CondVar& operator=(const CondVar&) = delete;

  /// Atomically releases *mu, blocks until notified, reacquires *mu.
  /// Spurious wakeups are possible; always wait in a predicate loop.
  void Wait(Mutex* mu) QFCARD_REQUIRES(mu) { cv_.wait(*mu); }

  void NotifyOne() { cv_.notify_one(); }
  void NotifyAll() { cv_.notify_all(); }

 private:
  std::condition_variable_any cv_;
};

}  // namespace qfcard::common

#endif  // QFCARD_COMMON_MUTEX_H_
