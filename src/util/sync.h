#pragma once

// Annotated synchronization primitives: the repo's *only* legal spelling of
// a mutex or condition variable (scripts/check_invariants.sh enforces that
// raw std::mutex / std::condition_variable appear nowhere else under src/).
//
// The wrappers carry Clang's -Wthread-safety capability attributes, so a
// Clang build proves the lock discipline of the whole runtime at compile
// time: every field annotated GUARDED_BY(mu) can only be touched while
// `mu` is held, every method annotated REQUIRES(mu) can only be called
// with `mu` held, and MutexLock's scoped acquire/release is tracked
// through every control path (including exceptional returns). Under GCC
// the attributes expand to nothing and the wrappers compile down to the
// std types they hold — zero size or call overhead (asserted in
// tests/test_sync.cpp and timed in bench/micro_sync.cpp).
//
// Why this matters here: the repo's core invariant — bitwise parity across
// the concurrent backends — rests on a small set of locking protocols
// (generation barriers, 1F1B admission, scheduler gates). The planned
// free-running-commit work deliberately *weakens* those protocols into
// seqlock reads; with the contracts in the type system, each relaxation is
// an explicit, reviewable annotation change instead of a silent race that
// only fires if a TSan run happens to exercise it. The deliberately-broken
// TUs in tests/static/ assert the analysis actually rejects violations.
//
// Style follows abseil's thread_annotations.h / absl::Mutex surface; the
// attribute names are Clang's "capability" vocabulary
// (https://clang.llvm.org/docs/ThreadSafetyAnalysis.html).

#include <chrono>
#include <condition_variable>
#include <mutex>

#if defined(__clang__)
#define PIPEMARE_TSA(x) __attribute__((x))
#else
#define PIPEMARE_TSA(x)  // no-op outside Clang (GCC ignores the analysis)
#endif

// -- Attributes on types ----------------------------------------------------
#define CAPABILITY(x) PIPEMARE_TSA(capability(x))
#define SCOPED_CAPABILITY PIPEMARE_TSA(scoped_lockable)

// -- Attributes on data members ---------------------------------------------
#define GUARDED_BY(x) PIPEMARE_TSA(guarded_by(x))
#define PT_GUARDED_BY(x) PIPEMARE_TSA(pt_guarded_by(x))
#define ACQUIRED_BEFORE(...) PIPEMARE_TSA(acquired_before(__VA_ARGS__))
#define ACQUIRED_AFTER(...) PIPEMARE_TSA(acquired_after(__VA_ARGS__))

// -- Attributes on functions ------------------------------------------------
#define REQUIRES(...) PIPEMARE_TSA(requires_capability(__VA_ARGS__))
#define ACQUIRE(...) PIPEMARE_TSA(acquire_capability(__VA_ARGS__))
#define RELEASE(...) PIPEMARE_TSA(release_capability(__VA_ARGS__))
#define TRY_ACQUIRE(...) PIPEMARE_TSA(try_acquire_capability(__VA_ARGS__))
#define EXCLUDES(...) PIPEMARE_TSA(locks_excluded(__VA_ARGS__))
#define ASSERT_CAPABILITY(x) PIPEMARE_TSA(assert_capability(x))
#define RETURN_CAPABILITY(x) PIPEMARE_TSA(lock_returned(x))
#define NO_THREAD_SAFETY_ANALYSIS PIPEMARE_TSA(no_thread_safety_analysis)

namespace pipemare::util {

/// std::mutex with the `capability` attribute: lockable state the analysis
/// can reason about. Use with MutexLock for scoped sections and CondVar
/// for waiting; call lock()/unlock() directly only where a scope does not
/// fit (the analysis still checks balance on every path).
class CAPABILITY("mutex") Mutex {
 public:
  Mutex() = default;
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void lock() ACQUIRE() { m_.lock(); }
  void unlock() RELEASE() { m_.unlock(); }
  bool try_lock() TRY_ACQUIRE(true) { return m_.try_lock(); }

 private:
  friend class CondVar;
  std::mutex m_;
};

/// RAII scoped lock (std::lock_guard with scope tracking): acquires in the
/// constructor, releases in the destructor, and the analysis knows the
/// mutex is held for exactly the enclosing scope.
class SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex& mu) ACQUIRE(mu) : mu_(mu) { mu_.lock(); }
  ~MutexLock() RELEASE() { mu_.unlock(); }

  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

 private:
  Mutex& mu_;
};

/// std::condition_variable bound to util::Mutex. wait() REQUIRES the mutex,
/// so "waited without holding the lock" is a compile error, not a deadlock
/// found at runtime. There is no predicate overload on purpose: Clang's
/// analysis is intra-procedural and does not propagate the held lock into
/// a lambda body, so predicate lambdas over GUARDED_BY fields would be
/// rejected — callers write the standard `while (!cond) cv.wait(mu);` loop
/// instead, which the analysis checks exactly.
class CondVar {
 public:
  CondVar() = default;
  CondVar(const CondVar&) = delete;
  CondVar& operator=(const CondVar&) = delete;

  /// Atomically releases `mu`, blocks until notified, reacquires `mu`.
  /// Spurious wakeups are possible, as with std::condition_variable.
  void wait(Mutex& mu) REQUIRES(mu) {
    std::unique_lock<std::mutex> lk(mu.m_, std::adopt_lock);
    cv_.wait(lk);
    lk.release();  // ownership stays with the caller's scope
  }

  /// Timed wait: atomically releases `mu`, blocks until notified or until
  /// `timeout` elapses, reacquires `mu`. Returns false iff the wait timed
  /// out. Spurious wakeups are possible either way, so callers re-check
  /// their predicate in the usual while-loop regardless of the result; the
  /// return value only distinguishes "deadline passed" for callers that
  /// act on the deadline itself (the serving runtime's batch-flush and
  /// request-deadline timers).
  bool wait_for(Mutex& mu, std::chrono::nanoseconds timeout) REQUIRES(mu) {
    std::unique_lock<std::mutex> lk(mu.m_, std::adopt_lock);
    auto status = cv_.wait_for(lk, timeout);
    lk.release();  // ownership stays with the caller's scope
    return status == std::cv_status::no_timeout;
  }

  void notify_one() noexcept { cv_.notify_one(); }
  void notify_all() noexcept { cv_.notify_all(); }

 private:
  std::condition_variable cv_;
};

}  // namespace pipemare::util
