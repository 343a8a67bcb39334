// Capability-annotated wrappers over std::mutex / std::shared_mutex and
// the RAII guards the store uses, so Clang Thread Safety Analysis can see
// every acquisition site. The wrappers are zero-overhead: each method is a
// one-line forward into the standard primitive, and the annotations expand
// to nothing outside annotated clang builds (see thread_annotations.h).
//
// Conventions used throughout the codebase:
//  - Data members are declared `PNW_GUARDED_BY(mu_)`.
//  - Methods that assume a held lock are `PNW_REQUIRES(mu_)` (exclusive)
//    or `PNW_REQUIRES_SHARED(mu_)` (reader).
//  - Entry points that take the lock themselves are `PNW_EXCLUDES(mu_)`
//    where re-entry would deadlock.
//  - Condition-variable waits use explicit `while (!cond) cv.Wait(lock);`
//    loops, never predicate lambdas: the analysis cannot attach REQUIRES
//    contracts to lambdas, so the predicate form hides guarded accesses.
#ifndef PNW_UTIL_MUTEX_H_
#define PNW_UTIL_MUTEX_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <shared_mutex>

#include "src/util/thread_annotations.h"

// TSan cannot model standalone fences (GCC 12 even refuses to compile
// atomic_thread_fence under -fsanitize=thread -Werror, and under clang
// the fence is silently invisible to the race detector). Sanitizer
// builds therefore substitute the seqlock's fence edges with RMW
// operations on the sequence word itself: the acquire half of an
// acq_rel RMW pins later accesses after it, the release half pins
// earlier accesses before it -- the same one-way barriers the fences
// provide -- at the cost of readers dirtying the seq cache line, which
// only the sanitizer build pays.
#if defined(__SANITIZE_THREAD__)
#define PNW_SEQLOCK_TSAN 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define PNW_SEQLOCK_TSAN 1
#endif
#endif
#ifndef PNW_SEQLOCK_TSAN
#define PNW_SEQLOCK_TSAN 0
#endif

namespace pnw {
namespace util {

// Exclusive mutex. Wraps std::mutex as a named capability.
class PNW_CAPABILITY("mutex") Mutex {
 public:
  Mutex() = default;
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void Lock() PNW_ACQUIRE() { mu_.lock(); }
  void Unlock() PNW_RELEASE() { mu_.unlock(); }

  // Escape hatch for interop with std:: wait primitives; the holder of
  // the native handle is responsible for the capability bookkeeping.
  std::mutex& native() { return mu_; }

 private:
  std::mutex mu_;
};

// Reader/writer mutex. Wraps std::shared_mutex as a named capability, and
// embeds a seqlock sequence word so readers can validate a lock-free
// optimistic pass instead of bouncing the shared-mutex cache line.
//
// Seqlock protocol (Boehm, "Can seqlocks get along with programming
// language memory models?"):
//  - Writers: Lock() stores seq+1 (odd: write in progress) right after
//    acquiring the exclusive lock, with a release fence ordering the store
//    before the writer's data writes; Unlock() stores seq+1 again (even)
//    with release order *before* dropping the lock.
//  - Readers: OptimisticSeq() acquire-loads the word; an odd value means a
//    writer is inside and the caller should fall back to LockShared().
//    After relaxed-atomic data reads, ValidateSeq(s) issues an acquire
//    fence and re-checks the word: equal means no writer intervened and
//    every value read is consistent; unequal means retry or fall back.
//  - LockShared() does not touch the word: shared holders exclude writers
//    by the mutex itself, and concurrent optimistic readers stay valid.
class PNW_CAPABILITY("shared_mutex") SharedMutex {
 public:
  SharedMutex() = default;
  SharedMutex(const SharedMutex&) = delete;
  SharedMutex& operator=(const SharedMutex&) = delete;

  void Lock() PNW_ACQUIRE() {
    mu_.lock();
#if PNW_SEQLOCK_TSAN
    seq_.fetch_add(1, std::memory_order_acq_rel);
#else
    seq_.store(seq_.load(std::memory_order_relaxed) + 1,
               std::memory_order_relaxed);
    std::atomic_thread_fence(std::memory_order_release);
#endif
  }
  void Unlock() PNW_RELEASE() {
    seq_.store(seq_.load(std::memory_order_relaxed) + 1,
               std::memory_order_release);
    mu_.unlock();
  }
  void LockShared() PNW_ACQUIRE_SHARED() { mu_.lock_shared(); }
  void UnlockShared() PNW_RELEASE_SHARED() { mu_.unlock_shared(); }

  /// Begin an optimistic read section. Odd result: a writer holds the
  /// lock right now -- skip the optimistic pass.
  uint64_t OptimisticSeq() const {
    return seq_.load(std::memory_order_acquire);
  }

  /// End an optimistic read section started at sequence `s`. True means
  /// no writer ran in between: every (relaxed-atomic) load inside the
  /// section observed a consistent snapshot.
  bool ValidateSeq(uint64_t s) const {
#if PNW_SEQLOCK_TSAN
    // fetch_add(0): a no-op RMW whose release half orders the section's
    // data loads before the re-read (atomics are mutation-safe on a
    // const receiver; the member is only non-mutable to keep the
    // production build's pure-load path on a const method too).
    return const_cast<std::atomic<uint64_t>&>(seq_).fetch_add(
               0, std::memory_order_acq_rel) == s;
#else
    std::atomic_thread_fence(std::memory_order_acquire);
    return seq_.load(std::memory_order_relaxed) == s;
#endif
  }

 private:
  std::shared_mutex mu_;
  std::atomic<uint64_t> seq_{0};
};

// RAII exclusive guard over Mutex (std::lock_guard analogue).
class PNW_SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex& mu) PNW_ACQUIRE(mu) : mu_(mu) { mu_.Lock(); }
  ~MutexLock() PNW_RELEASE() { mu_.Unlock(); }
  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

 private:
  Mutex& mu_;
};

// RAII exclusive guard over SharedMutex (std::unique_lock analogue for
// the writer side).
class PNW_SCOPED_CAPABILITY WriterLock {
 public:
  explicit WriterLock(SharedMutex& mu) PNW_ACQUIRE(mu) : mu_(mu) {
    mu_.Lock();
  }
  ~WriterLock() PNW_RELEASE() { mu_.Unlock(); }
  WriterLock(const WriterLock&) = delete;
  WriterLock& operator=(const WriterLock&) = delete;

 private:
  SharedMutex& mu_;
};

// RAII shared guard over SharedMutex (std::shared_lock analogue).
class PNW_SCOPED_CAPABILITY ReaderLock {
 public:
  explicit ReaderLock(SharedMutex& mu) PNW_ACQUIRE_SHARED(mu) : mu_(mu) {
    mu_.LockShared();
  }
  ~ReaderLock() PNW_RELEASE() { mu_.UnlockShared(); }
  ReaderLock(const ReaderLock&) = delete;
  ReaderLock& operator=(const ReaderLock&) = delete;

 private:
  SharedMutex& mu_;
};

// Exclusive guard over Mutex that a CondVar can wait on (the wait drops
// and re-takes the lock). Starts locked.
class PNW_SCOPED_CAPABILITY UniqueLock {
 public:
  explicit UniqueLock(Mutex& mu) PNW_ACQUIRE(mu) : lock_(mu.native()) {}
  ~UniqueLock() PNW_RELEASE() {}
  UniqueLock(const UniqueLock&) = delete;
  UniqueLock& operator=(const UniqueLock&) = delete;

  // For CondVar only.
  std::unique_lock<std::mutex>& native() { return lock_; }

 private:
  std::unique_lock<std::mutex> lock_;
};

// Condition variable that waits on a UniqueLock. All waits re-acquire
// the lock before returning, which matches the analysis' assumption that
// the capability is held continuously across Wait().
class CondVar {
 public:
  CondVar() = default;
  CondVar(const CondVar&) = delete;
  CondVar& operator=(const CondVar&) = delete;

  void Wait(UniqueLock& lock) { cv_.wait(lock.native()); }

  void NotifyOne() { cv_.notify_one(); }
  void NotifyAll() { cv_.notify_all(); }

 private:
  std::condition_variable cv_;
};

}  // namespace util
}  // namespace pnw

#endif  // PNW_UTIL_MUTEX_H_
