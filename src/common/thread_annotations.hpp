// Clang Thread Safety Analysis annotations and annotated lock primitives.
//
// The AMRI_* macros expand to Clang's thread-safety attributes when the
// compiler supports them and to nothing everywhere else, so annotated code
// compiles identically under GCC/MSVC. Clang builds add
// -Wthread-safety -Werror (see the top-level CMakeLists), making the
// annotations a compile-time proof obligation: every access to a
// AMRI_GUARDED_BY member must happen with the named mutex held.
//
// libstdc++'s std::mutex / std::lock_guard are not annotated, so the
// analysis cannot see through them. Mutex-bearing classes therefore use the
// annotated wrappers below (amri::Mutex, amri::MutexLock) instead of the
// raw std types.
//
// Lock-rank cross-check (AMRI103): tools/amri_ast_lint.py extracts the
// static Mutex acquisition graph and emits a total order into
// src/common/lock_ranks.gen.hpp. With AMRI_LOCK_RANK_CHECK defined (on
// under AMRI_ASSERTIONS, i.e. in every sanitizer preset) each Mutex carries
// its generated rank and every acquisition asserts, per thread, that the
// rank is strictly greater than every rank already held — so the static
// graph and real execution are checked against each other.
#pragma once

#include <mutex>

#if defined(AMRI_LOCK_RANK_CHECK)
#include <cstdio>
#include <cstdlib>
#endif

#if defined(__clang__) && (!defined(SWIG))
#define AMRI_THREAD_ANNOTATION(x) __attribute__((x))
#else
#define AMRI_THREAD_ANNOTATION(x)  // no-op
#endif

/// Declares a class to be a lockable capability ("mutex").
#define AMRI_CAPABILITY(x) AMRI_THREAD_ANNOTATION(capability(x))

/// Declares an RAII class whose lifetime acquires/releases a capability.
#define AMRI_SCOPED_CAPABILITY AMRI_THREAD_ANNOTATION(scoped_lockable)

/// Member data that may only be accessed with the given mutex held.
#define AMRI_GUARDED_BY(x) AMRI_THREAD_ANNOTATION(guarded_by(x))

/// Pointer member whose pointee may only be accessed with the mutex held.
#define AMRI_PT_GUARDED_BY(x) AMRI_THREAD_ANNOTATION(pt_guarded_by(x))

/// Function requires the given capabilities to be held by the caller.
#define AMRI_REQUIRES(...) \
  AMRI_THREAD_ANNOTATION(requires_capability(__VA_ARGS__))

/// Function must be called with the given capabilities NOT held.
#define AMRI_EXCLUDES(...) AMRI_THREAD_ANNOTATION(locks_excluded(__VA_ARGS__))

/// Function acquires the capability (and does not release it).
#define AMRI_ACQUIRE(...) \
  AMRI_THREAD_ANNOTATION(acquire_capability(__VA_ARGS__))

/// Function releases the capability.
#define AMRI_RELEASE(...) \
  AMRI_THREAD_ANNOTATION(release_capability(__VA_ARGS__))

/// Function tries to acquire the capability; returns `ret` on success.
#define AMRI_TRY_ACQUIRE(ret, ...) \
  AMRI_THREAD_ANNOTATION(try_acquire_capability(ret, __VA_ARGS__))

/// Function returns a reference to the given capability.
#define AMRI_RETURN_CAPABILITY(x) AMRI_THREAD_ANNOTATION(lock_returned(x))

/// Escape hatch: suppress analysis inside one function (used for accessors
/// that hand out references to guarded state for post-run, quiescent reads).
#define AMRI_NO_THREAD_SAFETY_ANALYSIS \
  AMRI_THREAD_ANNOTATION(no_thread_safety_analysis)

namespace amri {

#if defined(AMRI_LOCK_RANK_CHECK)
namespace lockrank_detail {

/// Per-thread stack of held lock ranks. Fixed storage: the validator must
/// not allocate (it runs inside every lock acquisition, including ones
/// taken under sanitizers).
struct HeldRanks {
  static constexpr int kMaxHeld = 64;
  int ranks[kMaxHeld];
  int depth = 0;
};

inline HeldRanks& held() {
  static thread_local HeldRanks stack;
  return stack;
}

/// Rank 0 marks an unranked mutex (tests, scratch code): skipped entirely.
/// Ranked mutexes must be acquired in strictly increasing rank order per
/// thread; an equal or smaller rank is an ordering violation the static
/// graph (src/common/lock_ranks.gen.hpp) says cannot happen.
inline void note_acquire(int rank) {
  if (rank <= 0) return;
  HeldRanks& s = held();
  for (int i = 0; i < s.depth; ++i) {
    if (s.ranks[i] >= rank) {
      std::fprintf(stderr,
                   "amri: lock-rank violation: acquiring rank %d while "
                   "holding rank %d (see src/common/lock_ranks.gen.hpp)\n",
                   rank, s.ranks[i]);
      std::abort();
    }
  }
  if (s.depth < HeldRanks::kMaxHeld) s.ranks[s.depth] = rank;
  ++s.depth;
}

inline void note_release(int rank) {
  if (rank <= 0) return;
  HeldRanks& s = held();
  // Remove the most recent occurrence; releases are not required to be
  // LIFO (Mutex::unlock can be called directly, out of scope order).
  for (int i = (s.depth <= HeldRanks::kMaxHeld ? s.depth : HeldRanks::kMaxHeld)
               - 1;
       i >= 0; --i) {
    if (s.ranks[i] == rank) {
      for (int j = i; j + 1 < s.depth && j + 1 < HeldRanks::kMaxHeld; ++j) {
        s.ranks[j] = s.ranks[j + 1];
      }
      --s.depth;
      return;
    }
  }
  --s.depth;  // overflowed entry beyond kMaxHeld: depth bookkeeping only
}

}  // namespace lockrank_detail
#endif  // AMRI_LOCK_RANK_CHECK

/// std::mutex with capability annotations so Clang TSA can track it, plus
/// an optional static lock rank (from src/common/lock_ranks.gen.hpp)
/// validated at runtime under AMRI_LOCK_RANK_CHECK.
class AMRI_CAPABILITY("mutex") Mutex {
 public:
  Mutex() = default;
  explicit Mutex(int rank) : rank_(rank) {}
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void lock() AMRI_ACQUIRE() {
#if defined(AMRI_LOCK_RANK_CHECK)
    // Validate before blocking: a genuine inversion should abort with a
    // diagnostic, not deadlock silently against the opposing thread.
    lockrank_detail::note_acquire(rank_);
#endif
    mu_.lock();
  }
  void unlock() AMRI_RELEASE() {
#if defined(AMRI_LOCK_RANK_CHECK)
    lockrank_detail::note_release(rank_);
#endif
    mu_.unlock();
  }
  bool try_lock() AMRI_TRY_ACQUIRE(true) {
    const bool ok = mu_.try_lock();
#if defined(AMRI_LOCK_RANK_CHECK)
    if (ok) lockrank_detail::note_acquire(rank_);
#endif
    return ok;
  }

  int rank() const { return rank_; }

  /// The wrapped mutex, for interop that the analysis cannot follow anyway.
  std::mutex& native() { return mu_; }

 private:
  std::mutex mu_;
  const int rank_ = 0;
};

/// RAII lock for the scope of a block (annotated std::lock_guard analogue).
class AMRI_SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex& mu) AMRI_ACQUIRE(mu) : mu_(mu) { mu_.lock(); }
  ~MutexLock() AMRI_RELEASE() { mu_.unlock(); }

  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

 private:
  Mutex& mu_;
};

}  // namespace amri
