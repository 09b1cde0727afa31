// Tests for the annotated concurrency primitives (util/mutex.h): the
// util::Mutex / util::MutexLock / util::CondVar wrappers every component
// of the concurrency stack now locks through, and the debug lock-rank
// checker that turns lock-order inversions into immediate reports
// instead of latent deadlocks. The compile-time side of the contracts
// (guarded_by rejection of unguarded accesses) is exercised by
// tools/run_static_analysis.sh via tools/static_analysis/*.cc — a
// runtime test cannot observe a compile error.

#include "util/mutex.h"

#include <atomic>
#include <chrono>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "util/lock_ranks.h"
#include "util/thread_annotations.h"

namespace aida::util {
namespace {

// ---------------------------------------------------------------------------
// Mutex + MutexLock

TEST(MutexTest, GuardedCounterIsExactUnderContention) {
  Mutex mutex;
  long counter AIDA_GUARDED_BY(mutex) = 0;

  constexpr int kThreads = 8;
  constexpr int kIncrementsPerThread = 2000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < kIncrementsPerThread; ++i) {
        MutexLock lock(&mutex);
        ++counter;
      }
    });
  }
  for (std::thread& thread : threads) thread.join();

  MutexLock lock(&mutex);
  EXPECT_EQ(counter, static_cast<long>(kThreads) * kIncrementsPerThread);
}

TEST(MutexTest, TryLockFailsWhileHeldAndSucceedsAfterRelease) {
  Mutex mutex;
  mutex.Lock();

  // Another thread must not get the lock while we hold it.
  std::atomic<bool> try_result{true};
  std::thread contender([&] { try_result = mutex.TryLock(); });
  contender.join();
  EXPECT_FALSE(try_result.load());

  mutex.Unlock();
  std::thread taker([&] {
    try_result = mutex.TryLock();
    if (try_result) mutex.Unlock();
  });
  taker.join();
  EXPECT_TRUE(try_result.load());
}

TEST(MutexTest, AssertHeldPassesForTheHoldingThread) {
  Mutex mutex;
  MutexLock lock(&mutex);
  // Must not abort: the calling thread holds the mutex. (The failing
  // direction is a debug-build abort and is intentionally not exercised
  // in-process.)
  AIDA_ASSERT_HELD(mutex);
}

// ---------------------------------------------------------------------------
// CondVar

TEST(CondVarTest, WaitObservesStateChangedUnderTheMutex) {
  Mutex mutex;
  bool ready AIDA_GUARDED_BY(mutex) = false;
  CondVar cv;

  std::thread waiter([&] {
    MutexLock lock(&mutex);
    while (!ready) cv.Wait(mutex);
    // Mutex is held again on wakeup; mutate to prove it.
    ready = false;
  });

  {
    MutexLock lock(&mutex);
    ready = true;
  }
  cv.NotifyOne();
  waiter.join();

  MutexLock lock(&mutex);
  EXPECT_FALSE(ready);  // the waiter ran its locked post-wait section
}

TEST(CondVarTest, PredicateOverloadWaits) {
  Mutex mutex;
  int stage AIDA_GUARDED_BY(mutex) = 0;
  CondVar cv;

  std::thread waiter([&] {
    MutexLock lock(&mutex);
    // The predicate runs under the mutex (see the header's note on
    // annotating lambdas that touch guarded state).
    cv.Wait(mutex, [&]() AIDA_REQUIRES(mutex) { return stage == 2; });
    stage = 3;
  });

  for (int next = 1; next <= 2; ++next) {
    {
      MutexLock lock(&mutex);
      stage = next;
    }
    cv.NotifyAll();
  }
  waiter.join();

  MutexLock lock(&mutex);
  EXPECT_EQ(stage, 3);
}

TEST(CondVarTest, WaitForTimesOutWhenNeverNotified) {
  Mutex mutex;
  CondVar cv;
  MutexLock lock(&mutex);
  const bool notified = cv.WaitFor(mutex, std::chrono::milliseconds(10));
  EXPECT_FALSE(notified);
}

TEST(CondVarTest, WaitForReturnsTrueOnNotification) {
  Mutex mutex;
  bool waiting AIDA_GUARDED_BY(mutex) = false;
  bool ready AIDA_GUARDED_BY(mutex) = false;
  CondVar cv;
  std::atomic<bool> saw_notification{false};

  std::thread waiter([&] {
    MutexLock lock(&mutex);
    waiting = true;
    cv.NotifyAll();
    while (!ready) {
      if (cv.WaitFor(mutex, std::chrono::seconds(30))) {
        saw_notification = true;
      }
    }
  });

  {
    // Handshake: only notify once the waiter is provably inside WaitFor
    // (it set `waiting` under the mutex we are about to reacquire), so
    // the notification cannot land before the wait begins.
    MutexLock lock(&mutex);
    while (!waiting) cv.Wait(mutex);
    ready = true;
  }
  cv.NotifyAll();
  waiter.join();
  EXPECT_TRUE(saw_notification.load());
}

// ---------------------------------------------------------------------------
// Lock-rank checker

/// Records violations instead of aborting so the inversion paths are
/// testable in-process; restores the default handler and the build's
/// default checking mode on destruction.
class LockRankTest : public ::testing::Test {
 protected:
  void SetUp() override {
    violations().clear();
    previous_handler_ = SetLockRankViolationHandler(&Record);
    previously_enabled_ = LockRankCheckingEnabled();
    EnableLockRankChecking(true);
  }

  void TearDown() override {
    SetLockRankViolationHandler(previous_handler_);
    EnableLockRankChecking(previously_enabled_);
  }

  static std::vector<LockRankViolation>& violations() {
    static std::vector<LockRankViolation> recorded;
    return recorded;
  }

 private:
  static void Record(const LockRankViolation& violation) {
    violations().push_back(violation);
  }

  LockRankViolationHandler previous_handler_ = nullptr;
  bool previously_enabled_ = false;
};

TEST_F(LockRankTest, AscendingAcquisitionPasses) {
  Mutex service(lock_rank::kServiceStop);
  Mutex queue(lock_rank::kBoundedQueue);
  Mutex shard(lock_rank::kRelatednessShard);
  {
    MutexLock outer(&service);
    MutexLock middle(&queue);
    MutexLock inner(&shard);
  }
  EXPECT_TRUE(violations().empty());
}

TEST_F(LockRankTest, InversionIsDetectedAndReported) {
  Mutex queue(lock_rank::kBoundedQueue);
  Mutex service(lock_rank::kServiceStop);
  {
    MutexLock outer(&queue);
    MutexLock inner(&service);  // kServiceStop < kBoundedQueue: inversion
  }
  ASSERT_EQ(violations().size(), 1u);
  EXPECT_EQ(violations()[0].held_rank, lock_rank::kBoundedQueue);
  EXPECT_EQ(violations()[0].acquiring_rank, lock_rank::kServiceStop);
}

TEST_F(LockRankTest, EqualRanksAreAnInversion) {
  // Two mutexes of the same family must never nest: strict increase is
  // the contract, so rank == rank reports.
  Mutex first(lock_rank::kBoundedQueue);
  Mutex second(lock_rank::kBoundedQueue);
  {
    MutexLock outer(&first);
    MutexLock inner(&second);
  }
  EXPECT_EQ(violations().size(), 1u);
}

TEST_F(LockRankTest, ReleaseResetsTheOrderSoSiblingsPass) {
  Mutex queue(lock_rank::kBoundedQueue);
  Mutex service(lock_rank::kServiceStop);
  // Sequential (non-nested) acquisition in any order is fine.
  { MutexLock lock(&queue); }
  { MutexLock lock(&service); }
  { MutexLock lock(&queue); }
  EXPECT_TRUE(violations().empty());
}

TEST_F(LockRankTest, UnrankedMutexesAreExempt) {
  Mutex ranked(lock_rank::kRelatednessShard);
  Mutex unranked;
  {
    MutexLock outer(&ranked);
    MutexLock inner(&unranked);  // no rank: not part of the order
  }
  EXPECT_TRUE(violations().empty());
}

TEST_F(LockRankTest, DisabledCheckerStaysSilent) {
  EnableLockRankChecking(false);
  Mutex queue(lock_rank::kBoundedQueue);
  Mutex service(lock_rank::kServiceStop);
  {
    MutexLock outer(&queue);
    MutexLock inner(&service);  // would report if checking were on
  }
  EXPECT_TRUE(violations().empty());
}

TEST_F(LockRankTest, CondVarWaitReleasesAndReacquiresTheRank) {
  Mutex queue(lock_rank::kBoundedQueue);
  bool ready AIDA_GUARDED_BY(queue) = false;
  CondVar cv;

  std::thread waiter([&] {
    MutexLock lock(&queue);
    while (!ready) cv.Wait(queue);
  });

  // While the waiter sleeps inside Wait it must NOT count as holding the
  // queue rank on ITS thread — and this thread's independent acquisition
  // below is on a different thread's stack entirely, so neither side
  // reports.
  {
    MutexLock lock(&queue);
    ready = true;
  }
  cv.NotifyOne();
  waiter.join();
  EXPECT_TRUE(violations().empty());
}

TEST_F(LockRankTest, NonAbortingHandlerStillAcquiresTheLock) {
  Mutex queue(lock_rank::kBoundedQueue);
  Mutex service(lock_rank::kServiceStop);
  MutexLock outer(&queue);
  MutexLock inner(&service);
  EXPECT_EQ(violations().size(), 1u);
  // The inversion was reported but the recording handler returned; the
  // lock is genuinely held, so the guarded contract still holds.
  AIDA_ASSERT_HELD(service);
}

// ---------------------------------------------------------------------------
// The production lock order, end to end

TEST_F(LockRankTest, DeclaredStackOrderIsStrictlyIncreasing) {
  const int ranks[] = {
      lock_rank::kServiceStop,      lock_rank::kSnapshotPublish,
      lock_rank::kBoundedQueue,     lock_rank::kTaskScheduler,
      lock_rank::kServiceMetrics,   lock_rank::kCandidateStore,
      lock_rank::kRelatednessShard, lock_rank::kTaskGroup,
  };
  for (size_t i = 1; i < std::size(ranks); ++i) {
    EXPECT_LT(ranks[i - 1], ranks[i])
        << "lock_ranks.h order must stay strictly increasing";
  }
}

}  // namespace
}  // namespace aida::util
