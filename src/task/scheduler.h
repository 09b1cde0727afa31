#ifndef AIDA_TASK_SCHEDULER_H_
#define AIDA_TASK_SCHEDULER_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <exception>
#include <memory>
#include <new>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

#include "task/work_stealing_deque.h"
#include "util/cacheline.h"
#include "util/cancellation.h"
#include "util/check.h"
#include "util/function_effects.h"
#include "util/lock_ranks.h"
#include "util/mutex.h"
#include "util/thread_annotations.h"

namespace aida::task {

class Scheduler;
class TaskGroup;

namespace internal {

/// Callables whose state fits this many bytes are stored inside the
/// TaskNode itself; larger ones fall back to one boxed heap allocation.
/// 64 bytes covers every fork-join lambda in the tree (ParallelChunks
/// chunks capture two indices and a reference) with room to spare.
inline constexpr size_t kInlineTaskBytes = 64;

/// One spawned task. Obtained by TaskGroup::Run from the origin slot's
/// free list (allocating only when the list is empty), consumed
/// (executed and recycled) by exactly one thread: the owner popping its
/// deque, a worker or waiter stealing it, or whoever drains the
/// injection queue.
///
/// The callable lives in `storage` — NOT in a std::function — so a warm
/// steady-state spawn touches the allocator zero times: the old
/// `new TaskNode{std::function...}` pattern cost two heap round-trips
/// per task (node + function target), which the alloc probe flagged as
/// the dominant churn of parallel disambiguation
/// (TaskGroupAllocTest.WarmForkJoinDoesNotAllocate pins the fix).
struct TaskNode {
  /// Invokes the stored callable and destroys it (even on throw).
  void (*invoke)(TaskNode* node) = nullptr;
  /// Destroys the stored callable WITHOUT running it — the fail-fast
  /// drop path when a sibling task already threw.
  void (*destroy)(TaskNode* node) = nullptr;
  TaskGroup* group = nullptr;
  /// Slot the task was pushed from; an executor with a different slot
  /// index counts the run as a steal. Also selects the free list the
  /// node returns to.
  uint32_t origin_slot = 0;
  /// Free-list link, owned by the origin slot's recycle stack.
  TaskNode* next_free = nullptr;
  alignas(std::max_align_t) unsigned char storage[kInlineTaskBytes];

  /// Moves `fn` into the node. Must be balanced by exactly one invoke()
  /// or destroy() call before the node is recycled or reinstalled.
  template <typename Fn>
  void Install(Fn&& fn) {
    using Callable = std::decay_t<Fn>;
    if constexpr (sizeof(Callable) <= kInlineTaskBytes &&
                  alignof(Callable) <= alignof(std::max_align_t) &&
                  std::is_nothrow_move_constructible_v<Callable>) {
      ::new (static_cast<void*>(storage)) Callable(std::forward<Fn>(fn));
      invoke = [](TaskNode* node) {
        Callable* callable =
            std::launder(reinterpret_cast<Callable*>(node->storage));
        // Move to the stack first so the callable's storage is released
        // even when the body throws (the node recycles either way).
        Callable local(std::move(*callable));
        callable->~Callable();
        local();
      };
      destroy = [](TaskNode* node) {
        std::launder(reinterpret_cast<Callable*>(node->storage))->~Callable();
      };
    } else {
      // Oversized or throwing-move callable: box it. One allocation per
      // spawn, same as the old std::function path — acceptable because
      // no hot-path lambda takes this branch (static capture sizes are
      // all well under kInlineTaskBytes).
      Callable* boxed = new Callable(std::forward<Fn>(fn));
      ::new (static_cast<void*>(storage)) Callable*(boxed);
      invoke = [](TaskNode* node) {
        Callable* boxed =
            *std::launder(reinterpret_cast<Callable**>(node->storage));
        struct Deleter {
          Callable* boxed;
          ~Deleter() { delete boxed; }
        } deleter{boxed};
        (*boxed)();
      };
      destroy = [](TaskNode* node) {
        delete *std::launder(reinterpret_cast<Callable**>(node->storage));
      };
    }
  }
};

}  // namespace internal

/// Configuration of a work-stealing scheduler.
struct SchedulerOptions {
  /// Worker threads executing tasks. 0 selects the hardware concurrency
  /// (at least 1). These are in addition to external threads that join in
  /// as fork-join waiters.
  size_t num_threads = 0;
  /// Per-slot deque ring capacity (rounded up to a power of two). A full
  /// deque spills to the shared injection queue, so this bounds memory,
  /// not task count.
  size_t deque_capacity = 256;
};

/// Point-in-time counters across all slots.
struct SchedulerStats {
  uint64_t tasks_executed = 0;
  uint64_t tasks_stolen = 0;    // executed on a slot != origin slot
  uint64_t overflow_enqueued = 0;  // pushes that spilled to injection
};

/// Work-stealing task scheduler: one bounded Chase-Lev-style deque per
/// slot (worker threads plus claimable participant slots for external
/// fork-join callers), backed by a mutex-guarded shared injection queue
/// that absorbs deque overflow. Workers pop their own deque LIFO, then
/// steal FIFO from the other slots, then drain injection, then park on a
/// waiter-counted condition variable.
///
/// Intended use is intra-request fork-join via TaskGroup (below): the
/// request thread claims a participant slot, spawns tasks into it, and
/// helps execute while waiting, so a single scheduler serves concurrent
/// requests without per-request thread creation.
///
/// Thread-safe. Lock order: inject_mutex_ holds rank
/// lock_rank::kTaskScheduler and is never held while executing a task;
/// TaskGroup::mutex_ (rank kTaskGroup) is a leaf. Destruction requires
/// all TaskGroups to be gone (checked); workers then drain and join.
class Scheduler {
 public:
  explicit Scheduler(const SchedulerOptions& options = {});
  ~Scheduler();

  Scheduler(const Scheduler&) = delete;
  Scheduler& operator=(const Scheduler&) = delete;

  size_t num_threads() const { return num_workers_; }

  SchedulerStats stats() const;

 private:
  friend class TaskGroup;

  struct alignas(util::kCacheLineSize) Slot {
    explicit Slot(size_t capacity) : deque(capacity) {}
    WorkStealingDeque<internal::TaskNode> deque;
    /// Participant slots: claimed by one TaskGroup at a time.
    std::atomic<bool> claimed{false};
    std::atomic<uint64_t> executed{0};
    std::atomic<uint64_t> stolen{0};
    /// Recycled TaskNodes, as a Treiber stack. Multi-producer (any
    /// executor pushes a finished node back to its origin slot),
    /// single-consumer (only the thread bound to this slot pops, in
    /// TaskGroup::Run) — the single consumer is what makes the naive
    /// CAS pop ABA-safe: no other thread ever removes the head, so the
    /// head pointer cannot be recycled under a pop in progress.
    std::atomic<internal::TaskNode*> free_nodes{nullptr};
    /// Approximate size of free_nodes, bounding pooled memory.
    std::atomic<size_t> free_count{0};
  };

  /// Pops a recycled node from `slot_index`'s free list, allocating only
  /// when the list is empty (cold: first requests after start or a
  /// burst deeper than any before). Caller must be the thread bound to
  /// the slot.
  internal::TaskNode* AcquireNode(uint32_t slot_index);

  /// Returns an executed (or dropped) node — callable already destroyed
  /// — to its origin slot's free list; frees it instead once the pool
  /// holds `deque_capacity` nodes.
  void RecycleNode(internal::TaskNode* node);

  /// Publishes `node`: preferred slot's deque first, injection queue on
  /// overflow; wakes a sleeping worker either way. `node->group->pending_`
  /// must already account for it.
  void Enqueue(internal::TaskNode* node, Slot* slot)
      AIDA_EXCLUDES(inject_mutex_);

  /// Steals one task for `thief_index` (scans the other slots round-robin,
  /// then the injection queue). Null when nothing was found.
  internal::TaskNode* TryAcquireWork(uint32_t thief_index)
      AIDA_EXCLUDES(inject_mutex_);

  /// Runs `node` on behalf of slot `executor_index` (kNoSlot for a
  /// slotless inline waiter), records slot + group accounting, deletes
  /// the node. Never called with any scheduler or group lock held.
  void Execute(internal::TaskNode* node, uint32_t executor_index);

  /// Claims a free participant slot; returns kNoSlot when all are taken.
  uint32_t ClaimParticipantSlot();
  void ReleaseParticipantSlot(uint32_t index);

  void WorkerLoop(uint32_t index) AIDA_EXCLUDES(inject_mutex_);

  static constexpr uint32_t kNoSlot = 0xffffffffu;

  size_t num_workers_ = 0;
  /// Per-slot free-list cap (the construction-time deque capacity).
  size_t node_pool_capacity_ = 0;
  /// Fixed at construction: [0, num_workers_) worker slots, the rest
  /// participant slots. unique_ptr keeps Slot addresses stable.
  std::vector<std::unique_ptr<Slot>> slots_;

  util::Mutex inject_mutex_{util::lock_rank::kTaskScheduler};
  util::CondVar work_ready_;
  std::deque<internal::TaskNode*> injection_ AIDA_GUARDED_BY(inject_mutex_);
  size_t sleepers_ AIDA_GUARDED_BY(inject_mutex_) = 0;
  bool stopping_ AIDA_GUARDED_BY(inject_mutex_) = false;

  /// Mirror of injection_.size() so idle probes skip the lock.
  std::atomic<size_t> injection_size_{0};
  /// Tasks published but not yet acquired by any executor. seq_cst
  /// Dekker pairing with sleepers_approx_ prevents a spawn from being
  /// stranded while a worker commits to sleeping.
  std::atomic<size_t> queued_{0};
  /// Mirror of sleepers_ readable without the lock (see Enqueue).
  std::atomic<size_t> sleepers_approx_{0};
  /// Live TaskNodes (enqueued, not yet executed); must be 0 at destruction.
  std::atomic<uint64_t> outstanding_{0};
  std::atomic<uint64_t> overflow_enqueued_{0};

  std::vector<std::thread> threads_;
};

/// Fork-join handle: spawn with Run, join with Wait. The constructor
/// binds the group to a slot — the calling scheduler worker's own slot
/// for nested groups, otherwise a claimed participant slot (released
/// again at destruction), or no slot at all (inline execution) when the
/// scheduler is saturated or null.
///
/// Wait() participates: it pops the group's own deque, then steals any
/// runnable task (including other groups' — helping guarantees progress),
/// and only parks when nothing is runnable. The first exception thrown by
/// a task is captured and rethrown from Wait() after all tasks finished.
///
/// Cancellation is observed at spawn boundaries: once the token trips,
/// Run() stops launching (tasks already spawned still run to completion),
/// so a cancelled fork-join region drains promptly and cancelled()
/// reports that outputs are partial. Bodies poll the same token at finer
/// granularity themselves.
///
/// Not thread-safe: one thread constructs, Runs, Waits, destroys. Tasks
/// may themselves create nested TaskGroups.
class TaskGroup {
 public:
  struct Stats {
    uint64_t spawned = 0;          // tasks handed to the scheduler
    uint64_t inline_executed = 0;  // bodies run inline (no slot / serial)
    uint64_t stolen = 0;           // spawned tasks executed by another slot
  };

  explicit TaskGroup(Scheduler* scheduler,
                     const util::CancellationToken* cancel = nullptr);
  /// Joins outstanding tasks (swallowing any unretrieved exception) if
  /// Wait() was not called.
  ~TaskGroup();

  TaskGroup(const TaskGroup&) = delete;
  TaskGroup& operator=(const TaskGroup&) = delete;

  /// Spawns `fn` (any void() callable). Runs it inline when the group is
  /// slotless; skips it entirely when the cancellation token tripped or
  /// a previous task already failed. Steady-state spawns are
  /// allocation-free: the callable moves into a recycled TaskNode's
  /// inline storage (see internal::TaskNode) as long as its captures fit
  /// internal::kInlineTaskBytes.
  template <typename Fn>
  void Run(Fn&& fn) {
    AIDA_DCHECK(!waited_, "TaskGroup::Run after Wait");
    if (cancel_ != nullptr && cancel_->cancelled()) {
      // Observed cancellation at the spawn boundary: stop launching work.
      cancelled_seen_ = true;
      return;
    }
    if (slot_ == nullptr) {
      if (!BeginInline()) return;  // fail fast once a body threw
      try {
        fn();
      } catch (...) {
        CaptureError(std::current_exception());
      }
      return;
    }
    internal::TaskNode* node = scheduler_->AcquireNode(slot_index_);
    node->Install(std::forward<Fn>(fn));
    node->group = this;
    node->origin_slot = slot_index_;
    SpawnNode(node);
  }

  /// Blocks until every spawned task finished, executing and stealing
  /// work while it waits. Rethrows the first captured task exception.
  /// May be called once; Run() after Wait() is a contract violation.
  void Wait();

  /// True once the token tripped before or during spawning — outputs of
  /// this region are partial and must be discarded by the caller.
  bool cancelled() const;

  /// Spawn/steal accounting; stable after Wait().
  const Stats& stats() const { return stats_; }

 private:
  friend class Scheduler;

  /// Called by the executor after a task body returned or threw. The
  /// group outlives every call: Wait() only returns once pending_ hit 0
  /// under mutex_, which cannot happen before the last OnTaskDone
  /// released it.
  void OnTaskDone(bool stolen, std::exception_ptr error)
      AIDA_EXCLUDES(mutex_);

  /// Wait() body without the rethrow, for the destructor path.
  void Join();

  /// Inline-execution bookkeeping for slotless groups: returns false
  /// (skipping the body) once a previous body threw.
  bool BeginInline() AIDA_EXCLUDES(mutex_);
  /// Records the first exception thrown by an inline body.
  void CaptureError(std::exception_ptr error) AIDA_EXCLUDES(mutex_);
  /// Publishes an installed node to the scheduler (or drops it, callable
  /// destroyed but unrun, when a sibling already failed).
  void SpawnNode(internal::TaskNode* node) AIDA_EXCLUDES(mutex_);

  Scheduler* const scheduler_;
  const util::CancellationToken* const cancel_;
  Scheduler::Slot* slot_ = nullptr;
  uint32_t slot_index_ = Scheduler::kNoSlot;
  bool owns_slot_ = false;
  /// Saved thread-slot binding, restored when an owned slot is released.
  Scheduler* prev_tls_scheduler_ = nullptr;
  uint32_t prev_tls_slot_index_ = Scheduler::kNoSlot;
  bool waited_ = false;
  bool cancelled_seen_ = false;
  Stats stats_;

  util::Mutex mutex_{util::lock_rank::kTaskGroup};
  util::CondVar done_;
  uint64_t pending_ AIDA_GUARDED_BY(mutex_) = 0;
  uint64_t stolen_count_ AIDA_GUARDED_BY(mutex_) = 0;
  std::exception_ptr error_ AIDA_GUARDED_BY(mutex_);
};

}  // namespace aida::task

#endif  // AIDA_TASK_SCHEDULER_H_
