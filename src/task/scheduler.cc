#include "task/scheduler.h"

#include <chrono>
#include <utility>

#include "util/check.h"

namespace aida::task {

namespace {

/// Slot binding of the current thread: set by WorkerLoop for scheduler
/// workers and by TaskGroup for external threads that claimed a
/// participant slot, so nested TaskGroups on the same thread share one
/// deque instead of claiming a slot each.
thread_local Scheduler* tls_scheduler = nullptr;
thread_local uint32_t tls_slot_index = 0xffffffffu;

/// Slots claimable by external fork-join callers (e.g. serving workers
/// running a parallel disambiguation). A TaskGroup that finds no free slot
/// degrades to inline execution instead of failing.
constexpr size_t kMaxParticipants = 32;

}  // namespace

// ---------------------------------------------------------------------------
// Scheduler

Scheduler::Scheduler(const SchedulerOptions& options) {
  num_workers_ = options.num_threads;
  if (num_workers_ == 0) {
    const unsigned hw = std::thread::hardware_concurrency();
    num_workers_ = hw == 0 ? 1 : hw;
  }
  node_pool_capacity_ = options.deque_capacity;
  const size_t total = num_workers_ + kMaxParticipants;
  slots_.reserve(total);
  for (size_t i = 0; i < total; ++i) {
    slots_.push_back(std::make_unique<Slot>(options.deque_capacity));
  }
  threads_.reserve(num_workers_);
  for (size_t i = 0; i < num_workers_; ++i) {
    threads_.emplace_back([this, i] { WorkerLoop(static_cast<uint32_t>(i)); });
  }
}

Scheduler::~Scheduler() {
  // Contract: every TaskGroup joined before its scheduler dies, so no
  // task can still be queued or running.
  AIDA_DCHECK(outstanding_.load(std::memory_order_acquire) == 0,
              "TaskGroups must not outlive their Scheduler");
  {
    util::MutexLock lock(&inject_mutex_);
    stopping_ = true;
    work_ready_.NotifyAll();
  }
  for (std::thread& thread : threads_) thread.join();
  // All executors are gone and outstanding_ was zero, so every pooled
  // node's callable has already been destroyed — plain deletes remain.
  for (std::unique_ptr<Slot>& slot : slots_) {
    internal::TaskNode* node =
        slot->free_nodes.exchange(nullptr, std::memory_order_acquire);
    while (node != nullptr) {
      internal::TaskNode* next = node->next_free;
      delete node;
      node = next;
    }
  }
}

SchedulerStats Scheduler::stats() const {
  SchedulerStats stats;
  for (const std::unique_ptr<Slot>& slot : slots_) {
    stats.tasks_executed += slot->executed.load(std::memory_order_relaxed);
    stats.tasks_stolen += slot->stolen.load(std::memory_order_relaxed);
  }
  stats.overflow_enqueued = overflow_enqueued_.load(std::memory_order_relaxed);
  return stats;
}

internal::TaskNode* Scheduler::AcquireNode(uint32_t slot_index) {
  Slot& slot = *slots_[slot_index];
  internal::TaskNode* head = slot.free_nodes.load(std::memory_order_acquire);
  while (head != nullptr &&
         !slot.free_nodes.compare_exchange_weak(head, head->next_free,
                                                std::memory_order_acq_rel,
                                                std::memory_order_acquire)) {
  }
  if (head != nullptr) {
    slot.free_count.fetch_sub(1, std::memory_order_relaxed);
    head->next_free = nullptr;
    return head;
  }
  return new internal::TaskNode;
}

void Scheduler::RecycleNode(internal::TaskNode* node) {
  Slot& slot = *slots_[node->origin_slot];
  // Approximate cap: concurrent recyclers may overshoot by a node or
  // two, which only means a marginally larger pool, never unbounded
  // growth.
  if (slot.free_count.load(std::memory_order_relaxed) >=
      node_pool_capacity_) {
    delete node;
    return;
  }
  slot.free_count.fetch_add(1, std::memory_order_relaxed);
  node->invoke = nullptr;
  node->destroy = nullptr;
  node->group = nullptr;
  internal::TaskNode* head = slot.free_nodes.load(std::memory_order_relaxed);
  do {
    node->next_free = head;
  } while (!slot.free_nodes.compare_exchange_weak(head, node,
                                                  std::memory_order_release,
                                                  std::memory_order_relaxed));
}

void Scheduler::Enqueue(internal::TaskNode* node, Slot* slot) {
  outstanding_.fetch_add(1, std::memory_order_relaxed);
  // seq_cst pairs with the sleeper's seq_cst re-check in WorkerLoop
  // (Dekker-style: either the worker sees the new task, or we see the
  // worker's sleeper count and notify it).
  queued_.fetch_add(1, std::memory_order_seq_cst);
  const bool pushed = slot != nullptr && slot->deque.TryPush(node);
  if (!pushed) {
    overflow_enqueued_.fetch_add(1, std::memory_order_relaxed);
  }
  if (!pushed || sleepers_approx_.load(std::memory_order_seq_cst) > 0) {
    util::MutexLock lock(&inject_mutex_);
    if (!pushed) {
      injection_.push_back(node);
      injection_size_.store(injection_.size(), std::memory_order_relaxed);
    }
    if (sleepers_ > 0) work_ready_.NotifyOne();
  }
}

internal::TaskNode* Scheduler::TryAcquireWork(uint32_t thief_index) {
  const size_t n = slots_.size();
  for (size_t k = 1; k <= n; ++k) {
    const size_t victim = (static_cast<size_t>(thief_index) + k) % n;
    if (victim == thief_index) continue;
    internal::TaskNode* node = slots_[victim]->deque.TrySteal();
    if (node != nullptr) {
      queued_.fetch_sub(1, std::memory_order_seq_cst);
      return node;
    }
  }
  if (injection_size_.load(std::memory_order_relaxed) > 0) {
    util::MutexLock lock(&inject_mutex_);
    if (!injection_.empty()) {
      internal::TaskNode* node = injection_.front();
      injection_.pop_front();
      injection_size_.store(injection_.size(), std::memory_order_relaxed);
      queued_.fetch_sub(1, std::memory_order_seq_cst);
      return node;
    }
  }
  return nullptr;
}

void Scheduler::Execute(internal::TaskNode* node, uint32_t executor_index) {
  std::exception_ptr error;
  try {
    node->invoke(node);  // destroys the callable even on throw
  } catch (...) {
    error = std::current_exception();
  }
  const bool stolen = executor_index != node->origin_slot;
  if (executor_index != kNoSlot) {
    Slot& slot = *slots_[executor_index];
    slot.executed.fetch_add(1, std::memory_order_relaxed);
    if (stolen) slot.stolen.fetch_add(1, std::memory_order_relaxed);
  }
  TaskGroup* group = node->group;
  RecycleNode(node);
  outstanding_.fetch_sub(1, std::memory_order_release);
  // Last touch of the group: its Wait() cannot return before this call
  // released the group mutex (pending_ only reaches 0 in here).
  group->OnTaskDone(stolen, std::move(error));
}

uint32_t Scheduler::ClaimParticipantSlot() {
  for (size_t i = num_workers_; i < slots_.size(); ++i) {
    bool expected = false;
    if (slots_[i]->claimed.compare_exchange_strong(
            expected, true, std::memory_order_acq_rel,
            std::memory_order_relaxed)) {
      return static_cast<uint32_t>(i);
    }
  }
  return kNoSlot;
}

void Scheduler::ReleaseParticipantSlot(uint32_t index) {
  AIDA_DCHECK(index != kNoSlot && index >= num_workers_);
  slots_[index]->claimed.store(false, std::memory_order_release);
}

void Scheduler::WorkerLoop(uint32_t index) {
  tls_scheduler = this;
  tls_slot_index = index;
  Slot* slot = slots_[index].get();
  for (;;) {
    internal::TaskNode* node = slot->deque.TryPop();
    if (node != nullptr) {
      queued_.fetch_sub(1, std::memory_order_seq_cst);
    } else {
      node = TryAcquireWork(index);
    }
    if (node != nullptr) {
      Execute(node, index);
      continue;
    }
    bool should_exit = false;
    {
      util::MutexLock lock(&inject_mutex_);
      if (injection_.empty()) {
        if (stopping_) {
          should_exit = true;
        } else {
          ++sleepers_;
          sleepers_approx_.fetch_add(1, std::memory_order_seq_cst);
          // Re-check after announcing the sleep (Dekker pairing with
          // Enqueue): a task published in the gap is seen here, so no
          // spawn can be stranded for a full park timeout. The timeout
          // itself is only a backstop against lost wakeups.
          if (queued_.load(std::memory_order_seq_cst) == 0) {
            work_ready_.WaitFor(inject_mutex_, std::chrono::milliseconds(20));
          }
          sleepers_approx_.fetch_sub(1, std::memory_order_seq_cst);
          --sleepers_;
        }
      }
      // Injection non-empty: fall through, the next TryAcquireWork run
      // (or a steal) picks it up.
    }
    if (should_exit) break;
  }
  tls_scheduler = nullptr;
  tls_slot_index = kNoSlot;
}

// ---------------------------------------------------------------------------
// TaskGroup

TaskGroup::TaskGroup(Scheduler* scheduler,
                     const util::CancellationToken* cancel)
    : scheduler_(scheduler), cancel_(cancel) {
  if (scheduler_ == nullptr) return;  // serial mode: everything inline
  if (tls_scheduler == scheduler_ && tls_slot_index != Scheduler::kNoSlot) {
    // Nested group (scheduler worker or a thread that already holds a
    // participant slot): share the thread's slot.
    slot_index_ = tls_slot_index;
    slot_ = scheduler_->slots_[slot_index_].get();
  } else {
    slot_index_ = scheduler_->ClaimParticipantSlot();
    if (slot_index_ != Scheduler::kNoSlot) {
      slot_ = scheduler_->slots_[slot_index_].get();
      owns_slot_ = true;
      prev_tls_scheduler_ = tls_scheduler;
      prev_tls_slot_index_ = tls_slot_index;
      tls_scheduler = scheduler_;
      tls_slot_index = slot_index_;
    }
    // All participant slots taken: stay slotless and run bodies inline —
    // graceful degradation under scheduler saturation.
  }
}

TaskGroup::~TaskGroup() {
  if (!waited_) Join();  // never leak running tasks; drops any exception
  if (owns_slot_) {
    tls_scheduler = prev_tls_scheduler_;
    tls_slot_index = prev_tls_slot_index_;
    scheduler_->ReleaseParticipantSlot(slot_index_);
  }
}

bool TaskGroup::BeginInline() {
  {
    util::MutexLock lock(&mutex_);
    if (error_) return false;
  }
  ++stats_.inline_executed;
  return true;
}

void TaskGroup::CaptureError(std::exception_ptr error) {
  util::MutexLock lock(&mutex_);
  if (!error_) error_ = std::move(error);
}

void TaskGroup::SpawnNode(internal::TaskNode* node) {
  bool drop = false;
  {
    util::MutexLock lock(&mutex_);
    if (error_) {
      drop = true;  // fail fast once a body threw
    } else {
      ++pending_;
    }
  }
  if (drop) {
    node->destroy(node);
    scheduler_->RecycleNode(node);
    return;
  }
  ++stats_.spawned;
  scheduler_->Enqueue(node, slot_);
}

void TaskGroup::Wait() {
  AIDA_CHECK(!waited_, "TaskGroup::Wait called twice");
  waited_ = true;
  Join();
  std::exception_ptr error;
  {
    util::MutexLock lock(&mutex_);
    error = error_;
    stats_.stolen = stolen_count_;
  }
  if (cancel_ != nullptr && cancel_->cancelled()) cancelled_seen_ = true;
  if (error) std::rethrow_exception(error);
}

bool TaskGroup::cancelled() const {
  return cancelled_seen_ || (cancel_ != nullptr && cancel_->cancelled());
}

void TaskGroup::Join() {
  if (scheduler_ == nullptr) return;
  for (;;) {
    internal::TaskNode* node =
        slot_ != nullptr ? slot_->deque.TryPop() : nullptr;
    if (node != nullptr) {
      scheduler_->queued_.fetch_sub(1, std::memory_order_seq_cst);
    } else {
      {
        util::MutexLock lock(&mutex_);
        if (pending_ == 0) break;
      }
      // Our remaining tasks are running elsewhere (or sit in the
      // injection queue): help global progress instead of blocking —
      // stolen foreign tasks may transitively unblock ours.
      node = scheduler_->TryAcquireWork(slot_index_);
    }
    if (node != nullptr) {
      scheduler_->Execute(node, slot_index_);
      continue;
    }
    util::MutexLock lock(&mutex_);
    if (pending_ == 0) break;
    // Bounded park: completions notify under mutex_, the timeout only
    // re-arms the steal loop (new stealable work does not notify us).
    done_.WaitFor(mutex_, std::chrono::microseconds(500));
    if (pending_ == 0) break;
  }
}

void TaskGroup::OnTaskDone(bool stolen, std::exception_ptr error) {
  util::MutexLock lock(&mutex_);
  if (stolen) ++stolen_count_;
  if (error && !error_) error_ = std::move(error);
  AIDA_DCHECK(pending_ > 0);
  if (--pending_ == 0) done_.NotifyAll();
}

}  // namespace aida::task
