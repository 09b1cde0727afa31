// Tests for the aida::task work-stealing engine and its integration
// into the disambiguation hot path: deque semantics, fork-join
// determinism, steal accounting under contention, exception transport,
// nested groups, cooperative cancellation mid-phase, and the contract
// the whole subsystem exists to keep — a parallel Disambiguate call is
// byte-identical to the serial one.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "core/aida.h"
#include "core/candidates.h"
#include "core/relatedness.h"
#include "task/parallel_for.h"
#include "task/scheduler.h"
#include "task/work_stealing_deque.h"
#include "test_world.h"
#include "util/alloc_probe.h"
#include "util/cancellation.h"
#include "util/stopwatch.h"

namespace aida::task {
namespace {

using ::aida::testing::TestWorld;

// ---- WorkStealingDeque ------------------------------------------------------

TEST(WorkStealingDequeTest, OwnerPopsLifoThiefStealsFifo) {
  WorkStealingDeque<int> deque(8);
  int values[3] = {1, 2, 3};
  for (int& v : values) ASSERT_TRUE(deque.TryPush(&v));
  EXPECT_EQ(deque.TrySteal(), &values[0]);  // thief takes the oldest
  EXPECT_EQ(deque.TryPop(), &values[2]);    // owner takes the newest
  EXPECT_EQ(deque.TryPop(), &values[1]);
  EXPECT_EQ(deque.TryPop(), nullptr);
  EXPECT_EQ(deque.TrySteal(), nullptr);
}

TEST(WorkStealingDequeTest, FullDequeRefusesPush) {
  WorkStealingDeque<int> deque(4);
  int values[5] = {0, 1, 2, 3, 4};
  for (int i = 0; i < 4; ++i) ASSERT_TRUE(deque.TryPush(&values[i]));
  EXPECT_FALSE(deque.TryPush(&values[4]));  // caller spills to injection
  EXPECT_EQ(deque.TrySteal(), &values[0]);
  EXPECT_TRUE(deque.TryPush(&values[4]));  // space reclaimed
}

TEST(WorkStealingDequeTest, ConcurrentThievesTakeEveryItemOnce) {
  constexpr int kItems = 4096;
  WorkStealingDeque<int> deque(kItems);
  std::vector<int> items(kItems);
  std::vector<std::atomic<int>> taken(kItems);
  for (int i = 0; i < kItems; ++i) {
    items[i] = i;
    taken[i].store(0);
    ASSERT_TRUE(deque.TryPush(&items[i]));
  }
  std::vector<std::thread> thieves;
  for (int t = 0; t < 3; ++t) {
    thieves.emplace_back([&] {
      for (;;) {
        int* item = deque.TrySteal();
        if (item == nullptr) {
          if (deque.ApproxSize() == 0) return;
          continue;
        }
        taken[*item].fetch_add(1);
      }
    });
  }
  // The owner pops concurrently with the thieves.
  for (;;) {
    int* item = deque.TryPop();
    if (item == nullptr) break;
    taken[*item].fetch_add(1);
  }
  for (std::thread& thief : thieves) thief.join();
  for (int i = 0; i < kItems; ++i) {
    EXPECT_EQ(taken[i].load(), 1) << "item " << i;
  }
}

// ---- Scheduler fork-join ----------------------------------------------------

TEST(SchedulerTest, ForkJoinExecutesEveryChunkExactlyOnce) {
  SchedulerOptions options;
  options.num_threads = 2;
  Scheduler scheduler(options);
  constexpr size_t kCount = 20'000;
  std::vector<std::atomic<uint32_t>> writes(kCount);
  for (auto& w : writes) w.store(0);
  const ParallelForStats stats = ParallelChunks(
      &scheduler, kCount, /*max_tasks=*/8, /*cancel=*/nullptr,
      [&](size_t begin, size_t end) {
        for (size_t i = begin; i < end; ++i) writes[i].fetch_add(1);
      });
  EXPECT_EQ(stats.tasks, 8u);
  EXPECT_FALSE(stats.cancelled);
  for (size_t i = 0; i < kCount; ++i) {
    ASSERT_EQ(writes[i].load(), 1u) << "index " << i;
  }
}

TEST(SchedulerTest, ChunkBoundariesAreDeterministic) {
  // The determinism contract: boundaries depend only on (count,
  // max_tasks), so repeated runs fill identical per-chunk slots.
  SchedulerOptions options;
  options.num_threads = 3;
  Scheduler scheduler(options);
  constexpr size_t kCount = 1001;
  constexpr size_t kTasks = 7;
  std::vector<std::pair<size_t, size_t>> reference;
  for (int run = 0; run < 20; ++run) {
    std::vector<std::pair<size_t, size_t>> ranges(kCount);
    ParallelChunks(&scheduler, kCount, kTasks, nullptr,
                   [&](size_t begin, size_t end) {
                     for (size_t i = begin; i < end; ++i) {
                       ranges[i] = {begin, end};
                     }
                   });
    if (run == 0) {
      reference = ranges;
    } else {
      ASSERT_EQ(ranges, reference) << "run " << run;
    }
  }
}

TEST(SchedulerTest, SerialFallbackRunsInlineWithoutScheduler) {
  std::vector<uint64_t> out(100, 0);
  const ParallelForStats stats = ParallelChunks(
      /*scheduler=*/nullptr, out.size(), /*max_tasks=*/8, nullptr,
      [&](size_t begin, size_t end) {
        for (size_t i = begin; i < end; ++i) out[i] = i;
      });
  EXPECT_EQ(stats.tasks, 0u);  // no tasks forked
  for (size_t i = 0; i < out.size(); ++i) EXPECT_EQ(out[i], i);
}

TEST(SchedulerTest, StealUnderContentionStress) {
  // Many external fork-join callers hammer one scheduler with tiny
  // deques, forcing steals and injection-queue overflow. Every task must
  // run exactly once and the slot accounting must balance.
  SchedulerOptions options;
  options.num_threads = 4;
  options.deque_capacity = 8;  // forces overflow spills
  Scheduler scheduler(options);

  constexpr size_t kGroups = 6;
  constexpr size_t kTasksPerGroup = 400;
  std::atomic<uint64_t> executed{0};
  std::vector<TaskGroup::Stats> group_stats(kGroups);
  std::vector<std::thread> callers;
  for (size_t g = 0; g < kGroups; ++g) {
    callers.emplace_back([&, g] {
      TaskGroup group(&scheduler);
      for (size_t t = 0; t < kTasksPerGroup; ++t) {
        group.Run([&executed] {
          // A small spin so tasks overlap long enough to be stolen.
          volatile uint64_t x = 0;
          for (int i = 0; i < 200; ++i) x = x + static_cast<uint64_t>(i);
          executed.fetch_add(1, std::memory_order_relaxed);
        });
      }
      group.Wait();
      group_stats[g] = group.stats();
    });
  }
  for (std::thread& caller : callers) caller.join();
  EXPECT_EQ(executed.load(), kGroups * kTasksPerGroup);
  // Every task ran exactly once: spawned tasks through scheduler slots,
  // the rest (slotless groups) inline in their caller.
  uint64_t spawned = 0, inline_executed = 0;
  for (const TaskGroup::Stats& s : group_stats) {
    EXPECT_EQ(s.spawned + s.inline_executed, kTasksPerGroup);
    spawned += s.spawned;
    inline_executed += s.inline_executed;
  }
  EXPECT_EQ(spawned + inline_executed, kGroups * kTasksPerGroup);
  const SchedulerStats stats = scheduler.stats();
  EXPECT_EQ(stats.tasks_executed, spawned);
  EXPECT_LE(stats.tasks_stolen, stats.tasks_executed);
}

TEST(SchedulerTest, ExceptionPropagatesToWait) {
  SchedulerOptions options;
  options.num_threads = 2;
  Scheduler scheduler(options);
  TaskGroup group(&scheduler);
  std::atomic<int> ran{0};
  for (int i = 0; i < 64; ++i) {
    group.Run([i, &ran] {
      ran.fetch_add(1);
      if (i == 13) throw std::runtime_error("task 13 failed");
    });
  }
  EXPECT_THROW(group.Wait(), std::runtime_error);
  // The failing task ran; tasks spawned before the failure ran too. The
  // group must be fully drained either way (the scheduler would assert
  // on outstanding tasks at destruction otherwise).
  EXPECT_GE(ran.load(), 1);
}

TEST(SchedulerTest, NestedGroupsComposeOnOneSlot) {
  SchedulerOptions options;
  options.num_threads = 2;
  Scheduler scheduler(options);
  constexpr size_t kOuter = 8;
  constexpr size_t kInner = 16;
  std::vector<std::atomic<uint32_t>> writes(kOuter * kInner);
  for (auto& w : writes) w.store(0);
  TaskGroup outer(&scheduler);
  for (size_t i = 0; i < kOuter; ++i) {
    outer.Run([i, &writes, &scheduler] {
      // A nested group on a worker thread shares the worker's slot; on
      // an external thread it claims a participant slot.
      TaskGroup inner(&scheduler);
      for (size_t j = 0; j < kInner; ++j) {
        inner.Run([i, j, &writes] { writes[i * kInner + j].fetch_add(1); });
      }
      inner.Wait();
    });
  }
  outer.Wait();
  for (size_t k = 0; k < writes.size(); ++k) {
    ASSERT_EQ(writes[k].load(), 1u) << "slot " << k;
  }
}

TEST(SchedulerTest, PreCancelledTokenSkipsSpawns) {
  SchedulerOptions options;
  options.num_threads = 1;
  Scheduler scheduler(options);
  util::CancellationToken token;
  token.Cancel();
  TaskGroup group(&scheduler, &token);
  std::atomic<int> ran{0};
  for (int i = 0; i < 8; ++i) group.Run([&ran] { ran.fetch_add(1); });
  group.Wait();
  EXPECT_EQ(ran.load(), 0);
  EXPECT_TRUE(group.cancelled());
}

TEST(SchedulerTest, CancelDuringSpawnStopsFurtherLaunches) {
  SchedulerOptions options;
  options.num_threads = 1;
  Scheduler scheduler(options);
  util::CancellationToken token;
  TaskGroup group(&scheduler, &token);
  std::atomic<int> ran{0};
  for (int i = 0; i < 100; ++i) {
    if (i == 10) token.Cancel();
    group.Run([&ran] { ran.fetch_add(1); });
  }
  group.Wait();
  EXPECT_LE(ran.load(), 10);
  EXPECT_TRUE(group.cancelled());
}

TEST(TaskGroupAllocTest, WarmForkJoinDoesNotAllocate) {
  // Pins the steady-state allocation discipline of the spawn/wait path:
  // after a warmup region has stocked the slot's TaskNode free list,
  // spawning tasks whose captures fit internal::kInlineTaskBytes, helping,
  // parking, and joining must not touch the allocator at all on the
  // spawning thread. (The old std::function-based TaskNode cost two heap
  // round-trips per spawned task.)
  if (!util::AllocProbeAvailable()) {
    GTEST_SKIP() << "global operator new interposition unavailable";
  }
  SchedulerOptions options;
  options.num_threads = 2;
  Scheduler scheduler(options);
  std::atomic<uint64_t> sum{0};
  constexpr int kTasks = 16;  // below deque_capacity: no injection spill
  auto region = [&] {
    TaskGroup group(&scheduler, /*cancel=*/nullptr);
    for (int i = 0; i < kTasks; ++i) {
      group.Run(
          [&sum, i] { sum.fetch_add(uint64_t(i) + 1, std::memory_order_relaxed); });
    }
    group.Wait();
  };
  // Two warm regions: stock the participant slot's node pool (nodes are
  // recycled before Wait returns) and touch any lazy thread-local state.
  region();
  region();
  util::ScopedAllocationCount probe;
  region();
  EXPECT_EQ(probe.allocations(), 0u)
      << "warm fork-join spawn/wait must be allocation-free";
  EXPECT_EQ(probe.deallocations(), 0u);
  EXPECT_EQ(sum.load(), 3u * (kTasks * (kTasks + 1) / 2));
}

TEST(TaskGroupAllocTest, OversizedCapturesStillRunCorrectly) {
  // Callables beyond the inline budget take the boxed fallback: one heap
  // allocation per spawn, identical observable behavior.
  SchedulerOptions options;
  options.num_threads = 1;
  Scheduler scheduler(options);
  struct Big {
    uint64_t payload[24];  // 192 bytes > kInlineTaskBytes
  };
  Big big{};
  for (size_t i = 0; i < 24; ++i) big.payload[i] = i + 1;
  std::atomic<uint64_t> sum{0};
  TaskGroup group(&scheduler, /*cancel=*/nullptr);
  for (int t = 0; t < 8; ++t) {
    group.Run([big, &sum] {
      uint64_t local = 0;
      for (uint64_t v : big.payload) local += v;
      sum.fetch_add(local, std::memory_order_relaxed);
    });
  }
  group.Wait();
  EXPECT_EQ(sum.load(), 8u * (24u * 25u / 2));
}

// ---- Disambiguation hot path on the engine ---------------------------------

// Deterministic arithmetic relatedness: a pure function of the entity
// ids with a tunable spin so relatedness dominates request cost the way
// the real KORE measures do. Thread-safe (no state beyond the atomic
// comparison counter).
class SpinRelatedness : public core::RelatednessMeasure {
 public:
  explicit SpinRelatedness(uint64_t spin) : spin_(spin) {}
  std::string name() const override { return "spin"; }
  double Relatedness(const core::Candidate& a,
                     const core::Candidate& b) const override {
    CountComparison();
    uint64_t x = (static_cast<uint64_t>(a.entity) << 32) ^ b.entity ^
                 (static_cast<uint64_t>(b.entity) << 32) ^ a.entity;
    for (uint64_t i = 0; i < spin_; ++i) {
      x = x * 6364136223846793005ull + 1442695040888963407ull;
    }
    return static_cast<double>(x % 1000) / 1000.0;
  }

 private:
  const uint64_t spin_;
};

// A relatedness measure that sleeps per evaluation — the knob that makes
// a mid-phase deadline trip observable without a big document.
class SleepyRelatedness : public core::RelatednessMeasure {
 public:
  std::string name() const override { return "sleepy"; }
  double Relatedness(const core::Candidate& a,
                     const core::Candidate& b) const override {
    CountComparison();
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
    return a.entity == b.entity ? 1.0 : 0.5;
  }
};

// A document of `num_mentions` mentions, each with `num_candidates`
// pre-resolved candidates over distinct entities, so every cross-mention
// entity pair qualifies for the relatedness batch.
struct HeavyDoc {
  std::vector<std::string> tokens;
  std::vector<std::vector<core::Candidate>> candidate_storage;
  core::DisambiguationProblem problem;

  HeavyDoc(size_t num_mentions, size_t num_candidates) {
    auto dummy_model = std::make_shared<core::CandidateModel>();
    tokens.assign(num_mentions, "tok");
    problem.tokens = &tokens;
    candidate_storage.resize(num_mentions);
    for (size_t m = 0; m < num_mentions; ++m) {
      for (size_t c = 0; c < num_candidates; ++c) {
        core::Candidate cand;
        cand.entity = static_cast<kb::EntityId>(m * 100 + c);
        cand.prior = 1.0 / static_cast<double>(c + 1);
        cand.model = dummy_model;
        candidate_storage[m].push_back(std::move(cand));
      }
      core::ProblemMention mention;
      mention.surface = "tok";
      mention.begin_token = m;
      mention.end_token = m + 1;
      mention.candidates = candidate_storage[m];
      mention.candidates_resolved = true;
      problem.mentions.push_back(std::move(mention));
    }
  }
};

core::AidaOptions CoherenceOnlyOptions() {
  core::AidaOptions options;
  options.use_prior = true;
  options.use_prior_test = false;
  options.use_coherence = true;
  options.use_coherence_test = false;  // keep every candidate in the graph
  return options;
}

core::DisambiguateOptions ParallelOptions(Scheduler* scheduler,
                                          size_t max_tasks) {
  core::DisambiguateOptions options;
  options.parallel.scheduler = scheduler;
  options.parallel.max_tasks = max_tasks;
  options.parallel.min_parallel_mentions = 1;
  options.parallel.min_batch_pairs = 1;
  options.parallel.min_parallel_nodes = 1;
  return options;
}

TEST(TaskAidaTest, ParallelDisambiguationIsByteIdenticalToSerial) {
  const TestWorld& test_world = TestWorld::Get();
  core::CandidateModelStore models(test_world.world.knowledge_base.get());
  core::MilneWittenRelatedness mw(test_world.world.knowledge_base.get());
  core::Aida aida(&models, &mw, core::AidaOptions());

  SchedulerOptions scheduler_options;
  scheduler_options.num_threads = 3;
  Scheduler scheduler(scheduler_options);

  uint64_t parallel_tasks_total = 0;
  size_t docs_checked = 0;
  for (const corpus::Document& doc : test_world.corpus) {
    if (doc.mentions.empty()) continue;
    core::DisambiguationProblem problem;
    problem.tokens = &doc.tokens;
    for (const corpus::GoldMention& gm : doc.mentions) {
      core::ProblemMention pm;
      pm.surface = gm.surface;
      pm.begin_token = gm.begin_token;
      pm.end_token = gm.end_token;
      problem.mentions.push_back(std::move(pm));
    }

    const core::DisambiguationResult serial =
        aida.Disambiguate(problem, core::DisambiguateOptions());
    const core::DisambiguationResult parallel =
        aida.Disambiguate(problem, ParallelOptions(&scheduler, 4));

    ASSERT_EQ(parallel.mentions.size(), serial.mentions.size());
    for (size_t m = 0; m < serial.mentions.size(); ++m) {
      const core::MentionResult& s = serial.mentions[m];
      const core::MentionResult& p = parallel.mentions[m];
      EXPECT_EQ(p.entity, s.entity) << "doc " << docs_checked << " m " << m;
      EXPECT_EQ(p.chose_placeholder, s.chose_placeholder);
      // Bit-exact, not approximately equal: the whole determinism
      // contract of the task engine.
      EXPECT_EQ(p.score, s.score) << "doc " << docs_checked << " m " << m;
      ASSERT_EQ(p.candidate_scores.size(), s.candidate_scores.size());
      for (size_t c = 0; c < s.candidate_scores.size(); ++c) {
        EXPECT_EQ(p.candidate_scores[c], s.candidate_scores[c])
            << "doc " << docs_checked << " m " << m << " c " << c;
      }
      EXPECT_EQ(p.candidate_entities, s.candidate_entities);
    }
    EXPECT_EQ(parallel.stats.graph_iterations, serial.stats.graph_iterations);
    // MW has no cache, so the evaluation count is exactly reproducible.
    EXPECT_EQ(parallel.stats.relatedness_computations,
              serial.stats.relatedness_computations);
    parallel_tasks_total += parallel.stats.parallel_tasks;
    ++docs_checked;
  }
  ASSERT_GT(docs_checked, 10u);
  // The corpus has multi-mention documents, so at least some requests
  // actually forked tasks — otherwise this test proves nothing.
  EXPECT_GT(parallel_tasks_total, 0u);
}

TEST(TaskAidaTest, MidPhaseCancelReturnsDegradedLocalResultPromptly) {
  const TestWorld& test_world = TestWorld::Get();
  core::CandidateModelStore models(test_world.world.knowledge_base.get());
  SleepyRelatedness sleepy;
  core::Aida aida(&models, &sleepy, CoherenceOnlyOptions());

  SchedulerOptions scheduler_options;
  scheduler_options.num_threads = 2;
  Scheduler scheduler(scheduler_options);

  // 12 mentions x 6 candidates -> ~2400 qualifying pairs at 2ms each:
  // ~5 s of relatedness if the batch ran to completion. The token trips
  // 50ms in; the batched evaluation polls it every few dozen pairs, so
  // the call must come back orders of magnitude sooner than the full
  // batch would take.
  HeavyDoc doc(/*num_mentions=*/12, /*num_candidates=*/6);
  core::CancellationToken token(core::CancellationToken::Clock::now() +
                                std::chrono::milliseconds(50));
  core::DisambiguateOptions options = ParallelOptions(&scheduler, 3);
  options.cancel = &token;

  util::Stopwatch watch;
  const core::DisambiguationResult result =
      aida.Disambiguate(doc.problem, options);
  const double elapsed = watch.ElapsedSeconds();

  EXPECT_TRUE(result.cancelled);
  EXPECT_LT(elapsed, 2.5) << "mid-phase cancel was not observed promptly";
  // Degraded but well-formed: every mention still carries its local-only
  // choice over the full candidate list.
  ASSERT_EQ(result.mentions.size(), doc.problem.mentions.size());
  for (const core::MentionResult& mention : result.mentions) {
    EXPECT_EQ(mention.candidate_scores.size(), 6u);
    EXPECT_NE(mention.entity, kb::kNoEntity);
  }
}

TEST(TaskAidaTest, SerialCallerWithoutSchedulerStillWorks) {
  // ParallelismOptions default: no scheduler, max_tasks 1 — the entire
  // parallel plumbing must be invisible.
  const TestWorld& test_world = TestWorld::Get();
  core::CandidateModelStore models(test_world.world.knowledge_base.get());
  SpinRelatedness spin(/*spin=*/10);
  core::Aida aida(&models, &spin, CoherenceOnlyOptions());
  HeavyDoc doc(/*num_mentions=*/5, /*num_candidates=*/3);
  const core::DisambiguationResult result =
      aida.Disambiguate(doc.problem, core::DisambiguateOptions());
  EXPECT_FALSE(result.cancelled);
  EXPECT_EQ(result.stats.parallel_tasks, 0u);
  EXPECT_EQ(result.mentions.size(), 5u);
}

// ---- Intra-request scaling regression --------------------------------------

TEST(TaskScalingTest, EightTaskTailNotWorseThanSingleTask) {
  const unsigned hw = std::thread::hardware_concurrency();
  if (hw < 4) {
    GTEST_SKIP() << "needs >= 4 hardware threads to measure intra-request "
                    "scaling, have "
                 << hw;
  }

  const TestWorld& test_world = TestWorld::Get();
  core::CandidateModelStore models(test_world.world.knowledge_base.get());
  // ~20us per relatedness evaluation; a 24x6 document needs ~3k
  // evaluations, so the batch dominates the request and has real work to
  // parallelize.
  SpinRelatedness spin(/*spin=*/20'000);
  core::Aida aida(&models, &spin, CoherenceOnlyOptions());
  HeavyDoc doc(/*num_mentions=*/24, /*num_candidates=*/6);

  SchedulerOptions scheduler_options;
  scheduler_options.num_threads = 7;
  Scheduler scheduler(scheduler_options);

  auto measure_p99 = [&](size_t max_tasks) {
    constexpr int kRuns = 15;
    std::vector<double> latencies;
    latencies.reserve(kRuns);
    // One warm-up absorbs cold caches and lazy model construction.
    (void)aida.Disambiguate(doc.problem, ParallelOptions(&scheduler, max_tasks));
    for (int run = 0; run < kRuns; ++run) {
      util::Stopwatch watch;
      const core::DisambiguationResult result = aida.Disambiguate(
          doc.problem, ParallelOptions(&scheduler, max_tasks));
      latencies.push_back(watch.ElapsedSeconds());
      EXPECT_FALSE(result.cancelled);
    }
    std::sort(latencies.begin(), latencies.end());
    return latencies[static_cast<size_t>(0.99 * (kRuns - 1))];
  };

  const double p99_single = measure_p99(1);
  const double p99_eight = measure_p99(8);
  ASSERT_GT(p99_single, 0.0);
  // The regression this guards: intra-request parallelism making the
  // tail WORSE. On >= 4 cores the 8-task path must not lose to serial.
  EXPECT_LE(p99_eight, p99_single)
      << "8-task p99 " << p99_eight << "s vs single-task p99 " << p99_single
      << "s: intra-request parallelism regressed the tail";
}

}  // namespace
}  // namespace aida::task
