// Batch-mode concurrency (NedService::DisambiguateAll), the shared
// RelatednessCache, per-call DisambiguationStats, and the numeric edge
// cases of Milne-Witten: the regression suite for the thread-safety fixes
// (racy "last call" counters) and the memoization layer.

#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <vector>

#include "core/aida.h"
#include "core/relatedness_cache.h"
#include "kb/kb_builder.h"
#include "kb/snapshot_registry.h"
#include "kore/kore_lsh.h"
#include "serve/ned_service.h"
#include "test_world.h"

namespace aida::core {
namespace {

using ::aida::testing::TestWorld;

DisambiguationProblem ToProblem(const corpus::Document& doc) {
  DisambiguationProblem problem;
  problem.tokens = &doc.tokens;
  for (const corpus::GoldMention& gm : doc.mentions) {
    ProblemMention pm;
    pm.surface = gm.surface;
    pm.begin_token = gm.begin_token;
    pm.end_token = gm.end_token;
    problem.mentions.push_back(std::move(pm));
  }
  return problem;
}

// Runs the batch through a NedService with `num_threads` workers; every
// request must complete OK.
std::vector<DisambiguationResult> RunServed(
    const NedSystem& system, size_t num_threads,
    const std::vector<DisambiguationProblem>& problems) {
  serve::NedService service(kb::KbSnapshot::WrapUnowned(system, "batch"),
                            {.num_threads = num_threads});
  std::vector<DisambiguationResult> results;
  for (serve::ServeResult& served : service.DisambiguateAll(problems)) {
    EXPECT_TRUE(served.status.ok()) << served.status.ToString();
    results.push_back(std::move(served.result));
  }
  return results;
}

void ExpectSameResults(const std::vector<DisambiguationResult>& a,
                       const std::vector<DisambiguationResult>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (size_t d = 0; d < a.size(); ++d) {
    ASSERT_EQ(a[d].mentions.size(), b[d].mentions.size()) << "doc " << d;
    for (size_t m = 0; m < a[d].mentions.size(); ++m) {
      const MentionResult& x = a[d].mentions[m];
      const MentionResult& y = b[d].mentions[m];
      EXPECT_EQ(x.entity, y.entity) << "doc " << d << " mention " << m;
      EXPECT_EQ(x.chose_placeholder, y.chose_placeholder);
      // Byte-identical scoring, not approximate: the runs evaluate the
      // same deterministic arithmetic regardless of thread interleaving.
      EXPECT_EQ(x.score, y.score) << "doc " << d << " mention " << m;
      EXPECT_EQ(x.candidate_entities, y.candidate_entities);
      EXPECT_EQ(x.candidate_scores, y.candidate_scores);
      EXPECT_EQ(x.candidate_is_placeholder, y.candidate_is_placeholder);
    }
  }
}

class BatchTest : public ::testing::Test {
 protected:
  BatchTest()
      : world_(TestWorld::Get().world),
        corpus_(TestWorld::Get().corpus),
        models_(world_.knowledge_base.get()),
        mw_(world_.knowledge_base.get()) {
    for (const corpus::Document& doc : corpus_) {
      problems_.push_back(ToProblem(doc));
    }
  }

  const synth::World& world_;
  const corpus::Corpus& corpus_;
  CandidateModelStore models_;
  MilneWittenRelatedness mw_;
  std::vector<DisambiguationProblem> problems_;
};

TEST_F(BatchTest, ParallelRunMatchesSerial) {
  Aida aida(&models_, &mw_, AidaOptions());
  std::vector<DisambiguationResult> serial_results;
  for (const DisambiguationProblem& problem : problems_) {
    serial_results.push_back(aida.Disambiguate(problem, {}));
  }
  ExpectSameResults(serial_results, RunServed(aida, 4, problems_));
}

TEST_F(BatchTest, CachedParallelMatchesUncachedSerial) {
  Aida plain(&models_, &mw_, AidaOptions());
  std::vector<DisambiguationResult> reference;
  for (const DisambiguationProblem& problem : problems_) {
    reference.push_back(plain.Disambiguate(problem, {}));
  }

  RelatednessCache cache;
  CachedRelatednessMeasure cached(&mw_, &cache);
  Aida with_cache(&models_, &cached, AidaOptions());
  std::vector<DisambiguationResult> cached_results =
      RunServed(with_cache, 4, problems_);

  ExpectSameResults(reference, cached_results);
  // Entities recur across the corpus, so the shared cache must have
  // converted some evaluations into hits.
  DisambiguationStats total = AggregateStats(cached_results);
  EXPECT_GT(total.relatedness_cache_hits, 0u);
  EXPECT_LT(total.relatedness_computations,
            AggregateStats(reference).relatedness_computations);
}

TEST_F(BatchTest, StatsSumAcrossThreadsWithoutCache) {
  MilneWittenRelatedness mw(world_.knowledge_base.get());
  Aida aida(&models_, &mw, AidaOptions());
  std::vector<DisambiguationResult> results = RunServed(aida, 4, problems_);

  DisambiguationStats total = AggregateStats(results);
  // Every evaluation of the measure is attributed to exactly one call's
  // stats, so the per-call sums must equal the measure's own counter.
  EXPECT_EQ(total.relatedness_computations, mw.comparisons());
  EXPECT_EQ(total.relatedness_cache_hits, 0u);
  EXPECT_GT(total.relatedness_computations, 0u);
  for (const DisambiguationResult& result : results) {
    EXPECT_GT(result.stats.total_seconds, 0.0);
    EXPECT_GE(result.stats.local_seconds, 0.0);
    EXPECT_GE(result.stats.graph_build_seconds, 0.0);
    EXPECT_GE(result.stats.graph_solve_seconds, 0.0);
  }
}

TEST_F(BatchTest, StatsSumAcrossThreadsWithCache) {
  MilneWittenRelatedness mw(world_.knowledge_base.get());
  RelatednessCache cache;
  CachedRelatednessMeasure cached(&mw, &cache);
  Aida aida(&models_, &cached, AidaOptions());
  std::vector<DisambiguationResult> results = RunServed(aida, 4, problems_);

  DisambiguationStats total = AggregateStats(results);
  RelatednessCacheStats snapshot = cache.Snapshot();
  // Computations are cache misses; both the wrapped measure's counter and
  // the cache's own counters must agree with the per-call sums. (All
  // candidates here are in-KB, so every pair is cacheable.)
  EXPECT_EQ(total.relatedness_computations, mw.comparisons());
  EXPECT_EQ(total.relatedness_computations, cached.comparisons());
  EXPECT_EQ(total.relatedness_computations, snapshot.misses);
  EXPECT_EQ(total.relatedness_cache_hits, snapshot.hits);
  EXPECT_GT(snapshot.hits, 0u);
  EXPECT_GT(total.RelatednessCacheHitRate(), 0.0);
}

TEST_F(BatchTest, MilneWittenTinyKbEdgeCasesStayFiniteInRange) {
  // Tiny KBs drive the Milne-Witten formula to its numeric extremes: the
  // denominator log N - log min(|Ia|,|Ib|) shrinks toward zero as in-link
  // sets approach the whole KB (it vanishes exactly at min == N, a case
  // LinkGraph cannot reach — self-links are dropped, so min <= N-1 — but
  // which the guard in RelatednessById still handles for hand-built or
  // imported link sets), and small shared counts push the raw value far
  // below zero. Every pair must come back finite and in [0, 1], the
  // contract of relatedness.h.
  kb::KbBuilder builder;
  kb::EntityId hub_a = builder.AddEntity("Hub_A");
  kb::EntityId hub_b = builder.AddEntity("Hub_B");
  kb::EntityId linker_1 = builder.AddEntity("Linker_1");
  kb::EntityId linker_2 = builder.AddEntity("Linker_2");
  // Both hubs are linked by every OTHER entity: in-link size N-1 == 3,
  // the densest reachable configuration (min-inlinks at its maximum).
  for (kb::EntityId target : {hub_a, hub_b}) {
    for (kb::EntityId source : {hub_a, hub_b, linker_1, linker_2}) {
      builder.AddLink(source, target);
    }
  }
  // The linkers share one in-link (hub_a) out of tiny in-link sets.
  builder.AddLink(hub_a, linker_1);
  builder.AddLink(hub_a, linker_2);
  builder.AddLink(hub_b, linker_2);
  std::unique_ptr<kb::KnowledgeBase> kb = std::move(builder).Build();
  MilneWittenRelatedness mw(kb.get());

  const kb::LinkGraph& links = kb->links();
  ASSERT_EQ(links.InLinkCount(hub_a), kb->entity_count() - 1);

  // Hub in-link sets differ only in each other ({b,l1,l2} vs {a,l1,l2}):
  // 2 of 3 shared with the denominator near its vanishing point — the
  // raw value is negative and must clamp to exactly 0, not NaN/inf.
  double hub_pair = mw.RelatednessById(hub_a, hub_b);
  EXPECT_TRUE(std::isfinite(hub_pair));
  EXPECT_GE(hub_pair, 0.0);
  EXPECT_LE(hub_pair, 1.0);

  // Fully-shared in-link sets of different sizes: shared == min, the
  // numerator's other extreme; linker_1's {hub_a} is a subset of
  // linker_2's {hub_a, hub_b}.
  double linker_pair = mw.RelatednessById(linker_1, linker_2);
  EXPECT_TRUE(std::isfinite(linker_pair));
  EXPECT_GT(linker_pair, 0.0);
  EXPECT_LE(linker_pair, 1.0);

  // Shared > 0 in a tiny KB must be finite and in range for every pair.
  for (kb::EntityId a : {hub_a, hub_b, linker_1, linker_2}) {
    for (kb::EntityId b : {hub_a, hub_b, linker_1, linker_2}) {
      double value = mw.RelatednessById(a, b);
      EXPECT_TRUE(std::isfinite(value)) << a << "," << b;
      EXPECT_GE(value, 0.0) << a << "," << b;
      EXPECT_LE(value, 1.0) << a << "," << b;
    }
  }
}

TEST_F(BatchTest, RelatednessCacheSymmetricKeysAndCounters) {
  RelatednessCache cache;
  double value = 0.0;
  EXPECT_FALSE(cache.Lookup(3, 7, &value));
  cache.Insert(3, 7, 0.25);
  // The key is the unordered pair: both orders must hit.
  EXPECT_TRUE(cache.Lookup(3, 7, &value));
  EXPECT_DOUBLE_EQ(value, 0.25);
  EXPECT_TRUE(cache.Lookup(7, 3, &value));
  EXPECT_DOUBLE_EQ(value, 0.25);

  RelatednessCacheStats stats = cache.Snapshot();
  EXPECT_EQ(stats.hits, 2u);
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.inserts, 1u);
  EXPECT_EQ(stats.entries, 1u);
  EXPECT_EQ(stats.evictions, 0u);

  cache.Clear();
  EXPECT_FALSE(cache.Lookup(3, 7, &value));
  stats = cache.Snapshot();
  EXPECT_EQ(stats.entries, 0u);
  EXPECT_EQ(stats.hits, 0u);
}

TEST_F(BatchTest, RelatednessCacheBoundedEviction) {
  RelatednessCacheOptions options;
  options.capacity = 8;
  options.num_shards = 1;
  RelatednessCache cache(options);
  EXPECT_EQ(cache.capacity(), 8u);

  for (kb::EntityId pair = 0; pair < 100; ++pair) {
    cache.Insert(pair, pair + 1000, 0.5);
  }
  RelatednessCacheStats stats = cache.Snapshot();
  EXPECT_EQ(stats.inserts, 100u);
  EXPECT_LE(stats.entries, cache.capacity());
  EXPECT_GT(stats.evictions, 0u);
  // A long batch can never grow the cache past its slot budget.
  EXPECT_EQ(stats.entries + stats.evictions, stats.inserts);
}

TEST_F(BatchTest, CachedMeasurePreservesPairFilterSemantics) {
  const kb::KeyphraseStore& store = world_.knowledge_base->keyphrases();
  kore::KoreLshRelatedness lsh = kore::KoreLshRelatedness::Good(&store);
  RelatednessCache cache;
  CachedRelatednessMeasure cached(&lsh, &cache);
  EXPECT_TRUE(cached.has_pair_filter());
  EXPECT_EQ(cached.name(), "kore-lsh-g+cache");

  std::vector<Candidate> owned = LookupCandidates(models_, "the");
  if (owned.empty()) {
    // Fall back to the first document's first mention.
    owned = LookupCandidates(models_, corpus_.front().mentions.front().surface);
  }
  ASSERT_FALSE(owned.empty());
  std::vector<const Candidate*> pointers;
  for (const Candidate& cand : owned) pointers.push_back(&cand);
  EXPECT_EQ(cached.FilterPairs(pointers), lsh.FilterPairs(pointers));
}

TEST_F(BatchTest, RelatednessMeasureSelfAssignmentIsSafe) {
  MilneWittenRelatedness mw(world_.knowledge_base.get());
  const corpus::Document& doc = corpus_.front();
  std::vector<Candidate> cands =
      LookupCandidates(models_, doc.mentions.front().surface);
  if (cands.size() >= 2) {
    mw.Relatedness(cands[0], cands[1]);
  }
  mw.RelatednessById(0, 1);
  const uint64_t before = mw.comparisons();
  MilneWittenRelatedness& alias = mw;
  mw = alias;  // self-assignment must preserve the counter
  EXPECT_EQ(mw.comparisons(), before);
}

TEST_F(BatchTest, PerCallStatsReplaceLegacyCounter) {
  // The deprecated last_relatedness_computations() accumulator is gone;
  // per-call DisambiguationStats carry the same information race-free.
  Aida aida(&models_, &mw_, AidaOptions());
  const uint64_t before = mw_.comparisons();
  DisambiguationResult first = aida.Disambiguate(problems_.front(), {});
  DisambiguationResult second = aida.Disambiguate(problems_.back(), {});
  EXPECT_EQ(mw_.comparisons() - before,
            first.stats.relatedness_computations +
                second.stats.relatedness_computations);
}

}  // namespace
}  // namespace aida::core
