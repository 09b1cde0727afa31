#include <gtest/gtest.h>

#include <set>

#include "core/aida.h"
#include "core/candidates.h"
#include "core/relatedness_cache.h"
#include "kore/keyterm_cosine.h"
#include "kore/kore_lsh.h"
#include "kore/kore_relatedness.h"
#include "test_world.h"

namespace aida::kore {
namespace {

using ::aida::testing::TestWorld;

class KoreTest : public ::testing::Test {
 protected:
  KoreTest()
      : world_(TestWorld::Get().world),
        models_(world_.knowledge_base.get()) {}

  core::Candidate MakeCandidate(kb::EntityId e) const {
    core::Candidate c;
    c.entity = e;
    c.model = models_.ModelFor(e);
    return c;
  }

  // Finds two same-topic entities and one from a different topic.
  void FindTriple(kb::EntityId* a, kb::EntityId* b, kb::EntityId* c) const {
    *a = 0;
    *b = kb::kNoEntity;
    *c = kb::kNoEntity;
    for (kb::EntityId e = 1; e < world_.knowledge_base->entity_count(); ++e) {
      if (*b == kb::kNoEntity &&
          world_.entity_topic[e] == world_.entity_topic[*a]) {
        *b = e;
      }
      if (*c == kb::kNoEntity &&
          world_.entity_topic[e] != world_.entity_topic[*a]) {
        *c = e;
      }
      if (*b != kb::kNoEntity && *c != kb::kNoEntity) return;
    }
  }

  const synth::World& world_;
  core::CandidateModelStore models_;
};

TEST_F(KoreTest, SameTopicMoreRelated) {
  kb::EntityId a, b, c;
  FindTriple(&a, &b, &c);
  KoreRelatedness kore;
  double same = kore.Relatedness(MakeCandidate(a), MakeCandidate(b));
  double cross = kore.Relatedness(MakeCandidate(a), MakeCandidate(c));
  EXPECT_GT(same, cross);
}

TEST_F(KoreTest, SymmetricAndBounded) {
  // RelatednessCache stores a pair without its order, so (a,b) and (b,a)
  // must agree bit for bit. Pairs with equal phrase counts are the ones
  // at risk; the test fails if it met none.
  KoreRelatedness kore;
  size_t equal_sizes = 0;
  for (kb::EntityId e = 0; e < 120; ++e) {
    const core::Candidate ce = MakeCandidate(e);
    for (kb::EntityId f = e + 1; f < 120; ++f) {
      const core::Candidate cf = MakeCandidate(f);
      const double ab = kore.Relatedness(ce, cf);
      EXPECT_EQ(ab, kore.Relatedness(cf, ce)) << e << " vs " << f;
      EXPECT_GE(ab, 0.0);
      EXPECT_LE(ab, 1.0);
      equal_sizes += ce.model->phrases.size() == cf.model->phrases.size();
    }
  }
  EXPECT_GT(equal_sizes, 0u);
}

TEST_F(KoreTest, CachedMatchesUncachedOverBatch) {
  // One cache shared by the whole batch: a pair cached in one order is
  // later served for the other, which must change nothing.
  KoreRelatedness kore;
  core::RelatednessCache cache;
  core::CachedRelatednessMeasure cached(&kore, &cache);
  for (kb::EntityId e = 0; e < 60; ++e) {
    for (kb::EntityId f = e + 1; f < 60; ++f) {
      cached.Relatedness(MakeCandidate(e), MakeCandidate(f));
    }
  }
  for (kb::EntityId e = 0; e < 60; ++e) {
    for (kb::EntityId f = e + 1; f < 60; ++f) {
      EXPECT_EQ(cached.Relatedness(MakeCandidate(f), MakeCandidate(e)),
                kore.Relatedness(MakeCandidate(f), MakeCandidate(e)))
          << f << " vs " << e;
    }
  }

  // The same through full disambiguation over the test corpus.
  core::Aida uncached_aida(&models_, &kore, core::AidaOptions());
  core::Aida cached_aida(&models_, &cached, core::AidaOptions());
  for (const corpus::Document& doc : TestWorld::Get().corpus) {
    core::DisambiguationProblem problem;
    problem.tokens = &doc.tokens;
    for (const corpus::GoldMention& gm : doc.mentions) {
      core::ProblemMention pm;
      pm.surface = gm.surface;
      pm.begin_token = gm.begin_token;
      pm.end_token = gm.end_token;
      problem.mentions.push_back(std::move(pm));
    }
    const core::DisambiguationResult a =
        uncached_aida.Disambiguate(problem, {});
    const core::DisambiguationResult b = cached_aida.Disambiguate(problem, {});
    ASSERT_EQ(a.mentions.size(), b.mentions.size());
    for (size_t m = 0; m < a.mentions.size(); ++m) {
      EXPECT_EQ(a.mentions[m].entity, b.mentions[m].entity) << doc.id;
      EXPECT_EQ(a.mentions[m].score, b.mentions[m].score) << doc.id;
      EXPECT_EQ(a.mentions[m].candidate_scores, b.mentions[m].candidate_scores)
          << doc.id;
    }
  }
  EXPECT_GT(cache.Snapshot().hits, 0u);
}

TEST_F(KoreTest, SelfRelatednessIsHigh) {
  KoreRelatedness kore;
  kb::EntityId a, b, c;
  FindTriple(&a, &b, &c);
  double self = kore.Relatedness(MakeCandidate(a), MakeCandidate(a));
  double other = kore.Relatedness(MakeCandidate(a), MakeCandidate(b));
  EXPECT_GT(self, other);
}

TEST_F(KoreTest, WorksForPlaceholders) {
  // A placeholder model sharing phrases with an entity scores > 0 —
  // the capability MW lacks.
  kb::EntityId a = 0;
  core::Candidate real = MakeCandidate(a);
  core::Candidate placeholder;
  placeholder.is_placeholder = true;
  auto model = std::make_shared<core::CandidateModel>(*real.model);
  model->entity = kb::kNoEntity;
  placeholder.model = model;

  KoreRelatedness kore;
  EXPECT_GT(kore.Relatedness(real, placeholder), 0.0);
  core::MilneWittenRelatedness mw(world_.knowledge_base.get());
  EXPECT_EQ(mw.Relatedness(real, placeholder), 0.0);
}

TEST_F(KoreTest, CountsComparisons) {
  KoreRelatedness kore;
  kore.ResetComparisons();
  kore.Relatedness(MakeCandidate(0), MakeCandidate(1));
  kore.Relatedness(MakeCandidate(0), MakeCandidate(2));
  EXPECT_EQ(kore.comparisons(), 2u);
}

TEST_F(KoreTest, KeytermCosineVariants) {
  kb::EntityId a, b, c;
  FindTriple(&a, &b, &c);
  KeytermCosineRelatedness kwcs(KeytermCosineRelatedness::Mode::kKeyword);
  KeytermCosineRelatedness kpcs(KeytermCosineRelatedness::Mode::kKeyphrase);
  for (const KeytermCosineRelatedness* measure : {&kwcs, &kpcs}) {
    double same = measure->Relatedness(MakeCandidate(a), MakeCandidate(b));
    double cross = measure->Relatedness(MakeCandidate(a), MakeCandidate(c));
    EXPECT_GE(same, cross) << measure->name();
    double self = measure->Relatedness(MakeCandidate(a), MakeCandidate(a));
    EXPECT_NEAR(self, 1.0, 1e-9) << measure->name();
  }
}

TEST_F(KoreTest, LshFiltersPairsButKeepsRelated) {
  const kb::KeyphraseStore& store = world_.knowledge_base->keyphrases();
  KoreLshRelatedness good = KoreLshRelatedness::Good(&store);
  KoreLshRelatedness fast = KoreLshRelatedness::Fast(&store);
  ASSERT_TRUE(good.has_pair_filter());

  // Candidate pool: 30 entities.
  std::vector<core::Candidate> pool;
  for (kb::EntityId e = 0; e < 30; ++e) pool.push_back(MakeCandidate(e));
  std::vector<const core::Candidate*> ptrs;
  for (const core::Candidate& c : pool) ptrs.push_back(&c);

  auto good_pairs = good.FilterPairs(ptrs);
  auto fast_pairs = fast.FilterPairs(ptrs);
  size_t all_pairs = 30 * 29 / 2;
  EXPECT_LT(fast_pairs.size(), all_pairs);
  EXPECT_LE(fast_pairs.size(), good_pairs.size() + 5);

  // Strongly related pairs (KORE >= 0.05) should mostly survive the good
  // filter.
  KoreRelatedness exact;
  size_t strong = 0;
  size_t kept = 0;
  std::set<std::pair<uint32_t, uint32_t>> good_set(good_pairs.begin(),
                                                   good_pairs.end());
  for (uint32_t i = 0; i < 30; ++i) {
    for (uint32_t j = i + 1; j < 30; ++j) {
      if (exact.Relatedness(pool[i], pool[j]) >= 0.05) {
        ++strong;
        if (good_set.count({i, j})) ++kept;
      }
    }
  }
  if (strong > 0) {
    EXPECT_GE(static_cast<double>(kept) / strong, 0.7);
  }
}

TEST_F(KoreTest, LshAdmitsPlaceholderPairs) {
  const kb::KeyphraseStore& store = world_.knowledge_base->keyphrases();
  KoreLshRelatedness good = KoreLshRelatedness::Good(&store);
  core::Candidate placeholder;
  placeholder.is_placeholder = true;
  placeholder.model = std::make_shared<core::CandidateModel>();
  core::Candidate real = MakeCandidate(0);
  std::vector<const core::Candidate*> ptrs = {&real, &placeholder};
  auto pairs = good.FilterPairs(ptrs);
  ASSERT_EQ(pairs.size(), 1u);
  EXPECT_EQ(pairs[0], (std::pair<uint32_t, uint32_t>(0, 1)));
}

}  // namespace
}  // namespace aida::kore
