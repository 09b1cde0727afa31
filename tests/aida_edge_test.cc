#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <string>
#include <vector>

#include "core/aida.h"
#include "core/baselines.h"
#include "ee/ee_discovery.h"
#include "kore/kore_relatedness.h"
#include "task/scheduler.h"
#include "test_world.h"

namespace aida::core {
namespace {

using ::aida::testing::TestWorld;

class AidaEdgeTest : public ::testing::Test {
 protected:
  AidaEdgeTest()
      : world_(TestWorld::Get().world),
        corpus_(TestWorld::Get().corpus),
        models_(world_.knowledge_base.get()),
        mw_(world_.knowledge_base.get()) {}

  const synth::World& world_;
  const corpus::Corpus& corpus_;
  CandidateModelStore models_;
  MilneWittenRelatedness mw_;
};

TEST_F(AidaEdgeTest, EmptyProblem) {
  Aida aida(&models_, &mw_, AidaOptions());
  std::vector<std::string> tokens = {"nothing", "here"};
  DisambiguationProblem problem;
  problem.tokens = &tokens;
  DisambiguationResult result = aida.Disambiguate(problem, {});
  EXPECT_TRUE(result.mentions.empty());
}

TEST_F(AidaEdgeTest, MentionWithoutCandidates) {
  Aida aida(&models_, &mw_, AidaOptions());
  std::vector<std::string> tokens = {"Zzzunknownzzz", "said", "things"};
  DisambiguationProblem problem;
  problem.tokens = &tokens;
  ProblemMention pm;
  pm.surface = "Zzzunknownzzz";
  pm.begin_token = 0;
  pm.end_token = 1;
  problem.mentions.push_back(pm);
  DisambiguationResult result = aida.Disambiguate(problem, {});
  ASSERT_EQ(result.mentions.size(), 1u);
  EXPECT_EQ(result.mentions[0].entity, kb::kNoEntity);
  EXPECT_FALSE(result.mentions[0].chose_placeholder);
  EXPECT_TRUE(result.mentions[0].candidate_entities.empty());
}

TEST_F(AidaEdgeTest, ResolvedCandidatesAreRespected) {
  // Force a single (wrong-looking) candidate; the system must choose it.
  Aida aida(&models_, &mw_, AidaOptions());
  const corpus::Document& doc = corpus_.front();
  DisambiguationProblem problem;
  problem.tokens = &doc.tokens;
  ProblemMention pm;
  const corpus::GoldMention& gm = doc.mentions.front();
  pm.surface = gm.surface;
  pm.begin_token = gm.begin_token;
  pm.end_token = gm.end_token;
  Candidate forced;
  forced.entity = 3;  // arbitrary entity, probably not a dictionary match
  forced.prior = 1.0;
  forced.model = models_.ModelFor(3);
  pm.candidates.push_back(forced);
  pm.candidates_resolved = true;
  problem.mentions.push_back(std::move(pm));

  DisambiguationResult result = aida.Disambiguate(problem, {});
  EXPECT_EQ(result.mentions[0].entity, 3u);
}

TEST_F(AidaEdgeTest, EmptyResolvedCandidatesMeanNoEntity) {
  Aida aida(&models_, &mw_, AidaOptions());
  const corpus::Document& doc = corpus_.front();
  DisambiguationProblem problem;
  problem.tokens = &doc.tokens;
  ProblemMention pm;
  pm.surface = doc.mentions.front().surface;
  pm.begin_token = doc.mentions.front().begin_token;
  pm.end_token = doc.mentions.front().end_token;
  pm.candidates_resolved = true;  // and empty: trivially out-of-KB
  problem.mentions.push_back(std::move(pm));
  DisambiguationResult result = aida.Disambiguate(problem, {});
  EXPECT_EQ(result.mentions[0].entity, kb::kNoEntity);
}

TEST_F(AidaEdgeTest, WeightScaleSuppressesCandidate) {
  // Two identical candidates, one with a tiny weight scale: the scaled
  // one must not win under similarity-driven scoring.
  AidaOptions options;
  options.use_prior = false;
  options.use_coherence = false;
  Aida aida(&models_, &mw_, options);
  const corpus::Document& doc = corpus_.front();
  const corpus::GoldMention* gold = nullptr;
  for (const corpus::GoldMention& gm : doc.mentions) {
    if (!gm.out_of_kb()) {
      gold = &gm;
      break;
    }
  }
  ASSERT_NE(gold, nullptr);

  DisambiguationProblem problem;
  problem.tokens = &doc.tokens;
  ProblemMention pm;
  pm.surface = gold->surface;
  pm.begin_token = gold->begin_token;
  pm.end_token = gold->end_token;
  Candidate normal;
  normal.entity = gold->gold_entity;
  normal.model = models_.ModelFor(gold->gold_entity);
  Candidate scaled = normal;
  scaled.entity = gold->gold_entity;  // same entity id is fine for scoring
  scaled.weight_scale = 1e-6;
  pm.candidates.push_back(scaled);
  pm.candidates.push_back(normal);
  pm.candidates_resolved = true;
  problem.mentions.push_back(std::move(pm));

  DisambiguationResult result = aida.Disambiguate(problem, {});
  ASSERT_EQ(result.mentions[0].candidate_scores.size(), 2u);
  if (result.mentions[0].candidate_scores[1] > 0) {
    EXPECT_LT(result.mentions[0].candidate_scores[0],
              result.mentions[0].candidate_scores[1]);
  }
}

TEST_F(AidaEdgeTest, SystemNamesAreDescriptive) {
  PriorBaseline prior(&models_);
  CucerzanBaseline cuc(&models_);
  KulkarniBaseline kul(&models_, &mw_, KulkarniBaseline::Mode::kCollective);
  kore::KoreRelatedness kore;
  TagMeBaseline tagme(&models_, &kore);
  EXPECT_EQ(prior.name(), "prior");
  EXPECT_EQ(cuc.name(), "cucerzan");
  EXPECT_EQ(kul.name(), "kul-ci");
  EXPECT_EQ(tagme.name(), "tagme");
}

TEST_F(AidaEdgeTest, DiscovererFirstStageThresholds) {
  // With t_u = 0 every mention is pinned to its initial entity: no
  // placeholder may win. With t_l = 1 every mention with candidates is
  // forced to EE.
  kore::KoreRelatedness kore;
  AidaOptions options;
  Aida aida(&models_, &kore, options);

  const corpus::Document& doc = corpus_.front();

  {
    ee::EeDiscoveryOptions ee_options;
    ee_options.harvest_days = 8;
    ee_options.harvest_existing = false;
    ee_options.lower_threshold = 0.0;
    ee_options.upper_threshold = 0.0;  // pin everything
    ee_options.confidence.rounds = 4;
    ee::EmergingEntityDiscoverer discoverer(&models_, &aida,
                                            &corpus_, ee_options);
    core::DisambiguationResult result = discoverer.Discover(doc);
    for (const core::MentionResult& m : result.mentions) {
      EXPECT_FALSE(m.chose_placeholder);
    }
  }
  {
    ee::EeDiscoveryOptions ee_options;
    ee_options.harvest_days = 8;
    ee_options.harvest_existing = false;
    ee_options.lower_threshold = 1.0;  // everything low-confidence
    ee_options.upper_threshold = 2.0;
    ee_options.confidence.rounds = 4;
    ee::EmergingEntityDiscoverer discoverer(&models_, &aida,
                                            &corpus_, ee_options);
    core::DisambiguationResult result = discoverer.Discover(doc);
    for (size_t m = 0; m < result.mentions.size(); ++m) {
      if (result.mentions[m].candidate_entities.empty()) continue;
      EXPECT_TRUE(result.mentions[m].chose_placeholder) << m;
    }
  }
}

// A deadline that trips inside the local-scoring loop leaves the mentions
// the loop never reached without any candidate list. Sweeps deadlines
// across the local phase of one long document (every corpus document back
// to back, ~250 mentions), serially and on a task scheduler. Every result
// must be well formed, and each mode must have been cut inside the local
// phase at least once, or the sweep proved nothing.
TEST_F(AidaEdgeTest, LocalPhaseCancelAtAnyPointIsWellFormed) {
  std::vector<std::string> tokens;
  DisambiguationProblem problem;
  problem.tokens = &tokens;
  for (const corpus::Document& doc : corpus_) {
    const size_t offset = tokens.size();
    tokens.insert(tokens.end(), doc.tokens.begin(), doc.tokens.end());
    for (const corpus::GoldMention& gm : doc.mentions) {
      ProblemMention pm;
      pm.surface = gm.surface;
      pm.begin_token = offset + gm.begin_token;
      pm.end_token = offset + gm.end_token;
      problem.mentions.push_back(std::move(pm));
    }
  }
  const size_t num_mentions = problem.mentions.size();
  ASSERT_GE(num_mentions, 150u);

  Aida aida(&models_, &mw_, AidaOptions());
  const DisambiguationResult full = aida.Disambiguate(problem, {});
  ASSERT_FALSE(full.cancelled);
  // Candidate lookup and local features, from the start of the call.
  const double local_seconds = full.stats.local_seconds;

  task::SchedulerOptions scheduler_options;
  scheduler_options.num_threads = 2;
  task::Scheduler scheduler(scheduler_options);
  DisambiguateOptions parallel;
  parallel.parallel.scheduler = &scheduler;
  parallel.parallel.max_tasks = 4;

  for (const bool use_scheduler : {false, true}) {
    SCOPED_TRACE(use_scheduler ? "task scheduler" : "serial");
    size_t cut_in_local_phase = 0;
    constexpr int kSteps = 100;
    for (int step = 0; step <= kSteps; ++step) {
      const auto delay = std::chrono::duration<double>(
          1.5 * local_seconds * step / kSteps);
      CancellationToken token(
          CancellationToken::Clock::now() +
          std::chrono::duration_cast<CancellationToken::Clock::duration>(
              delay));
      DisambiguateOptions options = use_scheduler ? parallel
                                                  : DisambiguateOptions();
      options.cancel = &token;
      const DisambiguationResult result = aida.Disambiguate(problem, options);

      ASSERT_EQ(result.mentions.size(), num_mentions);
      bool reached = false;
      bool unreached = false;
      for (size_t m = 0; m < num_mentions; ++m) {
        const MentionResult& mention = result.mentions[m];
        ASSERT_EQ(mention.candidate_scores.size(),
                  mention.candidate_entities.size());
        ASSERT_EQ(mention.candidate_is_placeholder.size(),
                  mention.candidate_entities.size());
        if (mention.candidate_entities.empty()) {
          EXPECT_EQ(mention.entity, kb::kNoEntity) << "mention " << m;
          unreached |= !full.mentions[m].candidate_entities.empty();
        } else {
          reached = true;
          if (mention.entity != kb::kNoEntity) {
            EXPECT_NE(std::find(mention.candidate_entities.begin(),
                                mention.candidate_entities.end(),
                                mention.entity),
                      mention.candidate_entities.end());
          }
        }
      }
      if (reached && unreached) {
        EXPECT_TRUE(result.cancelled);
        ++cut_in_local_phase;
      }
    }
    EXPECT_GT(cut_in_local_phase, 0u);
  }
}

}  // namespace
}  // namespace aida::core
