#include <gtest/gtest.h>

#include "core/aida.h"
#include "core/baselines.h"
#include "core/type_classifier.h"
#include "util/string_util.h"
#include "ee/ee_clustering.h"
#include "ee/keyphrase_harvester.h"
#include "kb/snapshot_registry.h"
#include "kore/kore_relatedness.h"
#include "serve/ned_service.h"
#include "test_world.h"

namespace aida {
namespace {

using ::aida::testing::TestWorld;

core::DisambiguationProblem ToProblem(const corpus::Document& doc) {
  core::DisambiguationProblem problem;
  problem.tokens = &doc.tokens;
  for (const corpus::GoldMention& gm : doc.mentions) {
    core::ProblemMention pm;
    pm.surface = gm.surface;
    pm.begin_token = gm.begin_token;
    pm.end_token = gm.end_token;
    problem.mentions.push_back(std::move(pm));
  }
  return problem;
}

class ExtensionsTest : public ::testing::Test {
 protected:
  ExtensionsTest()
      : world_(TestWorld::Get().world),
        corpus_(TestWorld::Get().corpus),
        models_(world_.knowledge_base.get()),
        mw_(world_.knowledge_base.get()) {}

  const synth::World& world_;
  const corpus::Corpus& corpus_;
  core::CandidateModelStore models_;
  core::MilneWittenRelatedness mw_;
};

// ---- Batch disambiguation through NedService ---------------------------------

TEST_F(ExtensionsTest, BatchMatchesSequential) {
  core::Aida aida(&models_, &mw_, core::AidaOptions());
  std::vector<core::DisambiguationProblem> problems;
  for (size_t d = 0; d < 12; ++d) problems.push_back(ToProblem(corpus_[d]));

  serve::NedService service(kb::KbSnapshot::WrapUnowned(aida, "aida"),
                            {.num_threads = 4});
  std::vector<serve::ServeResult> parallel = service.DisambiguateAll(problems);

  ASSERT_EQ(parallel.size(), problems.size());
  for (size_t d = 0; d < problems.size(); ++d) {
    ASSERT_TRUE(parallel[d].status.ok()) << parallel[d].status.ToString();
    const core::DisambiguationResult& served = parallel[d].result;
    core::DisambiguationResult sequential = aida.Disambiguate(problems[d], {});
    ASSERT_EQ(served.mentions.size(), sequential.mentions.size());
    for (size_t m = 0; m < sequential.mentions.size(); ++m) {
      EXPECT_EQ(served.mentions[m].entity, sequential.mentions[m].entity)
          << "doc " << d << " mention " << m;
      EXPECT_EQ(served.mentions[m].score, sequential.mentions[m].score)
          << "doc " << d << " mention " << m;
    }
  }
}

TEST_F(ExtensionsTest, BatchEmptyInput) {
  core::Aida aida(&models_, &mw_, core::AidaOptions());
  serve::NedService service(kb::KbSnapshot::WrapUnowned(aida, "aida"));
  EXPECT_TRUE(service.DisambiguateAll({}).empty());
  EXPECT_GE(service.num_threads(), 1u);
}

// ---- TagMe baseline --------------------------------------------------------------

TEST_F(ExtensionsTest, TagMeRunsAndUsesVotes) {
  kore::KoreRelatedness kore;
  core::TagMeBaseline tagme(&models_, &kore);
  size_t correct = 0;
  size_t total = 0;
  for (size_t d = 0; d < 10; ++d) {
    core::DisambiguationProblem problem = ToProblem(corpus_[d]);
    core::DisambiguationResult result = tagme.Disambiguate(problem, {});
    for (size_t m = 0; m < corpus_[d].mentions.size(); ++m) {
      if (corpus_[d].mentions[m].out_of_kb()) continue;
      ++total;
      if (result.mentions[m].entity == corpus_[d].mentions[m].gold_entity) {
        ++correct;
      }
    }
  }
  ASSERT_GT(total, 40u);
  // TagMe uses only priors and votes; it should clearly beat chance but
  // is not expected to reach AIDA's level.
  EXPECT_GT(static_cast<double>(correct) / total, 0.5);
}

// ---- EE clustering ------------------------------------------------------------------

TEST_F(ExtensionsTest, ClusterGroupsCoreferentEeMentions) {
  // Collect EE mentions with harvested window models, tracking the hidden
  // emerging id as ground truth.
  ee::KeyphraseHarvester harvester(ee::KeyphraseHarvester::Options{1});
  core::ExtendedVocabulary vocab(&world_.knowledge_base->keyphrases());

  std::vector<ee::EeMention> mentions;
  std::vector<corpus::EmergingId> gold;
  for (size_t d = 0; d < corpus_.size(); ++d) {
    for (size_t m = 0; m < corpus_[d].mentions.size(); ++m) {
      const corpus::GoldMention& gm = corpus_[d].mentions[m];
      if (!gm.out_of_kb()) continue;
      auto model = std::make_shared<core::CandidateModel>();
      for (const std::string& phrase :
           harvester.WindowPhrases(corpus_[d], m)) {
        core::CandidatePhrase cp;
        for (const std::string& token : util::Split(phrase, ' ')) {
          kb::WordId w = vocab.GetOrIntern(token);
          cp.words.push_back(w);
          cp.word_idf.push_back(vocab.Idf(w));
          cp.word_npmi.push_back(vocab.Idf(w));
        }
        cp.phrase_weight = 0.05;
        model->total_phrase_weight += cp.phrase_weight;
        model->phrases.push_back(std::move(cp));
      }
      mentions.push_back({d, m, gm.surface, model});
      gold.push_back(gm.gold_emerging);
    }
  }
  ASSERT_GT(mentions.size(), 10u);

  ee::EeClusterer clusterer;
  std::vector<std::vector<size_t>> clusters = clusterer.Cluster(mentions);

  // Pairwise precision/recall against the hidden emerging ids.
  size_t tp = 0;
  size_t fp = 0;
  size_t fn = 0;
  std::vector<int> cluster_of(mentions.size(), -1);
  for (size_t c = 0; c < clusters.size(); ++c) {
    for (size_t i : clusters[c]) cluster_of[i] = static_cast<int>(c);
  }
  for (size_t i = 0; i < mentions.size(); ++i) {
    for (size_t j = i + 1; j < mentions.size(); ++j) {
      bool same_gold = gold[i] == gold[j];
      bool same_cluster = cluster_of[i] == cluster_of[j];
      if (same_gold && same_cluster) ++tp;
      if (!same_gold && same_cluster) ++fp;
      if (same_gold && !same_cluster) ++fn;
    }
  }
  ASSERT_GT(tp + fn, 0u);
  double precision = tp + fp > 0 ? static_cast<double>(tp) / (tp + fp) : 1.0;
  double recall = static_cast<double>(tp) / (tp + fn);
  EXPECT_GT(precision, 0.7);
  EXPECT_GT(recall, 0.3);
}

TEST_F(ExtensionsTest, MergeModelsAccumulatesWeights) {
  auto model = std::make_shared<core::CandidateModel>();
  core::CandidatePhrase phrase;
  phrase.words = {1, 2};
  phrase.word_idf = {1.0, 1.0};
  phrase.word_npmi = {1.0, 1.0};
  phrase.phrase_weight = 0.1;
  model->phrases.push_back(phrase);
  model->total_phrase_weight = 0.1;

  std::vector<ee::EeMention> mentions = {{0, 0, "X", model},
                                         {1, 0, "X", model}};
  auto merged = ee::EeClusterer::MergeModels(mentions, {0, 1});
  ASSERT_EQ(merged->phrases.size(), 1u);
  EXPECT_DOUBLE_EQ(merged->phrases[0].phrase_weight, 0.2);
  EXPECT_DOUBLE_EQ(merged->total_phrase_weight, 0.2);
}

// ---- Type classifier -------------------------------------------------------------------

TEST_F(ExtensionsTest, TypeClassifierPrefersTopicType) {
  // Classify mention contexts against the topic types; the gold entity's
  // topic type should rank near the top far more often than chance.
  const kb::TypeTaxonomy& taxonomy = world_.knowledge_base->taxonomy();
  std::vector<kb::TypeId> topic_types;
  for (size_t t = 0; t < world_.num_topics(); ++t) {
    kb::TypeId type =
        taxonomy.FindType(util::StrFormat("topic_%zu", t));
    ASSERT_NE(type, kb::kNoType);
    topic_types.push_back(type);
  }
  core::TypeClassifier classifier(world_.knowledge_base.get(), topic_types);
  core::ExtendedVocabulary vocab(&world_.knowledge_base->keyphrases());

  size_t hits = 0;
  size_t total = 0;
  for (size_t d = 0; d < 10; ++d) {
    core::DocumentContext context(corpus_[d].tokens, vocab);
    for (const corpus::GoldMention& gm : corpus_[d].mentions) {
      if (gm.out_of_kb()) continue;
      auto predictions = classifier.Classify(context, gm.begin_token,
                                             gm.end_token);
      if (predictions.empty()) continue;
      ++total;
      uint32_t gold_topic = world_.entity_topic[gm.gold_entity];
      // Top-2 hit counts.
      for (size_t p = 0; p < std::min<size_t>(2, predictions.size()); ++p) {
        if (predictions[p].type == topic_types[gold_topic]) {
          ++hits;
          break;
        }
      }
    }
  }
  ASSERT_GT(total, 40u);
  // Chance level for top-2 of 8 topics is 25%.
  EXPECT_GT(static_cast<double>(hits) / total, 0.5);
}

TEST_F(ExtensionsTest, TypeClassifierScoresAreDeterministic) {
  // Regression: centroids used to accumulate IDF mass in unordered_map
  // iteration order, so prediction scores were a function of the hash
  // seed. Two classifiers built from the same KB must now agree bitwise.
  const kb::TypeTaxonomy& taxonomy = world_.knowledge_base->taxonomy();
  std::vector<kb::TypeId> topic_types;
  for (size_t t = 0; t < world_.num_topics(); ++t) {
    kb::TypeId type = taxonomy.FindType(util::StrFormat("topic_%zu", t));
    ASSERT_NE(type, kb::kNoType);
    topic_types.push_back(type);
  }
  core::TypeClassifier first(world_.knowledge_base.get(), topic_types);
  core::TypeClassifier second(world_.knowledge_base.get(), topic_types);
  core::ExtendedVocabulary vocab(&world_.knowledge_base->keyphrases());

  size_t compared = 0;
  for (size_t d = 0; d < 5; ++d) {
    core::DocumentContext context(corpus_[d].tokens, vocab);
    for (const corpus::GoldMention& gm : corpus_[d].mentions) {
      auto a = first.Classify(context, gm.begin_token, gm.end_token);
      auto b = second.Classify(context, gm.begin_token, gm.end_token);
      ASSERT_EQ(a.size(), b.size());
      for (size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].type, b[i].type);
        // Bitwise, not approximate: the determinism contract promises
        // identical floating-point folds, not merely close ones.
        EXPECT_EQ(a[i].score, b[i].score);
      }
      compared += a.size();
    }
  }
  ASSERT_GT(compared, 0u);
}

}  // namespace
}  // namespace aida
