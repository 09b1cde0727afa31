// Strings, things, and cats (chapter 6): disambiguate a synthetic news
// stream with AIDA, index it with EntitySearch, and demonstrate the three
// query levels plus trending analytics — the STICS use cases.

#include <cstdio>

#include "apps/entity_search.h"
#include "apps/news_analytics.h"
#include "core/aida.h"
#include "kb/snapshot_registry.h"
#include "kore/kore_relatedness.h"
#include "serve/ned_service.h"
#include "synth/corpus_generator.h"
#include "synth/world_generator.h"

using namespace aida;

int main() {
  // A small world and a two-week stream.
  synth::WorldConfig world_config;
  world_config.seed = 2024;
  world_config.num_topics = 10;
  world_config.num_entities = 800;
  world_config.num_shared_names = 200;
  synth::World world = synth::WorldGenerator(world_config).Generate();

  synth::CorpusConfig corpus_config;
  corpus_config.seed = 2025;
  corpus_config.num_documents = 200;
  corpus_config.doc_tokens = 120;
  corpus_config.entities_per_doc = 8;
  corpus_config.linked_entity_prob = 0.5;
  corpus_config.first_day = 0;
  corpus_config.last_day = 13;
  corpus::Corpus stream =
      synth::CorpusGenerator(&world, corpus_config).Generate();

  // ---- Disambiguate the stream in parallel -----------------------------------
  core::CandidateModelStore models(world.knowledge_base.get());
  kore::KoreRelatedness kore;
  core::Aida aida(&models, &kore, core::AidaOptions());
  serve::NedService service(kb::KbSnapshot::WrapUnowned(aida, "aida"));

  std::vector<core::DisambiguationProblem> problems;
  problems.reserve(stream.size());
  for (const corpus::Document& doc : stream) {
    core::DisambiguationProblem problem;
    problem.tokens = &doc.tokens;
    for (const corpus::GoldMention& gm : doc.mentions) {
      core::ProblemMention pm;
      pm.surface = gm.surface;
      pm.begin_token = gm.begin_token;
      pm.end_token = gm.end_token;
      problem.mentions.push_back(std::move(pm));
    }
    problems.push_back(std::move(problem));
  }
  std::vector<serve::ServeResult> results = service.DisambiguateAll(problems);
  std::printf("disambiguated %zu documents on %zu threads\n", stream.size(),
              service.num_threads());

  // ---- Index --------------------------------------------------------------------
  apps::EntitySearch search(world.knowledge_base.get());
  apps::NewsAnalytics analytics;
  for (size_t d = 0; d < stream.size(); ++d) {
    std::vector<kb::EntityId> entities;
    for (const core::MentionResult& m : results[d].result.mentions) {
      entities.push_back(m.entity);
    }
    search.IndexDocument(stream[d], entities);
    analytics.AddDocument(stream[d].day, entities);
  }

  // ---- Things: search by canonical entity, across surface forms ------------------
  kb::EntityId star = world.topic_entities[3].front();
  const kb::Entity& star_entity = world.knowledge_base->entities().Get(star);
  apps::EntitySearch::Query things;
  things.entities.push_back(star);
  std::printf("\n'things' query for %s:\n", star_entity.canonical_name.c_str());
  for (const auto& hit : search.Search(things, 5)) {
    std::printf("  doc %-4zu (day %2lld) score %.2f\n", hit.doc_index,
                static_cast<long long>(stream[hit.doc_index].day),
                hit.score);
  }

  // ---- Cats: search by category with a date filter ---------------------------------
  kb::TypeId person = world.knowledge_base->taxonomy().FindType("person");
  apps::EntitySearch::Query cats;
  cats.categories.push_back(person);
  cats.first_day = 5;
  cats.last_day = 9;
  std::printf("\n'cats' query for <person> in days 5-9: %zu hits\n",
              search.Search(cats, 1000).size());

  // ---- Strings + things combined ------------------------------------------------------
  apps::EntitySearch::Query mixed;
  mixed.terms.push_back(world.topic_vocab[3][0]);
  mixed.entities.push_back(star);
  std::printf("\nmixed query ('%s' + %s): top doc %zu\n",
              world.topic_vocab[3][0].c_str(),
              star_entity.canonical_name.c_str(),
              search.Search(mixed, 1).front().doc_index);

  // ---- Analytics -----------------------------------------------------------------------
  std::printf("\ntrending entities at day 13 (3-day window):\n");
  for (const auto& [entity, ratio] : analytics.TrendingEntities(13, 3, 5)) {
    std::printf("  %-28s ratio %.2f\n",
                world.knowledge_base->entities()
                    .Get(entity)
                    .canonical_name.c_str(),
                ratio);
  }
  std::printf("\nco-occurrence neighbourhood of %s:\n",
              star_entity.canonical_name.c_str());
  for (const auto& [entity, count] : analytics.TopCooccurring(star, 5)) {
    std::printf("  %-28s %u shared documents\n",
                world.knowledge_base->entities()
                    .Get(entity)
                    .canonical_name.c_str(),
                count);
  }
  return 0;
}
