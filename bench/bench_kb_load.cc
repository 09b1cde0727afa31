// KB load-path benchmark: how fast does a serving process get from a
// flat snapshot file to an answering knowledge base?
//
// On the CoNLL-like world, builds the KB with the generator, saves it as
// a flat snapshot, then mmap-loads it (kb::flat::LoadFlatSnapshot): map
// the file, validate bounds/offsets/slots, and point the store views
// straight into the page cache. No interning, no allocation proportional
// to KB size, no weight recomputation. A full query pass over the loaded
// KB must answer exactly as the generator's heap KB does.
//
// Reports wall times for build/save/load plus the process RSS growth
// attributable to the load (before and after touching every page), and
// writes BENCH_kb_load.json at the repo root.
//
// BENCH_KB_LOAD_SMOKE=1 shrinks the world for CI.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "bench_common.h"
#include "kb/flat/flat_snapshot.h"
#include "kb/knowledge_base.h"
#include "synth/presets.h"
#include "synth/world_generator.h"
#include "util/check.h"

using namespace aida;

namespace {

double Now() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Current VmRSS in KiB from /proc/self/status; 0 where unsupported.
long RssKib() {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return 0;
  long rss = 0;
  char line[256];
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    if (std::strncmp(line, "VmRSS:", 6) == 0) {
      rss = std::strtol(line + 6, nullptr, 10);
      break;
    }
  }
  std::fclose(f);
  return rss;
}

/// Forces a query pass over the whole KB so mmap-backed pages actually
/// fault in; returns a checksum so the work cannot be optimized away.
uint64_t TouchEverything(const kb::KnowledgeBase& kb) {
  uint64_t checksum = 0;
  for (kb::EntityId e = 0; e < kb.entity_count(); ++e) {
    checksum += kb.entities().Get(e).anchor_count;
    checksum += kb.links().InLinks(e).size();
    for (kb::PhraseId p : kb.keyphrases().EntityPhrases(e)) {
      checksum += kb.keyphrases().PhraseWords(p).size();
    }
    for (kb::WordId w : kb.keyphrases().EntityWords(e)) {
      checksum += static_cast<uint64_t>(kb.keyphrases().KeywordNpmi(e, w) > 0);
    }
  }
  for (const std::string& name : kb.dictionary().AllNames()) {
    checksum += kb.dictionary().Lookup(name).size();
  }
  return checksum;
}

/// Best-of-N wall time of `load`, which returns a KB to keep alive until
/// after the timestamp (so destruction is not billed to the load).
template <typename Fn>
double TimeLoad(int iterations, const Fn& load) {
  double best = 1e300;
  for (int i = 0; i < iterations; ++i) {
    const double start = Now();
    std::unique_ptr<kb::KnowledgeBase> kb = load();
    const double elapsed = Now() - start;
    AIDA_CHECK(kb != nullptr);
    best = std::min(best, elapsed);
  }
  return best;
}

}  // namespace

int main() {
  const bool smoke = std::getenv("BENCH_KB_LOAD_SMOKE") != nullptr;
  synth::WorldConfig config = synth::ConllPreset().world;
  if (smoke) {
    config.num_entities = 600;
    config.num_topics = 10;
  }

  const double build_start = Now();
  synth::World world = synth::WorldGenerator(config).Generate();
  const double build_seconds = Now() - build_start;
  const kb::KnowledgeBase& kb = *world.knowledge_base;

  const std::string dir = ::getenv("TMPDIR") ? ::getenv("TMPDIR") : "/tmp";
  const std::string flat_path = dir + "/bench_kb_load_flat.fkb";

  double save_flat_start = Now();
  AIDA_CHECK_OK(kb::flat::SaveFlatSnapshot(kb, flat_path));
  const double save_flat_seconds = Now() - save_flat_start;
  const uint64_t heap_checksum = TouchEverything(kb);

  const int iterations = smoke ? 3 : 5;

  // Mmap-load: validate and point views into the page cache.
  const long rss_before_mmap = RssKib();
  const double mmap_seconds = TimeLoad(iterations, [&] {
    auto loaded = kb::flat::LoadFlatSnapshot(flat_path);
    AIDA_CHECK_OK(loaded.status());
    return std::move(loaded.value());
  });
  auto mapped = kb::flat::LoadFlatSnapshot(flat_path);
  AIDA_CHECK_OK(mapped.status());
  const long rss_mmap_kib = RssKib() - rss_before_mmap;
  AIDA_CHECK((*mapped)->flat_backed());
  const uint64_t mmap_checksum = TouchEverything(**mapped);
  const long rss_mmap_touched_kib = RssKib() - rss_before_mmap;
  AIDA_CHECK(heap_checksum == mmap_checksum,
             "flat and heap KBs answered queries differently");

  bench::PrintHeader("KB load path (CoNLL-like world, best of N loads)");
  std::printf("%-44s %10zu\n", "entities", kb.entity_count());
  std::printf("%-44s %10.3f s\n", "world build (generator)", build_seconds);
  std::printf("%-44s %10.3f s\n", "save flat snapshot", save_flat_seconds);
  std::printf("%-44s %10.4f s\n", "mmap-load (flat snapshot)", mmap_seconds);
  std::printf("%-44s %10ld KiB\n", "RSS growth, mmap-load", rss_mmap_kib);
  std::printf("%-44s %10ld KiB\n", "RSS growth, mmap-load + full touch",
              rss_mmap_touched_kib);
  bench::PrintRule();

  const std::string json_path = bench::JsonOutputPath("BENCH_kb_load.json");
  std::FILE* out = std::fopen(json_path.c_str(), "w");
  if (out == nullptr) {
    std::fprintf(stderr, "could not open %s for writing\n", json_path.c_str());
    return 1;
  }
  std::fprintf(out,
               "{\n"
               "  \"entities\": %zu,\n"
               "  \"smoke\": %s,\n"
               "  \"build_seconds\": %.4f,\n"
               "  \"save_flat_seconds\": %.4f,\n"
               "  \"mmap_load_seconds\": %.6f,\n"
               "  \"rss_mmap_load_kib\": %ld,\n"
               "  \"rss_mmap_touched_kib\": %ld\n"
               "}\n",
               kb.entity_count(), smoke ? "true" : "false", build_seconds,
               save_flat_seconds, mmap_seconds, rss_mmap_kib,
               rss_mmap_touched_kib);
  std::fclose(out);
  std::printf("wrote %s\n", json_path.c_str());

  std::remove(flat_path.c_str());
  return 0;
}
