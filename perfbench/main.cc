// aida_perfbench: the binary of the repository benchmark. run.py
// builds it and calls it twice per run:
//
//   aida_perfbench gen --workload W --seed N --seconds S --dir D
//       generates the inputs (the CoNLL-preset world as a flat KB file and
//       a pool of distinct documents drawn from --seed) into D;
//   aida_perfbench run --workload W --seed N --seconds S --trace 0|1 --dir D
//       sets up the program from D/kb.flat, drives the workload in rounds
//       for S seconds, checks every output against a serial uncached
//       reference run and against gold, and prints one JSON result as its
//       last line.
//
// A round sets the program up afresh, warms it up and then measures a
// fixed number of distinct documents, so every round does the same kind
// of work whatever the machine's speed; the run reports the median of each
// figure over its rounds. The end-to-end figures are CPU times, which time
// slicing and hypervisor steal on a shared host do not inflate; wall-clock
// figures are printed beside them.
//
// Input generation runs in its own process, so neither its time nor its
// memory shows in the measured process. With --trace 1 the run makes
// traced rounds (spans around the program's public calls, see trace.h)
// and untraced rounds for S/2 seconds each, and reports per-layer metrics
// plus the tracing overhead; with --trace 0 it makes untraced rounds for S
// seconds and reports the end-to-end metrics.

#include <algorithm>
#include <array>
#include <atomic>
#include <charconv>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <ctime>
#include <fstream>
#include <functional>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "core/aida.h"
#include "core/candidates.h"
#include "core/relatedness.h"
#include "corpus/corpus_io.h"
#include "kb/flat/flat_snapshot.h"
#include "kb/snapshot_registry.h"
#include "kore/kore_relatedness.h"
#include "nlp/ner_tagger.h"
#include "serve/ned_service.h"
#include "synth/corpus_generator.h"
#include "synth/presets.h"
#include "synth/world_generator.h"
#include "text/tokenizer.h"
#include "trace.h"
#include "util/rng.h"

namespace perfbench {
namespace {

using aida::core::DisambiguationProblem;
using aida::core::DisambiguationResult;
using aida::serve::ServeResult;

// ---- Workloads --------------------------------------------------------------

enum class Loop {
  kSerialText,  // one thread: raw text -> Tokenize -> Recognize -> Disambiguate
  kOpenLoop,    // Poisson arrivals into NedService, KB reloaded periodically
  kBatch,       // closed-loop NedService::DisambiguateAll batches
  kClient,      // one closed-loop client, one outstanding request
};

struct Workload {
  const char* name;
  Loop loop;
  bool kore = false;
  /// False: the NED system owns its relatedness measure and bypasses the
  /// snapshot's relatedness cache.
  bool cached = true;
  size_t workers = 0;       // service workers; 0 = nproc
  size_t task_threads = 0;  // service task engine threads
  size_t batch = 0;         // kBatch
  double rate_per_s = 0;    // kOpenLoop arrival rate
  double reload_period_s = 0;
  /// Wall-clock latency limit of the printed slo_miss_frac.
  double slo_ms = 0;
  /// Documents run on each round's fresh stack before it is measured.
  size_t warmup_docs = 0;
  /// Documents measured per round.
  size_t round_docs = 0;
  /// Upper bound on docs/s, sizes the document pool.
  double pool_docs_per_s = 0;
  /// Document shape (CoNLL preset unless overridden).
  size_t doc_tokens = 0;
  size_t entities_per_doc = 0;
  double mention_repeat = 0;
};

// Why each workload has its shape is in README.md ("Why these shapes").
// serve-mw and kore-batch are kept runnable but are not in BENCHMARK.json:
// serve-mw is too unsteady on a shared 4-core VM, and kore-batch fails its
// output check on the current code (README.md).
const Workload kWorkloads[] = {
    {.name = "annotate-mw", .loop = Loop::kSerialText, .slo_ms = 10,
     .warmup_docs = 200, .round_docs = 500, .pool_docs_per_s = 800},
    {.name = "serve-mw", .loop = Loop::kOpenLoop, .workers = 3,
     .rate_per_s = 400, .reload_period_s = 1.0, .slo_ms = 25,
     .warmup_docs = 400, .round_docs = 1200, .pool_docs_per_s = 450},
    {.name = "kore-nocache", .loop = Loop::kBatch, .kore = true,
     .cached = false, .batch = 64, .slo_ms = 500, .warmup_docs = 64,
     .round_docs = 256, .pool_docs_per_s = 300, .doc_tokens = 120,
     .entities_per_doc = 8},
    {.name = "kore-batch", .loop = Loop::kBatch, .kore = true,
     .batch = 64, .slo_ms = 1000, .warmup_docs = 256, .round_docs = 512,
     .pool_docs_per_s = 500},
    {.name = "heavy-tasks", .loop = Loop::kClient, .workers = 1,
     .task_threads = 1, .slo_ms = 100, .warmup_docs = 20, .round_docs = 250,
     .pool_docs_per_s = 300, .doc_tokens = 500, .entities_per_doc = 35,
     .mention_repeat = 1.5},
};

const Workload* FindWorkload(const std::string& name) {
  for (const Workload& w : kWorkloads) {
    if (name == w.name) return &w;
  }
  return nullptr;
}

size_t Nproc() { return std::max(1u, std::thread::hardware_concurrency()); }

// ---- Small statistics -------------------------------------------------------

double Median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Exact nearest-rank percentile of `sorted` (ascending), q in (0, 1].
double Percentile(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0.0;
  size_t rank = static_cast<size_t>(std::ceil(q * sorted.size()));
  rank = std::clamp<size_t>(rank, 1, sorted.size());
  return sorted[rank - 1];
}

/// The highest percentile (in %) with at least ten samples above it.
double HighestSupportedPercentile(size_t n) {
  if (n <= 10) return 0.0;
  return std::floor(1e4 * static_cast<double>(n - 10) / n) / 100.0;
}

std::string Num(double v) {
  char buf[64];
  auto [end, ec] = std::to_chars(buf, buf + sizeof(buf), v);
  if (ec != std::errc()) return "0";
  return std::string(buf, end);
}

double PeakRssMib() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0.0;
}

/// The host's steal and all CPU time so far, in clock ticks, from the
/// first line of /proc/stat; both 0 where it cannot be read.
std::pair<double, double> StealAndTotalTicks() {
  std::ifstream stat("/proc/stat");
  std::string cpu;
  stat >> cpu;
  double field = 0, total = 0, steal = 0;
  for (int i = 0; i < 8 && stat >> field; ++i) {
    total += field;
    if (i == 7) steal = field;
  }
  return {steal, total};
}

double Seconds(Clock::duration d) {
  return std::chrono::duration<double>(d).count();
}

double CpuClockSeconds(clockid_t clock) {
  timespec ts{};
  clock_gettime(clock, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

/// CPU time of all the process's threads. Time the threads spend waiting
/// for a CPU, including hypervisor steal, does not count.
double ProcessCpuSeconds() {
  return CpuClockSeconds(CLOCK_PROCESS_CPUTIME_ID);
}

double ThreadCpuSeconds() { return CpuClockSeconds(CLOCK_THREAD_CPUTIME_ID); }

// ---- Inputs -----------------------------------------------------------------

aida::synth::CorpusConfig CorpusFor(const Workload& w, uint64_t seed,
                                    size_t num_documents) {
  aida::synth::CorpusConfig config = aida::synth::ConllPreset().corpus;
  config.seed = 0x5EEDF00DULL * (seed + 1) + 0x9E3779B97F4A7C15ULL;
  config.num_documents = num_documents;
  if (w.doc_tokens != 0) config.doc_tokens = w.doc_tokens;
  if (w.entities_per_doc != 0) config.entities_per_doc = w.entities_per_doc;
  if (w.mention_repeat != 0) config.mention_repeat = w.mention_repeat;
  return config;
}

/// Documents the run can consume: the fastest expected rate over the whole
/// measured time, plus a round for each of the (at most two) sets of
/// rounds, whose last round may start just before its time is up.
size_t PoolSize(const Workload& w, double seconds) {
  return 2 * (w.warmup_docs + w.round_docs) +
         static_cast<size_t>(std::ceil(w.pool_docs_per_s * seconds));
}

int Generate(const Workload& w, uint64_t seed, double seconds,
             const std::string& dir) {
  aida::synth::World world =
      aida::synth::WorldGenerator(aida::synth::ConllPreset().world).Generate();
  aida::util::Status saved = aida::kb::flat::SaveFlatSnapshot(
      *world.knowledge_base, dir + "/kb.flat");
  if (!saved.ok()) {
    std::fprintf(stderr, "gen: %s\n", saved.ToString().c_str());
    return 1;
  }
  aida::corpus::Corpus docs =
      aida::synth::CorpusGenerator(&world,
                                   CorpusFor(w, seed, PoolSize(w, seconds)))
          .Generate();
  saved = aida::corpus::SaveCorpus(docs, dir + "/docs.corpus");
  if (!saved.ok()) {
    std::fprintf(stderr, "gen: %s\n", saved.ToString().c_str());
    return 1;
  }
  return 0;
}

/// Gold of one document: each gold mention's entity (kNoEntity when out of
/// KB) and, for raw text, its character range.
struct Gold {
  std::vector<aida::kb::EntityId> entity;
  std::vector<std::pair<size_t, size_t>> chars;
};

/// The inputs of a run. Raw-text workloads keep only the text and the
/// gold; the others keep the documents, which their problems point into.
struct Inputs {
  std::vector<std::string> text;
  aida::corpus::Corpus docs;
  std::vector<DisambiguationProblem> problems;
  std::vector<Gold> gold;
  RequestIndex requests;

  size_t size() const { return gold.size(); }
};

/// Joins the tokens with single spaces; records each gold mention's
/// character range in the joined text.
std::string ToRawText(const aida::corpus::Document& doc, Gold* gold) {
  std::string text;
  std::vector<size_t> begin(doc.tokens.size()), end(doc.tokens.size());
  for (size_t t = 0; t < doc.tokens.size(); ++t) {
    if (t > 0) text.push_back(' ');
    begin[t] = text.size();
    text += doc.tokens[t];
    end[t] = text.size();
  }
  for (const aida::corpus::GoldMention& gm : doc.mentions) {
    gold->chars.emplace_back(begin[gm.begin_token], end[gm.end_token - 1]);
  }
  return text;
}

DisambiguationProblem ToProblem(const aida::corpus::Document& doc) {
  DisambiguationProblem problem;
  problem.tokens = &doc.tokens;
  for (const aida::corpus::GoldMention& gm : doc.mentions) {
    aida::core::ProblemMention pm;
    pm.surface = gm.surface;
    pm.begin_token = gm.begin_token;
    pm.end_token = gm.end_token;
    problem.mentions.push_back(std::move(pm));
  }
  return problem;
}

// ---- The program's stack ----------------------------------------------------

/// A NED system over a relatedness measure it owns, so that its relatedness
/// calls bypass the snapshot's cache.
class UncachedSystem : public aida::core::NedSystem {
 public:
  UncachedSystem(
      std::unique_ptr<aida::core::RelatednessMeasure> measure,
      const std::function<std::unique_ptr<aida::core::NedSystem>(
          const aida::core::RelatednessMeasure*)>& make_system)
      : measure_(std::move(measure)), system_(make_system(measure_.get())) {}

  DisambiguationResult Disambiguate(
      const DisambiguationProblem& problem,
      const aida::core::DisambiguateOptions& options) const override {
    return system_->Disambiguate(problem, options);
  }
  std::string name() const override { return system_->name(); }

 private:
  std::unique_ptr<aida::core::RelatednessMeasure> measure_;
  std::unique_ptr<aida::core::NedSystem> system_;
};

/// Records the CPU time of each Disambiguate call, taken on the thread that
/// runs it, into the slot of its request. A request runs once, so each slot
/// has one writer; slots are read after the replies are collected.
class CpuTimedSystem : public aida::core::NedSystem {
 public:
  CpuTimedSystem(std::unique_ptr<aida::core::NedSystem> system,
                 const RequestIndex* requests, std::vector<double>* cpu_s)
      : system_(std::move(system)), requests_(requests), cpu_s_(cpu_s) {}

  DisambiguationResult Disambiguate(
      const DisambiguationProblem& problem,
      const aida::core::DisambiguateOptions& options) const override {
    const double begin = ThreadCpuSeconds();
    DisambiguationResult result = system_->Disambiguate(problem, options);
    const double spent = ThreadCpuSeconds() - begin;
    const auto found = requests_->find(problem.tokens);
    if (found != requests_->end()) (*cpu_s_)[found->second] = spent;
    return result;
  }
  std::string name() const override { return system_->name(); }

 private:
  std::unique_ptr<aida::core::NedSystem> system_;
  const RequestIndex* requests_;
  std::vector<double>* cpu_s_;
};

/// Set-ups of one set of rounds, timed per part. The part lists are in
/// wall-clock seconds; setup_cpu_s is the process's CPU time per set-up.
struct Stack {
  std::shared_ptr<aida::kb::SnapshotRegistry> registry;
  std::unique_ptr<aida::serve::NedService> service;
  std::vector<double> setup_cpu_s, setup_s, flat_load_s, snapshot_build_s,
      reload_s;
};

/// Workers record each request's CPU time through CpuTimedSystem on the
/// loops that run requests concurrently; the serial loops time requests
/// from the caller (see RunSerialText and RunClient).
bool WorkersTimeRequests(const Workload& w) {
  return w.loop == Loop::kBatch || w.loop == Loop::kOpenLoop;
}

/// `request_cpu_s` receives each request's CPU time (untraced rounds of
/// the loops where WorkersTimeRequests holds).
aida::kb::SnapshotOptions MakeSnapshotOptions(
    const Workload& w, bool traced, const RequestIndex* requests,
    std::vector<double>* request_cpu_s) {
  std::vector<double>* cpu =
      !traced && WorkersTimeRequests(w) ? request_cpu_s : nullptr;
  const bool kore = w.kore;
  // The measure the workload evaluates, wrapped for timing when traced.
  auto measure = [kore, traced](const aida::kb::KnowledgeBase& kb)
      -> std::unique_ptr<aida::core::RelatednessMeasure> {
    std::unique_ptr<aida::core::RelatednessMeasure> base;
    if (kore) {
      base = std::make_unique<aida::kore::KoreRelatedness>();
    } else {
      base = std::make_unique<aida::core::MilneWittenRelatedness>(&kb);
    }
    if (traced) return std::make_unique<TimingRelatedness>(std::move(base));
    return base;
  };
  const Layer caller = w.loop == Loop::kSerialText ? Layer::kAnnotate
                                                       : Layer::kServeRequest;
  // The NED system over the snapshot's candidate models.
  auto system = [traced, requests, caller, cpu](
                    const aida::core::CandidateModelStore* models,
                    const aida::core::RelatednessMeasure* relatedness)
      -> std::unique_ptr<aida::core::NedSystem> {
    if (traced) {
      return std::make_unique<TracingSystem>(models, relatedness, requests,
                                             caller);
    }
    auto aida = std::make_unique<aida::core::Aida>(models, relatedness,
                                                   aida::core::AidaOptions());
    if (cpu == nullptr) return aida;
    return std::make_unique<CpuTimedSystem>(std::move(aida), requests, cpu);
  };

  aida::kb::SnapshotOptions options;
  if (!w.cached) {
    options.system_factory =
        [measure, system](const aida::core::CandidateModelStore* models,
                          const aida::core::RelatednessMeasure*)
        -> std::unique_ptr<aida::core::NedSystem> {
      return std::make_unique<UncachedSystem>(
          measure(models->knowledge_base()),
          [&](const aida::core::RelatednessMeasure* relatedness) {
            return system(models, relatedness);
          });
    };
    return options;
  }
  // Otherwise the default stack (MW behind the snapshot's cache, Aida on
  // top), with KORE and the timing decorators swapped in where asked.
  if (kore || traced) options.relatedness_factory = measure;
  if (traced || cpu != nullptr) options.system_factory = system;
  return options;
}

// Set-ups before the first round (each later round adds one) and quiet
// reloads are repeated and their medians reported.
constexpr int kSetups = 15;
constexpr int kQuietReloads = 21;

void RecordSpan(bool traced, Layer layer, Clock::time_point begin,
                Clock::time_point end, uint64_t request = kNoRequest) {
  if (!traced) return;
  auto ns = [](Clock::time_point t) {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               t.time_since_epoch())
        .count();
  };
  ThisThreadTrace().spans.push_back(
      {request, layer, Layer::kNone, ns(begin), ns(end), 0});
}

/// Replaces the stack in `stack` with a fresh one: loads the flat KB,
/// builds the snapshot stack and starts the service, recording the times
/// when `record`.
bool SetUp(const Workload& w, const std::string& kb_path,
           const aida::kb::SnapshotOptions& snapshot_options, bool traced,
           bool record, Stack* stack) {
  stack->service.reset();  // drains and joins every worker
  stack->registry.reset();
  const double cpu0 = ProcessCpuSeconds();
  const Clock::time_point t0 = Clock::now();
  auto kb = aida::kb::flat::LoadFlatSnapshot(kb_path);
  if (!kb.ok()) {
    std::fprintf(stderr, "setup: %s\n", kb.status().ToString().c_str());
    return false;
  }
  const Clock::time_point t1 = Clock::now();
  auto registry =
      std::make_shared<aida::kb::SnapshotRegistry>(snapshot_options);
  auto published = registry->Publish(
      std::shared_ptr<const aida::kb::KnowledgeBase>(std::move(*kb)),
      "file:" + kb_path);
  if (!published.ok()) {
    std::fprintf(stderr, "setup: %s\n", published.status().ToString().c_str());
    return false;
  }
  const Clock::time_point t2 = Clock::now();
  if (w.loop != Loop::kSerialText) {
    aida::serve::NedServiceOptions options;
    options.num_threads = w.workers != 0 ? w.workers : Nproc();
    options.parallelism.task_threads = w.task_threads;
    stack->service =
        std::make_unique<aida::serve::NedService>(registry, options);
  }
  const Clock::time_point t3 = Clock::now();
  const double cpu = ProcessCpuSeconds() - cpu0;
  stack->registry = std::move(registry);
  if (!record) return true;
  stack->setup_cpu_s.push_back(cpu);
  stack->flat_load_s.push_back(Seconds(t1 - t0));
  stack->snapshot_build_s.push_back(Seconds(t2 - t1));
  stack->setup_s.push_back(Seconds(t3 - t0));
  RecordSpan(traced, Layer::kFlatLoad, t0, t1);
  RecordSpan(traced, Layer::kSnapshotBuild, t1, t2);
  if (stack->service != nullptr) {
    RecordSpan(traced, Layer::kServiceStart, t2, t3);
  }
  return true;
}

/// Times kQuietReloads reloads of the KB file with no traffic (for
/// workloads that do not reload under load).
bool TimeQuietReloads(const Workload& w, const std::string& kb_path,
                      bool traced, Stack* stack) {
  if (w.reload_period_s != 0) return true;
  for (int rep = 0; rep < kQuietReloads; ++rep) {
    const Clock::time_point t0 = Clock::now();
    auto reloaded = stack->registry->ReloadFromFile(kb_path);
    const Clock::time_point t1 = Clock::now();
    if (!reloaded.ok()) {
      std::fprintf(stderr, "reload: %s\n",
                   reloaded.status().ToString().c_str());
      return false;
    }
    stack->reload_s.push_back(Seconds(t1 - t0));
    RecordSpan(traced, Layer::kReload, t0, t1);
  }
  return true;
}

// ---- Rounds -----------------------------------------------------------------

/// One attempted operation of a round.
struct Sample {
  size_t doc = 0;
  size_t round = 0;
  bool ok = false;
  aida::util::StatusCode code = aida::util::StatusCode::kOk;
  /// Wall clock, from when the request was due (open loop) or issued, to
  /// completion.
  double latency_s = 0;
  /// CPU time the request took (see the loop that ran it).
  double cpu_s = 0;
  double queue_s = 0;
  double service_s = 0;
  double lag_s = 0;
  double due_s = 0;  // offset of the due time from the round's start
  uint64_t generation = 0;
  DisambiguationResult result;
  /// kSerialText only: the mentions NER found, and each one's character
  /// range. The check drops them and the annotation's mentions, keeping
  /// the count and the stats.
  std::vector<aida::core::ProblemMention> mentions;
  std::vector<std::pair<size_t, size_t>> mention_chars;
  size_t ner_mentions = 0;
};

/// The measured part of one round, or all rounds of a set merged.
struct Window {
  std::vector<Sample> samples;
  /// Wall-clock time and process CPU time of a round's measured part.
  double elapsed_s = 0;
  double cpu_s = 0;
  bool pool_exhausted = false;
  std::vector<double> reload_s;
  bool reload_failed = false;
  uint64_t submit_allocs = 0;
  size_t submits = 0;
};

Clock::duration ToDuration(double seconds) {
  return std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double>(seconds));
}

/// The token texts of `tokens`, as DisambiguationProblem::tokens wants them.
std::vector<std::string> TokenTexts(aida::text::TokenSequence tokens) {
  std::vector<std::string> texts;
  texts.reserve(tokens.size());
  for (aida::text::Token& token : tokens) {
    texts.push_back(std::move(token.text));
  }
  return texts;
}

/// Serial annotate loop: raw text in, annotations out, on one thread. A
/// document's CPU time is the thread's.
Window RunSerialText(const Workload& w, const Stack& stack,
                     const std::vector<std::string>& raw, size_t* cursor,
                     bool traced) {
  std::shared_ptr<const aida::kb::KbSnapshot> snapshot =
      stack.registry->Current();
  const aida::nlp::NerTagger tagger(&snapshot->dictionary());
  const aida::text::Tokenizer tokenizer;

  auto annotate = [&](size_t doc, Sample* sample) {
    if (traced) SetThreadRequest(doc);
    const std::string& text = raw[doc];
    aida::text::TokenSequence tokens =
        traced ? TimeSpan(doc, Layer::kTokenize, Layer::kAnnotate,
                          [&] { return tokenizer.Tokenize(text); })
               : tokenizer.Tokenize(text);
    std::vector<aida::nlp::MentionSpan> spans =
        traced ? TimeSpan(doc, Layer::kRecognize, Layer::kAnnotate,
                          [&] { return tagger.Recognize(tokens); })
               : tagger.Recognize(tokens);
    DisambiguationProblem problem;
    problem.mentions.reserve(spans.size());
    for (aida::nlp::MentionSpan& span : spans) {
      aida::core::ProblemMention mention;
      mention.surface = std::move(span.text);
      mention.begin_token = span.begin_token;
      mention.end_token = span.end_token;
      sample->mention_chars.emplace_back(tokens[span.begin_token].begin,
                                         tokens[span.end_token - 1].end);
      problem.mentions.push_back(std::move(mention));
    }
    const std::vector<std::string> texts = TokenTexts(std::move(tokens));
    problem.tokens = &texts;
    sample->result = snapshot->system().Disambiguate(problem, {});
    sample->mentions = std::move(problem.mentions);
    sample->ok = !sample->result.cancelled;
  };

  for (size_t i = 0; i < w.warmup_docs; ++i) {
    Sample discard;
    annotate((*cursor)++, &discard);
  }
  if (traced) DropRequestRecords();

  Window window;
  const double cpu_begin = ProcessCpuSeconds();
  const Clock::time_point begin = Clock::now();
  Clock::time_point now = begin;
  for (size_t i = 0; i < w.round_docs; ++i) {
    Sample sample;
    sample.doc = (*cursor)++;
    const Clock::time_point t0 = now;
    const double cpu0 = ThreadCpuSeconds();
    annotate(sample.doc, &sample);
    sample.cpu_s = ThreadCpuSeconds() - cpu0;
    now = Clock::now();
    sample.latency_s = Seconds(now - t0);
    sample.due_s = Seconds(t0 - begin);
    RecordSpan(traced, Layer::kAnnotate, t0, now, sample.doc);
    window.samples.push_back(std::move(sample));
  }
  window.cpu_s = ProcessCpuSeconds() - cpu_begin;
  window.elapsed_s = Seconds(now - begin);
  return window;
}

void FillFromServe(ServeResult&& r, Sample* sample) {
  sample->code = r.status.code();
  sample->ok = r.status.ok() && !r.result.cancelled;
  sample->queue_s = r.queue_seconds;
  sample->service_s = r.service_seconds;
  sample->generation = r.generation;
  sample->result = std::move(r.result);
}

/// Open loop: Poisson arrivals at w.rate_per_s into the service, each
/// request timed from when it was due; the KB is reloaded from its file
/// every w.reload_period_s on a thread of its own.
Window RunOpenLoop(const Workload& w, Stack& stack,
                   const std::vector<DisambiguationProblem>& problems,
                   const std::string& kb_path, uint64_t seed, size_t* cursor,
                   bool traced) {
  aida::util::Rng rng(seed * 7919 + 11 + *cursor);
  auto gap = [&] {
    const double u = rng.UniformDouble();
    return ToDuration(-std::log1p(-u) / w.rate_per_s);
  };
  aida::serve::NedService& service = *stack.service;

  struct Pending {
    size_t doc;
    Clock::time_point due;
    Clock::time_point submitted;
    std::future<ServeResult> reply;
  };
  Window window;
  auto submit = [&](size_t doc, Clock::time_point due) {
    std::this_thread::sleep_until(due);
    const Clock::time_point at = Clock::now();
    if (traced) {
      aida::util::ScopedAllocationCount allocs;
      auto reply = service.Submit(problems[doc]);
      window.submit_allocs += allocs.allocations();
      window.submits += 1;
      return Pending{doc, due, at, std::move(reply)};
    }
    return Pending{doc, due, at, service.Submit(problems[doc])};
  };

  Clock::time_point due = Clock::now();
  std::vector<Pending> warm;
  for (size_t i = 0; i < w.warmup_docs; ++i) {
    due += gap();
    warm.push_back(submit((*cursor)++, due));
  }
  for (Pending& p : warm) p.reply.get();
  if (traced) DropRequestRecords();

  const double cpu_begin = ProcessCpuSeconds();
  const Clock::time_point begin = Clock::now();
  // Reloads run while the round's arrivals are expected.
  const Clock::time_point end = begin + ToDuration(w.round_docs / w.rate_per_s);
  std::vector<double> reloads;
  std::atomic<bool> reload_failed{false};
  std::thread reloader([&] {
    const Clock::duration period = ToDuration(w.reload_period_s);
    for (Clock::time_point next = begin + period / 2;
         period.count() > 0 && next < end; next += period) {
      std::this_thread::sleep_until(next);
      const Clock::time_point t0 = Clock::now();
      auto reloaded = stack.registry->ReloadFromFile(kb_path);
      const Clock::time_point t1 = Clock::now();
      if (!reloaded.ok()) reload_failed = true;
      reloads.push_back(Seconds(t1 - t0));
      RecordSpan(traced, Layer::kReload, t0, t1);
    }
  });

  std::vector<Pending> pending;
  pending.reserve(w.round_docs);
  due = begin;
  for (size_t i = 0; i < w.round_docs; ++i) {
    due += gap();
    pending.push_back(submit((*cursor)++, due));
  }
  reloader.join();

  Clock::time_point last = begin;
  for (Pending& p : pending) {
    Sample sample;
    sample.doc = p.doc;
    ServeResult reply = p.reply.get();
    sample.lag_s = Seconds(p.submitted - p.due);
    sample.latency_s = sample.lag_s + reply.total_seconds;
    sample.due_s = Seconds(p.due - begin);
    const Clock::time_point done =
        p.submitted + ToDuration(reply.total_seconds);
    last = std::max(last, done);
    RecordSpan(traced, Layer::kServeRequest, p.due, done, p.doc);
    FillFromServe(std::move(reply), &sample);
    window.samples.push_back(std::move(sample));
  }
  window.cpu_s = ProcessCpuSeconds() - cpu_begin;
  window.elapsed_s = Seconds(last - begin);
  window.reload_s = std::move(reloads);
  window.reload_failed = reload_failed;
  return window;
}

/// Closed loop through NedService::DisambiguateAll, w.batch documents at a
/// time; each document is timed from submission to completion.
Window RunBatches(const Workload& w, Stack& stack,
                  const std::vector<DisambiguationProblem>& problems,
                  size_t* cursor, bool traced) {
  auto slice = [&](size_t from, size_t count) {
    return std::vector<DisambiguationProblem>(problems.begin() + from,
                                              problems.begin() + from + count);
  };
  stack.service->DisambiguateAll(slice(*cursor, w.warmup_docs));
  *cursor += w.warmup_docs;
  if (traced) DropRequestRecords();

  // Batches are cut before the clock starts.
  std::vector<std::vector<DisambiguationProblem>> batches;
  for (size_t done = 0; done < w.round_docs; done += w.batch) {
    batches.push_back(
        slice(*cursor + done, std::min(w.batch, w.round_docs - done)));
  }

  Window window;
  const double cpu_begin = ProcessCpuSeconds();
  const Clock::time_point begin = Clock::now();
  Clock::time_point now = begin;
  for (const std::vector<DisambiguationProblem>& batch : batches) {
    const Clock::time_point t0 = now;
    std::vector<ServeResult> replies = stack.service->DisambiguateAll(batch);
    for (size_t i = 0; i < replies.size(); ++i) {
      Sample sample;
      sample.doc = *cursor + i;
      sample.latency_s = replies[i].total_seconds;
      sample.due_s = Seconds(t0 - begin);
      FillFromServe(std::move(replies[i]), &sample);
      window.samples.push_back(std::move(sample));
    }
    *cursor += batch.size();
    now = Clock::now();
  }
  window.cpu_s = ProcessCpuSeconds() - cpu_begin;
  window.elapsed_s = Seconds(now - begin);
  return window;
}

/// One closed-loop client: each request is timed from Submit to the reply.
/// With one request in flight, the process's CPU time over that interval
/// is the request's, task-engine threads included.
Window RunClient(const Workload& w, Stack& stack,
                 const std::vector<DisambiguationProblem>& problems,
                 size_t* cursor, bool traced) {
  aida::serve::NedService& service = *stack.service;
  for (size_t i = 0; i < w.warmup_docs; ++i) {
    service.Submit(problems[(*cursor)++]).get();
  }
  if (traced) DropRequestRecords();

  Window window;
  const double cpu_begin = ProcessCpuSeconds();
  const Clock::time_point begin = Clock::now();
  Clock::time_point now = begin;
  for (size_t i = 0; i < w.round_docs; ++i) {
    const size_t doc = (*cursor)++;
    const Clock::time_point t0 = now;
    const double cpu0 = ProcessCpuSeconds();
    std::future<ServeResult> reply;
    if (traced) {
      aida::util::ScopedAllocationCount counted;
      reply = service.Submit(problems[doc]);
      window.submit_allocs += counted.allocations();
    } else {
      reply = service.Submit(problems[doc]);
    }
    ServeResult r = reply.get();
    now = Clock::now();
    Sample sample;
    sample.doc = doc;
    sample.cpu_s = ProcessCpuSeconds() - cpu0;
    sample.latency_s = Seconds(now - t0);
    sample.due_s = Seconds(t0 - begin);
    RecordSpan(traced, Layer::kServeRequest, t0, now, doc);
    FillFromServe(std::move(r), &sample);
    window.samples.push_back(std::move(sample));
  }
  window.cpu_s = ProcessCpuSeconds() - cpu_begin;
  window.elapsed_s = Seconds(now - begin);
  window.submits = window.samples.size();
  return window;
}

// ---- Output check -----------------------------------------------------------

bool SameBytes(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0);
}

bool SameAnnotation(const DisambiguationResult& a,
                    const DisambiguationResult& b) {
  if (a.mentions.size() != b.mentions.size()) return false;
  for (size_t m = 0; m < a.mentions.size(); ++m) {
    const aida::core::MentionResult& x = a.mentions[m];
    const aida::core::MentionResult& y = b.mentions[m];
    if (x.entity != y.entity || x.chose_placeholder != y.chose_placeholder ||
        std::memcmp(&x.score, &y.score, sizeof(double)) != 0 ||
        x.candidate_entities != y.candidate_entities ||
        !SameBytes(x.candidate_scores, y.candidate_scores)) {
      return false;
    }
  }
  return true;
}

/// The reference's KORE measure: evaluates each ordered entity pair once
/// and replays the value on later calls. KORE is a pure function of the
/// ordered pair, so this returns exactly the bits that evaluating every
/// call would. (The program's cache keys a pair without its order, which is
/// what makes cached KORE differ; see README.md.) It only makes the output
/// check cheaper.
class OrderedPairMemo : public aida::core::RelatednessMeasure {
 public:
  std::string name() const override { return kore_.name(); }

  double Relatedness(const aida::core::Candidate& a,
                     const aida::core::Candidate& b) const override {
    if (a.is_placeholder || b.is_placeholder ||
        a.entity == aida::kb::kNoEntity || b.entity == aida::kb::kNoEntity) {
      return kore_.Relatedness(a, b);
    }
    const uint64_t key = (static_cast<uint64_t>(a.entity) << 32) | b.entity;
    Shard& shard = shards_[(key * 0x9E3779B97F4A7C15ULL) >> 58];
    {
      std::lock_guard<std::mutex> lock(shard.mutex);
      auto found = shard.values.find(key);
      if (found != shard.values.end()) return found->second;
    }
    const double value = kore_.Relatedness(a, b);
    std::lock_guard<std::mutex> lock(shard.mutex);
    shard.values.emplace(key, value);
    return value;
  }

 private:
  struct Shard {
    std::mutex mutex;
    std::unordered_map<uint64_t, double> values;
  };
  aida::kore::KoreRelatedness kore_;
  mutable std::array<Shard, 64> shards_;
};

/// The output check's reference: a serial Aida with uncached relatedness
/// (KORE through OrderedPairMemo) over a KB loaded from the same file as
/// the measured stacks. One serves a whole set of rounds.
class Reference {
 public:
  Reference(const Workload& w,
            std::shared_ptr<const aida::kb::KbSnapshot> snapshot)
      : snapshot_(std::move(snapshot)),
        models_(&snapshot_->knowledge_base()),
        measure_(MakeMeasure(w, snapshot_->knowledge_base())),
        aida_(&models_, measure_.get(), aida::core::AidaOptions()) {}

  DisambiguationResult Disambiguate(
      const DisambiguationProblem& problem) const {
    return aida_.Disambiguate(problem, {});
  }

 private:
  static std::unique_ptr<aida::core::RelatednessMeasure> MakeMeasure(
      const Workload& w, const aida::kb::KnowledgeBase& kb) {
    if (w.kore) return std::make_unique<OrderedPairMemo>();
    return std::make_unique<aida::core::MilneWittenRelatedness>(&kb);
  }

  std::shared_ptr<const aida::kb::KbSnapshot> snapshot_;
  const aida::core::CandidateModelStore models_;
  std::unique_ptr<aida::core::RelatednessMeasure> measure_;
  const aida::core::Aida aida_;
};

/// Re-runs every completed sample through the reference; returns, per
/// sample, whether it completed with an annotation byte-identical to the
/// reference's. The reference runs serial calls on nproc threads.
std::vector<uint8_t> MatchReference(const Workload& w,
                                    const Reference& reference,
                                    const std::vector<Sample>& samples,
                                    const Inputs& inputs) {
  std::vector<uint8_t> matched(samples.size(), 0);
  std::atomic<size_t> next{0};
  std::vector<std::thread> threads;
  for (size_t t = 0; t < Nproc(); ++t) {
    threads.emplace_back([&] {
      for (size_t i = next.fetch_add(1); i < samples.size();
           i = next.fetch_add(1)) {
        const Sample& s = samples[i];
        if (!s.ok) continue;
        DisambiguationResult expected;
        if (w.loop == Loop::kSerialText) {
          // Tokenize is deterministic: re-tokenizing gives the tokens the
          // timed run disambiguated.
          const std::vector<std::string> tokens = TokenTexts(
              aida::text::Tokenizer().Tokenize(inputs.text[s.doc]));
          DisambiguationProblem problem;
          problem.tokens = &tokens;
          problem.mentions = s.mentions;
          expected = reference.Disambiguate(problem);
        } else {
          expected = reference.Disambiguate(inputs.problems[s.doc]);
        }
        matched[i] = SameAnnotation(expected, s.result) ? 1 : 0;
      }
    });
  }
  for (std::thread& t : threads) t.join();
  return matched;
}

struct Accuracy {
  size_t gold = 0;
  size_t correct = 0;
};

/// Gold in-KB mentions linked correctly. For raw text a mention counts
/// only when a recognized span has exactly the gold character range.
Accuracy ScoreGold(const Workload& w, const std::vector<Sample>& samples,
                   const Inputs& inputs) {
  Accuracy acc;
  for (const Sample& s : samples) {
    const Gold& gold = inputs.gold[s.doc];
    std::map<std::pair<size_t, size_t>, size_t> span_index;
    if (w.loop == Loop::kSerialText) {
      for (size_t m = 0; m < s.mention_chars.size(); ++m) {
        span_index.emplace(s.mention_chars[m], m);
      }
    }
    for (size_t g = 0; g < gold.entity.size(); ++g) {
      if (gold.entity[g] == aida::kb::kNoEntity) continue;
      ++acc.gold;
      if (!s.ok) continue;
      size_t m = g;
      if (w.loop == Loop::kSerialText) {
        auto found = span_index.find(gold.chars[g]);
        if (found == span_index.end()) continue;
        m = found->second;
      }
      if (m < s.result.mentions.size() &&
          s.result.mentions[m].entity == gold.entity[g]) {
        ++acc.correct;
      }
    }
  }
  return acc;
}

// ---- Reporting --------------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

struct LatencySummary {
  size_t n = 0;
  double p50_ms = 0, p90_ms = 0, p99_ms = 0, max_ms = 0, supported = 0;
  /// The latency at the highest supported percentile.
  double supported_ms = 0;
};

LatencySummary Summarize(std::vector<double> seconds) {
  LatencySummary out;
  std::sort(seconds.begin(), seconds.end());
  out.n = seconds.size();
  out.p50_ms = 1e3 * Percentile(seconds, 0.50);
  out.p90_ms = 1e3 * Percentile(seconds, 0.90);
  out.p99_ms = 1e3 * Percentile(seconds, 0.99);
  out.max_ms = seconds.empty() ? 0.0 : 1e3 * seconds.back();
  out.supported = HighestSupportedPercentile(out.n);
  out.supported_ms = 1e3 * Percentile(seconds, out.supported / 100.0);
  return out;
}

void PrintLatency(const char* label, const LatencySummary& s) {
  std::printf(
      "  %-20s n=%zu  p50=%.3f  p90=%.3f  p99=%.3f  p%.2f=%.3f  max=%.3f ms"
      "  (p%.2f: highest percentile with >=10 samples beyond it)\n",
      label, s.n, s.p50_ms, s.p90_ms, s.p99_ms, s.supported, s.supported_ms,
      s.max_ms, s.supported);
}

/// Figures of one round's measured part; a run reports the median of each
/// over its rounds.
struct RoundFigures {
  // Wall clock.
  double docs_per_s = 0, latency_p50_ms = 0, latency_p90_ms = 0;
  // CPU time: the process's per document, and percentiles of the requests'.
  double cpu_ms_per_doc = 0, cpu_p50_ms = 0, cpu_p90_ms = 0;
};

RoundFigures Figures(const Window& round) {
  std::vector<double> latency, cpu;
  for (const Sample& s : round.samples) {
    if (!s.ok) continue;
    latency.push_back(s.latency_s);
    cpu.push_back(s.cpu_s);
  }
  std::sort(latency.begin(), latency.end());
  std::sort(cpu.begin(), cpu.end());
  RoundFigures f;
  const double ok = static_cast<double>(latency.size());
  f.docs_per_s = round.elapsed_s > 0 ? ok / round.elapsed_s : 0.0;
  f.latency_p50_ms = 1e3 * Percentile(latency, 0.50);
  f.latency_p90_ms = 1e3 * Percentile(latency, 0.90);
  f.cpu_ms_per_doc = ok > 0 ? 1e3 * round.cpu_s / ok : 0.0;
  f.cpu_p50_ms = 1e3 * Percentile(cpu, 0.50);
  f.cpu_p90_ms = 1e3 * Percentile(cpu, 0.90);
  return f;
}

/// The median over rounds of one figure.
double MedianOf(const std::vector<RoundFigures>& rounds,
                double RoundFigures::*figure) {
  std::vector<double> values;
  for (const RoundFigures& f : rounds) values.push_back(f.*figure);
  return Median(std::move(values));
}

/// Totals of the checked rounds of one set.
struct Checked {
  size_t attempted = 0;
  size_t ok = 0;          // completed OK
  size_t mismatches = 0;  // completed OK but not byte-identical
  size_t within_slo = 0;
  Accuracy accuracy;
  /// Wall-clock latency and CPU time of the requests completed OK.
  std::vector<double> latency_s, cpu_s;
};

/// Checks one round's outputs into `c`, then drops its annotations, so
/// that the process holds one round's annotations at a time and every
/// round starts from a heap of the same size.
void CheckRound(const Workload& w, const Reference& reference,
                const Inputs& inputs, Window* round, Checked* c) {
  const std::vector<uint8_t> matched =
      MatchReference(w, reference, round->samples, inputs);
  const Accuracy accuracy = ScoreGold(w, round->samples, inputs);
  c->accuracy.gold += accuracy.gold;
  c->accuracy.correct += accuracy.correct;
  for (size_t i = 0; i < round->samples.size(); ++i) {
    Sample& s = round->samples[i];
    ++c->attempted;
    if (s.ok) {
      ++c->ok;
      c->latency_s.push_back(s.latency_s);
      c->cpu_s.push_back(s.cpu_s);
      if (!matched[i]) {
        ++c->mismatches;
      } else if (s.latency_s * 1e3 <= w.slo_ms) {
        ++c->within_slo;
      }
    }
    s.ner_mentions = s.mentions.size();
    s.mentions = {};
    s.mention_chars = {};
    s.result.mentions = {};
  }
}

void PrintRounds(const char* label, const Workload& w, const Window& window,
                 const std::vector<RoundFigures>& rounds, const Checked& c) {
  std::printf("%s: %zu rounds of %zu documents (after %zu warm-up documents "
              "each), %zu attempted, %zu ok, %zu mismatched%s\n",
              label, rounds.size(), w.round_docs, w.warmup_docs, c.attempted,
              c.ok, c.mismatches,
              window.pool_exhausted ? " (document pool ran out)" : "");
  PrintLatency("wall latency", Summarize(c.latency_s));
  PrintLatency("cpu per request", Summarize(c.cpu_s));
  std::printf("  %-8s %10s %10s %10s %12s %10s %10s\n", "round", "docs/s",
              "p50_ms", "p90_ms", "cpu_ms/doc", "cpu_p50", "cpu_p90");
  auto row = [](const char* name, const RoundFigures& f) {
    std::printf("  %-8s %10.1f %10.3f %10.3f %12.4f %10.4f %10.4f\n", name,
                f.docs_per_s, f.latency_p50_ms, f.latency_p90_ms,
                f.cpu_ms_per_doc, f.cpu_p50_ms, f.cpu_p90_ms);
  };
  for (size_t r = 0; r < rounds.size(); ++r) {
    row(std::to_string(r + 1).c_str(), rounds[r]);
  }
  RoundFigures median;
  for (double RoundFigures::*figure :
       {&RoundFigures::docs_per_s, &RoundFigures::latency_p50_ms,
        &RoundFigures::latency_p90_ms, &RoundFigures::cpu_ms_per_doc,
        &RoundFigures::cpu_p50_ms, &RoundFigures::cpu_p90_ms}) {
    median.*figure = MedianOf(rounds, figure);
  }
  row("median", median);
}

std::string ResultJson(bool correct, size_t attempted, size_t failed,
                       const std::vector<Metric>& metrics) {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) out += ", ";
    out += "\"" + metrics[i].name + "\": {\"value\": " +
           Num(metrics[i].value) + ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  out += "}}";
  return out;
}

double Mean(double sum, size_t n) { return n == 0 ? 0.0 : sum / n; }

/// Per-layer metrics of the traced rounds. Their trace holds no records
/// of warm-up requests. The docs/s figures are medians over rounds.
std::vector<Metric> LayerMetrics(const Workload& w, const Window& window,
                                 const TraceData& trace, const Stack& stack,
                                 double traced_docs_per_s,
                                 double untraced_docs_per_s,
                                 const Checked& untraced) {
  auto in_window = [](uint64_t request) { return request != kNoRequest; };
  double tokenize_ns = 0, ner_ns = 0;
  size_t tokenize_n = 0, ner_n = 0;
  uint64_t tokenize_allocs = 0, ner_allocs = 0;
  for (const Span& span : trace.spans) {
    if (!in_window(span.request)) continue;
    if (span.layer == Layer::kTokenize) {
      tokenize_ns += span.end_ns - span.begin_ns;
      tokenize_allocs += span.allocs;
      ++tokenize_n;
    } else if (span.layer == Layer::kRecognize) {
      ner_ns += span.end_ns - span.begin_ns;
      ner_allocs += span.allocs;
      ++ner_n;
    }
  }
  size_t docs = 0, mentions = 0;
  double lookup_ns = 0, lookup_allocs = 0, aida_ns = 0, aida_allocs = 0;
  double local_s = 0, build_s = 0, solve_s = 0, rescore_s = 0, par_s = 0;
  double lookups = 0, misses = 0, hits = 0, iterations = 0, tasks = 0,
         steals = 0;
  std::vector<double> solve;
  for (const NedRecord& r : trace.ned) {
    if (!in_window(r.request)) continue;
    ++docs;
    mentions += r.mentions;
    lookup_ns += r.lookup_ns;
    lookup_allocs += r.lookup_allocs;
    aida_ns += r.aida_ns;
    aida_allocs += r.aida_allocs;
    const aida::core::DisambiguationStats& st = r.stats;
    local_s += st.local_seconds;
    build_s += st.graph_build_seconds;
    solve_s += st.graph_solve_seconds;
    rescore_s += st.total_seconds - st.local_seconds - st.graph_build_seconds -
                 st.graph_solve_seconds;
    par_s += st.local_parallel_seconds + st.graph_build_parallel_seconds +
             st.graph_solve_parallel_seconds;
    misses += st.relatedness_computations;
    hits += st.relatedness_cache_hits;
    lookups += st.relatedness_computations + st.relatedness_cache_hits;
    iterations += st.graph_iterations;
    tasks += st.parallel_tasks;
    steals += st.parallel_steals;
    solve.push_back(st.graph_solve_seconds);
  }
  std::sort(solve.begin(), solve.end());

  // Cache hit rate of the first requests served by each reloaded
  // generation (a fresh, cold cache) of each round.
  constexpr size_t kAfterReload = 50;
  std::map<std::pair<size_t, uint64_t>, size_t> seen;
  std::vector<const Sample*> by_due;
  for (const Sample& s : window.samples) by_due.push_back(&s);
  std::sort(by_due.begin(), by_due.end(), [](const Sample* a, const Sample* b) {
    return std::pair(a->round, a->due_s) < std::pair(b->round, b->due_s);
  });
  double after_hits = 0, after_lookups = 0;
  for (const Sample* s : by_due) {
    if (!s->ok || s->generation < 2 || w.reload_period_s == 0) continue;
    if (seen[{s->round, s->generation}]++ >= kAfterReload) continue;
    after_hits += s->result.stats.relatedness_cache_hits;
    after_lookups += s->result.stats.relatedness_cache_hits +
                     s->result.stats.relatedness_computations;
  }

  const bool served = w.loop != Loop::kSerialText;
  std::vector<double> queue, service, lag;
  size_t shed = 0, expired = 0;
  for (const Sample& s : window.samples) {
    if (s.code == aida::util::StatusCode::kResourceExhausted) ++shed;
    if (s.code == aida::util::StatusCode::kDeadlineExceeded) ++expired;
    if (w.loop == Loop::kOpenLoop) lag.push_back(s.lag_s);
    if (!s.ok || !served) continue;
    queue.push_back(s.queue_s);
    service.push_back(s.service_s);
  }
  const LatencySummary queue_l = Summarize(queue);
  const LatencySummary service_l = Summarize(service);
  const LatencySummary lag_l = Summarize(lag);
  const double us_per_miss =
      trace.relatedness_calls == 0
          ? 0.0
          : 1e-3 * trace.relatedness_ns / trace.relatedness_calls;
  size_t ner_mentions = 0;
  for (const Sample& s : window.samples) ner_mentions += s.ner_mentions;

  std::vector<Metric> m = {
      {"text.tokenize_us_per_doc", 1e-3 * Mean(tokenize_ns, tokenize_n), "us"},
      {"nlp.ner_us_per_doc", 1e-3 * Mean(ner_ns, ner_n), "us"},
      {"nlp.mentions_per_doc",
       w.loop == Loop::kSerialText
           ? Mean(ner_mentions, window.samples.size())
           : 0.0,
       "count"},
      {"core.candidates.lookup_us_per_mention",
       1e-3 * Mean(lookup_ns, mentions), "us"},
      {"core.candidates.allocs_per_mention", Mean(lookup_allocs, mentions),
       "count"},
      {"core.aida.ms_per_doc", 1e-6 * Mean(aida_ns, docs), "ms"},
      {"core.local.ms_per_doc", 1e3 * Mean(local_s, docs), "ms"},
      {"core.relatedness.lookups_per_doc", Mean(lookups, docs), "count"},
      {"core.relatedness.misses_per_doc", Mean(misses, docs), "count"},
      {"core.relatedness.us_per_miss", us_per_miss, "us"},
      {"core.relatedness_cache.hit_rate", Mean(hits, lookups), "frac"},
      {"core.relatedness_cache.hit_rate_after_reload",
       Mean(after_hits, after_lookups), "frac"},
      {"kore.us_per_miss", w.kore ? us_per_miss : 0.0, "us"},
      {"kore.misses_per_doc", w.kore ? Mean(misses, docs) : 0.0, "count"},
      {"core.graph_build.ms_per_doc", 1e3 * Mean(build_s, docs), "ms"},
      {"core.graph_solve.ms_per_doc", 1e3 * Mean(solve_s, docs), "ms"},
      {"core.graph_solve.p99_ms", 1e3 * Percentile(solve, 0.99), "ms"},
      {"core.graph_solve.iterations_per_doc", Mean(iterations, docs), "count"},
      {"core.rescore.ms_per_doc", 1e3 * Mean(rescore_s, docs), "ms"},
      {"task.tasks_per_doc", Mean(tasks, docs), "count"},
      {"task.steal_frac", Mean(steals, tasks), "frac"},
      {"task.parallel_ms_per_doc", 1e3 * Mean(par_s, docs), "ms"},
      {"serve.queue_wait_p50_ms", queue_l.p50_ms, "ms"},
      {"serve.queue_wait_p99_ms", queue_l.p99_ms, "ms"},
      {"serve.service_p50_ms", service_l.p50_ms, "ms"},
      {"serve.service_p99_ms", service_l.p99_ms, "ms"},
      {"serve.shed", static_cast<double>(shed), "count"},
      {"serve.expired", static_cast<double>(expired), "count"},
      {"kb.flat_load_ms", 1e3 * Median(stack.flat_load_s), "ms"},
      {"kb.snapshot_build_ms", 1e3 * Median(stack.snapshot_build_s), "ms"},
      {"kb.reload_ms",
       1e3 * Median(w.reload_period_s != 0 ? window.reload_s
                                           : stack.reload_s),
       "ms"},
      {"alloc.text.per_doc", Mean(tokenize_allocs, tokenize_n), "count"},
      {"alloc.nlp.per_doc", Mean(ner_allocs, ner_n), "count"},
      {"alloc.core.per_doc", Mean(aida_allocs, docs), "count"},
      {"alloc.serve.submit_per_doc", Mean(window.submit_allocs, window.submits),
       "count"},
      {"bench.generator_lag_p99_ms", lag_l.p99_ms, "ms"},
      {"bench.traced_docs_per_s", traced_docs_per_s, "1/s"},
      {"bench.untraced_docs_per_s", untraced_docs_per_s, "1/s"},
      {"bench.untraced_latency_p99_ms", Summarize(untraced.latency_s).p99_ms,
       "ms"},
      {"bench.tracing_overhead_frac",
       untraced_docs_per_s > 0 ? 1.0 - traced_docs_per_s / untraced_docs_per_s
                               : 0.0,
       "frac"},
  };
  if (w.loop == Loop::kOpenLoop) PrintLatency("generator lag", lag_l);
  if (served) {
    PrintLatency("serve queue wait", queue_l);
    PrintLatency("serve service time", service_l);
  }
  return m;
}

void WriteSpans(const std::string& path, const TraceData& trace) {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) return;
  for (const Span& s : trace.spans) {
    std::fprintf(out,
                 "{\"request\": %lld, \"span\": \"%s\", \"parent\": \"%s\", "
                 "\"begin_ns\": %lld, \"end_ns\": %lld, \"allocs\": %llu}\n",
                 s.request == kNoRequest ? -1LL
                                         : static_cast<long long>(s.request),
                 LayerName(s.layer), LayerName(s.parent),
                 static_cast<long long>(s.begin_ns),
                 static_cast<long long>(s.end_ns),
                 static_cast<unsigned long long>(s.allocs));
  }
  std::fclose(out);
}

struct Args {
  std::string mode;
  std::string workload;
  std::string dir;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
};

bool ParseArgs(int argc, char** argv, Args* args) {
  if (argc < 2) return false;
  args->mode = argv[1];
  for (int i = 2; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const char* value = argv[i + 1];
    if (key == "--workload") {
      args->workload = value;
    } else if (key == "--seed") {
      args->seed = std::strtoull(value, nullptr, 10);
    } else if (key == "--seconds") {
      args->seconds = std::strtod(value, nullptr);
    } else if (key == "--trace") {
      args->trace = std::string(value) == "1";
    } else if (key == "--dir") {
      args->dir = value;
    } else {
      return false;
    }
  }
  return (args->mode == "gen" || args->mode == "run") &&
         !args->workload.empty() && !args->dir.empty() && args->seconds > 0;
}

/// A set of rounds: traced or not, with its merged window and figures.
struct RoundSet {
  Stack stack;
  /// Every round's samples, annotations dropped by the check.
  Window window;
  std::vector<RoundFigures> rounds;
  Checked checked;
  TraceData trace;
  double peak_rss_mib = 0;
};

Window RunRound(const Workload& w, Stack& stack, const Inputs& inputs,
                const std::string& kb_path, uint64_t seed, size_t* cursor,
                bool traced) {
  switch (w.loop) {
    case Loop::kSerialText:
      return RunSerialText(w, stack, inputs.text, cursor, traced);
    case Loop::kOpenLoop:
      return RunOpenLoop(w, stack, inputs.problems, kb_path, seed, cursor,
                         traced);
    case Loop::kBatch:
      return RunBatches(w, stack, inputs.problems, cursor, traced);
    case Loop::kClient:
      return RunClient(w, stack, inputs.problems, cursor, traced);
  }
  return Window();
}

/// Times kSetups set-ups and the quiet reloads, then runs rounds, each on a
/// fresh stack and checked as soon as it ends, until the rounds (set-up,
/// warm-up and measured part; not the check) have taken `seconds`. Returns
/// false on a set-up or reload failure.
bool RunRounds(const Workload& w, const std::string& kb_path, uint64_t seed,
               bool traced, double seconds, const Inputs& inputs,
               std::vector<double>* request_cpu_s, size_t* cursor,
               RoundSet* set) {
  const aida::kb::SnapshotOptions options =
      MakeSnapshotOptions(w, traced, &inputs.requests, request_cpu_s);
  for (int rep = 0; rep < kSetups; ++rep) {
    if (!SetUp(w, kb_path, options, traced, true, &set->stack)) return false;
  }
  if (!TimeQuietReloads(w, kb_path, traced, &set->stack)) return false;
  const Reference reference(w, set->stack.registry->Current());

  double spent_s = 0;
  while (set->rounds.empty() || spent_s < seconds) {
    if (inputs.size() - *cursor < w.warmup_docs + w.round_docs) {
      set->window.pool_exhausted = true;
      break;
    }
    const Clock::time_point begin = Clock::now();
    if (!set->rounds.empty() &&
        !SetUp(w, kb_path, options, traced, false, &set->stack)) {
      return false;
    }
    Window round =
        RunRound(w, set->stack, inputs, kb_path, seed, cursor, traced);
    spent_s += Seconds(Clock::now() - begin);
    if (round.reload_failed) return false;
    if (set->rounds.empty()) set->peak_rss_mib = PeakRssMib();
    if (traced) TakeTrace(&set->trace);
    for (Sample& s : round.samples) {
      if (WorkersTimeRequests(w) && !traced) s.cpu_s = (*request_cpu_s)[s.doc];
      s.round = set->rounds.size();
    }
    set->rounds.push_back(Figures(round));
    CheckRound(w, reference, inputs, &round, &set->checked);
    Window& all = set->window;
    for (Sample& s : round.samples) all.samples.push_back(std::move(s));
    all.reload_s.insert(all.reload_s.end(), round.reload_s.begin(),
                        round.reload_s.end());
    all.submit_allocs += round.submit_allocs;
    all.submits += round.submits;
  }
  set->stack.service.reset();  // drains and joins every worker
  if (set->rounds.empty()) {
    std::fprintf(stderr, "run: the document pool holds no round\n");
    return false;
  }
  return true;
}

int Run(const Args& args) {
  const Workload& w = *FindWorkload(args.workload);
  const std::string kb_path = args.dir + "/kb.flat";
  auto loaded = aida::corpus::LoadCorpus(args.dir + "/docs.corpus");
  if (!loaded.ok()) {
    std::fprintf(stderr, "run: %s\n", loaded.status().ToString().c_str());
    return 1;
  }
  Inputs inputs;
  for (const aida::corpus::Document& doc : *loaded) {
    Gold gold;
    for (const aida::corpus::GoldMention& gm : doc.mentions) {
      gold.entity.push_back(gm.gold_entity);
    }
    if (w.loop == Loop::kSerialText) {
      inputs.text.push_back(ToRawText(doc, &gold));
    }
    inputs.gold.push_back(std::move(gold));
  }
  if (w.loop != Loop::kSerialText) {
    inputs.docs = std::move(*loaded);
    for (size_t i = 0; i < inputs.docs.size(); ++i) {
      inputs.problems.push_back(ToProblem(inputs.docs[i]));
      inputs.requests.emplace(&inputs.docs[i].tokens, i);
    }
  }
  loaded = aida::corpus::Corpus();
  std::vector<double> request_cpu_s(inputs.size(), 0.0);

  std::printf("# workload %s  seed %llu  seconds %g  trace %d  nproc %zu  "
              "compiler %s  build %s  documents %zu\n",
              w.name, static_cast<unsigned long long>(args.seed),
              args.seconds, args.trace ? 1 : 0, Nproc(),
              AIDA_PERFBENCH_COMPILER, AIDA_PERFBENCH_BUILD_TYPE,
              inputs.size());

  const std::pair<double, double> steal_begin = StealAndTotalTicks();
  size_t cursor = 0;
  RoundSet first;
  const double first_seconds = args.trace ? args.seconds / 2 : args.seconds;
  if (!RunRounds(w, kb_path, args.seed, args.trace, first_seconds, inputs,
                 &request_cpu_s, &cursor, &first)) {
    return 1;
  }
  const Checked& checked = first.checked;
  PrintRounds(args.trace ? "traced" : "timed", w, first.window, first.rounds,
              checked);

  const std::pair<double, double> steal_end = StealAndTotalTicks();
  const double ticks = steal_end.second - steal_begin.second;
  std::printf("  hypervisor steal: %.2f%% of the machine's CPU time during "
              "the rounds (not counted in CPU times)\n",
              ticks > 0 ? 100 * (steal_end.first - steal_begin.first) / ticks
                        : 0.0);

  size_t attempted = checked.attempted;
  size_t failed = checked.attempted - checked.ok + checked.mismatches;
  std::vector<Metric> metrics;
  if (!args.trace) {
    const double ok_frac =
        Mean(static_cast<double>(checked.ok - checked.mismatches),
             checked.attempted);
    metrics = {
        {"setup_s", Median(first.stack.setup_cpu_s), "s"},
        {"cpu_ms_per_doc", MedianOf(first.rounds, &RoundFigures::cpu_ms_per_doc),
         "ms"},
        {"cpu_p50_ms", MedianOf(first.rounds, &RoundFigures::cpu_p50_ms), "ms"},
        {"cpu_p90_ms", MedianOf(first.rounds, &RoundFigures::cpu_p90_ms), "ms"},
        {"ok_frac", ok_frac, "frac"},
        {"micro_accuracy",
         Mean(checked.accuracy.correct, checked.accuracy.gold), "frac"},
        {"peak_rss_mib", first.peak_rss_mib, "MiB"},
    };
    const Stack& stack = first.stack;
    std::printf("  set-up cpu ms:");
    for (double t : stack.setup_cpu_s) std::printf(" %.2f", 1e3 * t);
    std::printf("\n  set-up wall ms:");
    for (double t : stack.setup_s) std::printf(" %.2f", 1e3 * t);
    std::printf("\n  reload ms:");
    const std::vector<double>& reloads =
        w.reload_period_s != 0 ? first.window.reload_s : stack.reload_s;
    for (double t : reloads) std::printf(" %.2f", 1e3 * t);
    std::printf("\n");
    std::printf("  set-up median of %zu: %.4f s cpu, %.4f s wall   reload "
                "median of %zu: %.3f ms   error_frac %.6f   slo_miss_frac "
                "(wall limit %.0f ms) %.6f\n",
                stack.setup_cpu_s.size(), Median(stack.setup_cpu_s),
                Median(stack.setup_s), reloads.size(), 1e3 * Median(reloads),
                1.0 - ok_frac, w.slo_ms,
                1.0 - Mean(checked.within_slo, checked.attempted));
  } else {
    WriteSpans(args.dir + "/spans.jsonl", first.trace);
    RoundSet plain;
    if (!RunRounds(w, kb_path, args.seed + 1, false, args.seconds / 2, inputs,
                   &request_cpu_s, &cursor, &plain)) {
      return 1;
    }
    const Checked& plain_checked = plain.checked;
    PrintRounds("untraced", w, plain.window, plain.rounds, plain_checked);
    attempted += plain_checked.attempted;
    failed += plain_checked.attempted - plain_checked.ok +
              plain_checked.mismatches;
    metrics = LayerMetrics(w, first.window, first.trace, first.stack,
                           MedianOf(first.rounds, &RoundFigures::docs_per_s),
                           MedianOf(plain.rounds, &RoundFigures::docs_per_s),
                           plain_checked);
  }
  for (const Metric& m : metrics) {
    std::printf("  %-44s %14.6f %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
  }
  const bool correct = failed == 0;
  std::printf("%s\n", ResultJson(correct, attempted, failed, metrics).c_str());
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Args args;
  if (!perfbench::ParseArgs(argc, argv, &args) ||
      perfbench::FindWorkload(args.workload) == nullptr) {
    std::fprintf(stderr,
                 "usage: aida_perfbench gen|run --workload NAME --seed N "
                 "--seconds S [--trace 0|1] --dir DIR\n");
    return 2;
  }
  const perfbench::Workload& w = *perfbench::FindWorkload(args.workload);
  if (args.mode == "gen") {
    return perfbench::Generate(w, args.seed, args.seconds, args.dir);
  }
  return perfbench::Run(args);
}
