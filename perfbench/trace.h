// Tracing for the benchmark's traced run (--trace 1). Every span and
// counter here is recorded from the benchmark's own code, around calls into
// the program's public functions; nothing under src/ is instrumented.
//
//  * Span: one call at a layer boundary (tokenize, recognize, candidate
//    lookup, Disambiguate, a served request, KB load/build/reload), with
//    the request it belongs to and the span that caused it.
//  * NedRecord: one Disambiguate call seen by TracingSystem, carrying the
//    DisambiguationStats the call returned (the local / graph build /
//    graph solve split is taken from there, not re-timed).
//  * TimingRelatedness: a RelatednessMeasure decorator injected through
//    SnapshotOptions::relatedness_factory. It sits below the snapshot's
//    relatedness cache, so every call it sees is a cache miss.
//
// Records go to per-thread buffers (no lock on the hot path) that live
// until the process exits, and are read only after every traced thread
// has been joined.

#ifndef AIDA_PERFBENCH_TRACE_H_
#define AIDA_PERFBENCH_TRACE_H_

#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "core/aida.h"
#include "core/candidates.h"
#include "core/ned_system.h"
#include "core/relatedness.h"
#include "util/alloc_probe.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

enum class Layer : uint8_t {
  kNone,
  kAnnotate,       // one raw-text document, tokenize through Disambiguate
  kTokenize,       // text::Tokenizer::Tokenize
  kRecognize,      // nlp::NerTagger::Recognize
  kServeRequest,   // serve::NedService::Submit until the reply
  kNed,            // NedSystem::Disambiguate as the caller sees it
  kCandidates,     // core::LookupCandidates, all mentions of one call
  kAida,           // core::Aida::Disambiguate on resolved candidates
  kFlatLoad,       // kb::flat::LoadFlatSnapshot
  kSnapshotBuild,  // kb::SnapshotRegistry::Publish (KbSnapshot::Create)
  kServiceStart,   // serve::NedService construction (workers started)
  kReload,         // kb::SnapshotRegistry::ReloadFromFile
};

const char* LayerName(Layer layer);

/// Request id of spans that belong to no request (set-up, reloads).
inline constexpr uint64_t kNoRequest = ~uint64_t{0};

struct Span {
  uint64_t request = 0;
  Layer layer = Layer::kNone;
  Layer parent = Layer::kNone;
  int64_t begin_ns = 0;
  int64_t end_ns = 0;
  /// Heap allocations made by the calling thread inside the span.
  uint64_t allocs = 0;
};

struct NedRecord {
  uint64_t request = 0;
  size_t mentions = 0;
  int64_t lookup_ns = 0;
  uint64_t lookup_allocs = 0;
  int64_t aida_ns = 0;
  uint64_t aida_allocs = 0;
  aida::core::DisambiguationStats stats;
};

struct ThreadTrace {
  std::vector<Span> spans;
  std::vector<NedRecord> ned;
  uint64_t relatedness_calls = 0;
  int64_t relatedness_ns = 0;
};

/// Everything the traced threads recorded, merged.
using TraceData = ThreadTrace;

/// The calling thread's buffer (created and registered on first use).
ThreadTrace& ThisThreadTrace();

/// Appends all thread buffers to `into` and clears them. Call only while no
/// traced thread is running.
void TakeTrace(TraceData* into);

/// Drops what the requests recorded so far (warm-up) and keeps the spans
/// of no request. Call only while no traced thread is running.
void DropRequestRecords();

/// Request id for spans recorded on the calling thread when the request
/// cannot be looked up by its token vector (the serial annotate loop).
void SetThreadRequest(uint64_t request);

/// Maps a problem's token vector to its request id, for spans recorded on
/// service worker threads. Filled before the timed window and read-only
/// during it.
using RequestIndex = std::unordered_map<const void*, uint64_t>;

/// Times a closure as one span of the calling thread, with the
/// allocations it made.
template <typename Fn>
auto TimeSpan(uint64_t request, Layer layer, Layer parent, Fn&& fn) {
  aida::util::ScopedAllocationCount allocs;
  Span span{request, layer, parent, NowNs(), 0, 0};
  auto result = fn();
  span.end_ns = NowNs();
  span.allocs = allocs.allocations();
  ThisThreadTrace().spans.push_back(span);
  return result;
}

/// Relatedness decorator that times every call into the wrapped measure.
class TimingRelatedness : public aida::core::RelatednessMeasure {
 public:
  explicit TimingRelatedness(
      std::unique_ptr<aida::core::RelatednessMeasure> base)
      : base_(std::move(base)) {}

  std::string name() const override { return base_->name(); }
  double Relatedness(const aida::core::Candidate& a,
                     const aida::core::Candidate& b) const override;
  bool has_pair_filter() const override { return base_->has_pair_filter(); }
  std::vector<std::pair<uint32_t, uint32_t>> FilterPairs(
      const std::vector<const aida::core::Candidate*>& candidates)
      const override {
    return base_->FilterPairs(candidates);
  }

 private:
  std::unique_ptr<aida::core::RelatednessMeasure> base_;
};

/// NedSystem decorator installed through SnapshotOptions::system_factory.
/// It resolves each mention's candidates with core::LookupCandidates
/// (timed, as the core.candidates layer), then runs core::Aida on the
/// resolved problem (timed as one span) and records the stats it returns.
/// Aida scores pre-resolved candidates exactly as the ones it looks up
/// itself, so outputs are unchanged; the output check confirms it.
class TracingSystem : public aida::core::NedSystem {
 public:
  TracingSystem(const aida::core::CandidateModelStore* models,
                const aida::core::RelatednessMeasure* relatedness,
                const RequestIndex* requests, Layer caller)
      : models_(models),
        aida_(models, relatedness, aida::core::AidaOptions()),
        requests_(requests),
        caller_(caller) {}

  aida::core::DisambiguationResult Disambiguate(
      const aida::core::DisambiguationProblem& problem,
      const aida::core::DisambiguateOptions& options) const override;

  std::string name() const override { return "traced:" + aida_.name(); }

 private:
  const aida::core::CandidateModelStore* models_;
  aida::core::Aida aida_;
  const RequestIndex* requests_;
  /// The layer whose span encloses each call (annotate or serve.request).
  Layer caller_;
};

}  // namespace perfbench

#endif  // AIDA_PERFBENCH_TRACE_H_
