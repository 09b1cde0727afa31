#include "trace.h"

namespace perfbench {
namespace {

std::mutex registry_mutex;
// Owned here so a buffer outlives the thread that filled it (service
// workers are joined before the trace is read).
std::vector<std::unique_ptr<ThreadTrace>>& Buffers() {
  static std::vector<std::unique_ptr<ThreadTrace>> buffers;
  return buffers;
}

thread_local ThreadTrace* tls_trace = nullptr;
thread_local uint64_t tls_request = 0;

}  // namespace

const char* LayerName(Layer layer) {
  switch (layer) {
    case Layer::kNone: return "none";
    case Layer::kAnnotate: return "annotate";
    case Layer::kTokenize: return "text.tokenize";
    case Layer::kRecognize: return "nlp.recognize";
    case Layer::kServeRequest: return "serve.request";
    case Layer::kNed: return "ned.disambiguate";
    case Layer::kCandidates: return "core.candidates";
    case Layer::kAida: return "core.aida";
    case Layer::kFlatLoad: return "kb.flat_load";
    case Layer::kSnapshotBuild: return "kb.snapshot_build";
    case Layer::kServiceStart: return "serve.start";
    case Layer::kReload: return "kb.reload";
  }
  return "?";
}

ThreadTrace& ThisThreadTrace() {
  if (tls_trace == nullptr) {
    auto buffer = std::make_unique<ThreadTrace>();
    tls_trace = buffer.get();
    std::lock_guard<std::mutex> lock(registry_mutex);
    Buffers().push_back(std::move(buffer));
  }
  return *tls_trace;
}

void TakeTrace(TraceData* into) {
  std::lock_guard<std::mutex> lock(registry_mutex);
  for (const std::unique_ptr<ThreadTrace>& buffer : Buffers()) {
    into->spans.insert(into->spans.end(), buffer->spans.begin(),
                       buffer->spans.end());
    into->ned.insert(into->ned.end(), buffer->ned.begin(), buffer->ned.end());
    into->relatedness_calls += buffer->relatedness_calls;
    into->relatedness_ns += buffer->relatedness_ns;
    *buffer = ThreadTrace();
  }
}

void DropRequestRecords() {
  std::lock_guard<std::mutex> lock(registry_mutex);
  for (const std::unique_ptr<ThreadTrace>& buffer : Buffers()) {
    std::erase_if(buffer->spans, [](const Span& span) {
      return span.request != kNoRequest;
    });
    buffer->ned.clear();
    buffer->relatedness_calls = 0;
    buffer->relatedness_ns = 0;
  }
}

void SetThreadRequest(uint64_t request) { tls_request = request; }

double TimingRelatedness::Relatedness(const aida::core::Candidate& a,
                                      const aida::core::Candidate& b) const {
  const int64_t begin = NowNs();
  const double value = base_->Relatedness(a, b);
  ThreadTrace& trace = ThisThreadTrace();
  trace.relatedness_ns += NowNs() - begin;
  trace.relatedness_calls += 1;
  return value;
}

aida::core::DisambiguationResult TracingSystem::Disambiguate(
    const aida::core::DisambiguationProblem& problem,
    const aida::core::DisambiguateOptions& options) const {
  const int64_t begin = NowNs();
  NedRecord record;
  const auto found = requests_ != nullptr ? requests_->find(problem.tokens)
                                          : RequestIndex::const_iterator();
  record.request = requests_ != nullptr && found != requests_->end()
                       ? found->second
                       : tls_request;
  record.mentions = problem.mentions.size();

  aida::core::DisambiguationProblem resolved = problem;
  const int64_t lookup_begin = NowNs();
  {
    aida::util::ScopedAllocationCount allocs;
    for (aida::core::ProblemMention& mention : resolved.mentions) {
      if (mention.candidates_resolved) continue;
      mention.candidates = aida::core::LookupCandidates(*models_,
                                                        mention.surface);
      mention.candidates_resolved = true;
    }
    record.lookup_allocs = allocs.allocations();
  }
  const int64_t lookup_end = NowNs();
  record.lookup_ns = lookup_end - lookup_begin;

  aida::util::ScopedAllocationCount allocs;
  const int64_t aida_begin = NowNs();
  aida::core::DisambiguationResult result =
      aida_.Disambiguate(resolved, options);
  const int64_t end = NowNs();
  record.aida_ns = end - aida_begin;
  record.aida_allocs = allocs.allocations();
  record.stats = result.stats;

  ThreadTrace& trace = ThisThreadTrace();
  trace.spans.push_back({record.request, Layer::kCandidates, Layer::kNed,
                         lookup_begin, lookup_end,
                         record.lookup_allocs});
  trace.spans.push_back({record.request, Layer::kAida, Layer::kNed,
                         aida_begin, end, record.aida_allocs});
  trace.spans.push_back({record.request, Layer::kNed, caller_, begin,
                         NowNs(), 0});
  trace.ned.push_back(record);
  return result;
}

}  // namespace perfbench
