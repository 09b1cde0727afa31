#ifndef AIDA_CORE_RELATEDNESS_CACHE_H_
#define AIDA_CORE_RELATEDNESS_CACHE_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/relatedness.h"
#include "util/cacheline.h"
#include "util/function_effects.h"
#include "util/lock_ranks.h"
#include "util/mutex.h"
#include "util/thread_annotations.h"

namespace aida::core {

/// Counter snapshot of a RelatednessCache. All counters are cumulative
/// since construction (or the last Clear()).
struct RelatednessCacheStats {
  uint64_t hits = 0;
  uint64_t misses = 0;
  uint64_t inserts = 0;
  uint64_t evictions = 0;
  /// Live entries at snapshot time (shared shards only; the per-thread L1
  /// fronts hold duplicates of shard entries, never unique values).
  uint64_t entries = 0;

  double HitRate() const {
    const uint64_t lookups = hits + misses;
    return lookups == 0 ? 0.0 : static_cast<double>(hits) /
                                    static_cast<double>(lookups);
  }
};

struct RelatednessCacheOptions {
  /// Upper bound on cached pairs across all shards. Rounded so each shard
  /// holds a power-of-two slot count; a long batch can never grow the
  /// cache beyond this footprint (~16 bytes per slot).
  size_t capacity = size_t{1} << 20;
  /// Mutex stripes; rounded up to a power of two. 0 (the default) sizes
  /// the shard count to the machine — max(64, 4x hardware concurrency) —
  /// so adding workers keeps the expected load per shard lock constant
  /// instead of letting hot shards serialize a bigger pool.
  size_t num_shards = 0;
};

/// Sharded, bounded, thread-safe memoization table for symmetric
/// entity-pair relatedness values — the cost driver of joint
/// disambiguation (Table 4.4). Keys are the unordered pair
/// (min(a,b), max(a,b)) of in-KB entity ids, so the symmetry contract of
/// RelatednessMeasure::Relatedness is baked into the key. Each shard is an
/// open-addressing table with a bounded linear-probe window; when the
/// window is full, the least-recently-touched entry in the window is
/// evicted (LRU-ish, O(window) and allocation-free), so a corpus-scale
/// batch cannot grow the cache without limit.
///
/// Contention design (the serving-layer scaling fix):
///  * each Shard is aligned to the destructive-interference size, so two
///    shards' mutexes and tick counters never share a cache line;
///  * the shard count scales with the machine's core count by default;
///  * hit/miss/insert statistics stripe over cache-line-aligned counter
///    blocks by thread (the old single hits_/misses_ atomics were a
///    per-evaluation all-core rendezvous);
///  * a small direct-mapped per-thread L1 (~8 KB per serving thread)
///    serves hot pairs with a few loads and no lock, so workers on skewed
///    workloads do not convoy on the hot pair's shard mutex.
class RelatednessCache {
 public:
  explicit RelatednessCache(RelatednessCacheOptions options = {});
  ~RelatednessCache();

  /// Returns true and sets `*value` when the pair is cached; refreshes the
  /// entry's recency stamp. Counts one hit or one miss.
  /// AIDA_NONBLOCKING: the L1 path is lock-free and allocation-free; the
  /// shard probe's O(kProbeWindow) critical section is the audited escape.
  bool Lookup(kb::EntityId a, kb::EntityId b,
              double* value) const AIDA_NONBLOCKING;

  /// Inserts (or refreshes) the pair, evicting the stalest entry of a full
  /// probe window. Concurrent inserts of the same pair are benign: the
  /// measure is deterministic, so both threads write the same value.
  /// AIDA_NONBLOCKING under the same audited-escape policy as Lookup —
  /// eviction reuses slots in place, so Insert never allocates.
  void Insert(kb::EntityId a, kb::EntityId b, double value) AIDA_NONBLOCKING;

  /// Cumulative counters plus the current live-entry count.
  RelatednessCacheStats Snapshot() const;

  /// Drops all entries and zeroes the counters. Entries held in
  /// per-thread L1 fronts are invalidated lazily on each thread's next
  /// lookup.
  void Clear();

  /// Total slot budget across shards (>= the requested capacity).
  size_t capacity() const { return shards_.size() * slots_per_shard_; }

  /// Shard count after rounding/auto-sizing (test & introspection hook).
  size_t num_shards() const { return shards_.size(); }

 private:
  struct Slot {
    uint64_t key;
    double value;
    uint64_t stamp;  // shard tick at last touch; smallest == stalest
  };
  /// Aligned so that one worker hammering shard i never invalidates the
  /// line holding shard j's mutex state for a worker on another core.
  struct alignas(util::kCacheLineSize) Shard {
    mutable util::Mutex mutex{util::lock_rank::kRelatednessShard};
    mutable std::vector<Slot> slots AIDA_GUARDED_BY(mutex);
    mutable uint64_t tick AIDA_GUARDED_BY(mutex) = 0;
    mutable size_t live AIDA_GUARDED_BY(mutex) = 0;
  };
  /// Statistics stripe: each thread hashes to one block, so counter
  /// updates stay core-local instead of serializing on two global
  /// atomics. Snapshot() sums the stripes.
  struct alignas(util::kCacheLineSize) StatStripe {
    std::atomic<uint64_t> hits{0};
    std::atomic<uint64_t> misses{0};
    std::atomic<uint64_t> inserts{0};
    std::atomic<uint64_t> evictions{0};
  };
  static constexpr size_t kStatStripes = 8;

  const Shard& ShardFor(uint64_t key) const;
  StatStripe& StripeForThisThread() const AIDA_NONBLOCKING;

  size_t slots_per_shard_ = 0;
  /// Process-unique id + clear generation: together they tag per-thread
  /// L1 blocks so a block never serves entries from a destroyed or
  /// cleared cache (ids are never reused, unlike addresses).
  uint64_t instance_id_ = 0;
  std::atomic<uint64_t> clear_epoch_{0};
  std::vector<Shard> shards_;
  mutable std::array<StatStripe, kStatStripes> stripes_;
};

/// Decorator that serves RelatednessMeasure values through a shared
/// RelatednessCache. Only pairs of in-KB, non-placeholder candidates are
/// cached: a placeholder's model is document-private, while an in-KB
/// entity id determines its candidate model for the lifetime of the
/// CandidateModelStore, which makes the entity-id pair a sound cache key.
/// Callers that substitute per-document models for in-KB entities must
/// not share one cache across those documents.
///
/// FilterPairs semantics are preserved: has_pair_filter() and
/// FilterPairs() delegate to the wrapped measure, so the LSH variants
/// prune exactly as before and the cache only memoizes the surviving
/// pairs. The decorator's own comparisons() counter counts only real
/// evaluations of the wrapped measure (misses), mirroring the base
/// counter's meaning.
class CachedRelatednessMeasure : public RelatednessMeasure {
 public:
  /// Neither pointer is owned; both must outlive the decorator.
  CachedRelatednessMeasure(const RelatednessMeasure* base,
                           RelatednessCache* cache);

  std::string name() const override;
  double Relatedness(const Candidate& a, const Candidate& b) const override;
  double RelatednessTracked(const Candidate& a, const Candidate& b,
                            bool* cache_hit) const override;
  bool has_pair_filter() const override { return base_->has_pair_filter(); }
  std::vector<std::pair<uint32_t, uint32_t>> FilterPairs(
      const std::vector<const Candidate*>& candidates) const override {
    return base_->FilterPairs(candidates);
  }

  const RelatednessMeasure& base() const { return *base_; }
  const RelatednessCache& cache() const { return *cache_; }

 private:
  const RelatednessMeasure* base_;
  RelatednessCache* cache_;
};

}  // namespace aida::core

#endif  // AIDA_CORE_RELATEDNESS_CACHE_H_
