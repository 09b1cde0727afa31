#include "core/relatedness_cache.h"

#include <algorithm>
#include <functional>
#include <limits>
#include <thread>

#include "util/status.h"

namespace aida::core {

namespace {

// Slots linearly probed (with wrap-around) from a key's home slot before
// an eviction is forced. Bounds both probe cost and eviction scan cost.
constexpr size_t kProbeWindow = 8;

// Sentinel for an empty slot. Unreachable as a real key: it would require
// both entity ids to be kNoEntity, which the decorator never caches.
constexpr uint64_t kEmptyKey = std::numeric_limits<uint64_t>::max();

uint64_t PairKey(kb::EntityId a, kb::EntityId b) {
  const uint64_t lo = std::min(a, b);
  const uint64_t hi = std::max(a, b);
  return (lo << 32) | hi;
}

// splitmix64 finalizer: spreads the structured pair key over all 64 bits
// so shard selection (low bits), home slot (high bits) and the L1 index
// decorrelate.
uint64_t MixKey(uint64_t key) {
  key += 0x9e3779b97f4a7c15ull;
  key = (key ^ (key >> 30)) * 0xbf58476d1ce4e5b9ull;
  key = (key ^ (key >> 27)) * 0x94d049bb133111ebull;
  return key ^ (key >> 31);
}

size_t RoundUpPowerOfTwo(size_t value) {
  size_t result = 1;
  while (result < value) result <<= 1;
  return result;
}

// ---- Per-thread L1 front ----------------------------------------------
//
// One direct-mapped block per thread (~8 KB), shared across cache
// instances over the thread's lifetime and re-tagged whenever the thread
// switches caches or the owning cache is cleared. The tag is the cache's
// process-unique instance id plus its clear epoch: ids are never reused
// (unlike addresses), so a block can never leak values from a destroyed
// cache into a new one that happens to live at the same address.
//
// Correctness does not depend on eviction coherence with the shards: a
// cached value is a pure function of the entity-id pair for the cache's
// lifetime, so an L1 entry that outlives its shard copy still serves the
// right value. Clear() advances the epoch; each thread notices on its
// next access and resets its block lazily.

constexpr size_t kL1Slots = 512;  // 512 * 16 B = 8 KB per thread

struct L1Entry {
  uint64_t key;
  double value;
};

struct L1Block {
  uint64_t owner = 0;  // RelatednessCache instance id, 0 = untagged
  uint64_t epoch = 0;  // owner's clear epoch at the last reset
  L1Entry entries[kL1Slots];
};

L1Block& ThisThreadL1() AIDA_NONBLOCKING {
  AIDA_EFFECT_ESCAPE_BEGIN(
      "thread_local init guard: pays once per thread lifetime; every "
      "later access is a plain TLS load")
  static thread_local L1Block block;
  AIDA_EFFECT_ESCAPE_END
  return block;
}

// Ensures `block` is tagged for (owner, epoch), resetting it when the
// thread last used a different cache or a pre-Clear() view of this one.
// Returns true when the existing contents are valid.
bool RetagL1(L1Block& block, uint64_t owner, uint64_t epoch) {
  if (block.owner == owner && block.epoch == epoch) return true;
  block.owner = owner;
  block.epoch = epoch;
  for (L1Entry& entry : block.entries) entry.key = kEmptyKey;
  return false;
}

std::atomic<uint64_t> next_instance_id{1};

}  // namespace

RelatednessCache::RelatednessCache(RelatednessCacheOptions options)
    : instance_id_(next_instance_id.fetch_add(1, std::memory_order_relaxed)) {
  size_t requested_shards = options.num_shards;
  if (requested_shards == 0) {
    // Auto-size to the machine: enough stripes that even a pool of one
    // worker per core keeps the expected lock collision rate low.
    const size_t cores = std::max(1u, std::thread::hardware_concurrency());
    requested_shards = std::max<size_t>(64, 4 * cores);
  }
  const size_t num_shards = RoundUpPowerOfTwo(requested_shards);
  slots_per_shard_ = RoundUpPowerOfTwo(std::max(
      kProbeWindow, (std::max<size_t>(1, options.capacity) + num_shards - 1) /
                        num_shards));
  shards_ = std::vector<Shard>(num_shards);
  for (Shard& shard : shards_) {
    shard.slots.assign(slots_per_shard_, Slot{kEmptyKey, 0.0, 0});
  }
}

RelatednessCache::~RelatednessCache() = default;

const RelatednessCache::Shard& RelatednessCache::ShardFor(uint64_t key) const {
  return shards_[MixKey(key) & (shards_.size() - 1)];
}

RelatednessCache::StatStripe& RelatednessCache::StripeForThisThread() const
    AIDA_NONBLOCKING {
  // Hash the thread id once per thread; all of a thread's counter bumps
  // then land on one cache-line-aligned block.
  AIDA_EFFECT_ESCAPE_BEGIN(
      "thread_local init guard + one-time thread-id hash: pays once per "
      "thread lifetime; every later access is a plain TLS load")
  static thread_local const size_t stripe =
      std::hash<std::thread::id>()(std::this_thread::get_id());
  AIDA_EFFECT_ESCAPE_END
  return stripes_[stripe & (kStatStripes - 1)];
}

bool RelatednessCache::Lookup(kb::EntityId a, kb::EntityId b,
                              double* value) const AIDA_NONBLOCKING {
  AIDA_DCHECK(value != nullptr);
  const uint64_t key = PairKey(a, b);
  const uint64_t hash = MixKey(key);
  StatStripe& stripe = StripeForThisThread();

  L1Block& l1 = ThisThreadL1();
  if (RetagL1(l1, instance_id_,
              clear_epoch_.load(std::memory_order_acquire))) {
    const L1Entry& entry = l1.entries[hash & (kL1Slots - 1)];
    if (entry.key == key) {
      *value = entry.value;
      stripe.hits.fetch_add(1, std::memory_order_relaxed);
      return true;
    }
  }

  const Shard& shard = ShardFor(key);
  const size_t mask = slots_per_shard_ - 1;
  const size_t home = (hash >> 32) & mask;
  AIDA_EFFECT_ESCAPE_BEGIN(
      "shard mutex: bounded O(kProbeWindow) critical section over "
      "preallocated slots, no allocation, no nested wait; contention is "
      "diluted over >= max(64, 4x cores) shards")
  {
    util::MutexLock lock(&shard.mutex);
    for (size_t p = 0; p < kProbeWindow; ++p) {
      Slot& slot = shard.slots[(home + p) & mask];
      if (slot.key == key) {
        slot.stamp = ++shard.tick;
        *value = slot.value;
        stripe.hits.fetch_add(1, std::memory_order_relaxed);
        l1.entries[hash & (kL1Slots - 1)] = L1Entry{key, slot.value};
        return true;
      }
    }
  }
  AIDA_EFFECT_ESCAPE_END
  stripe.misses.fetch_add(1, std::memory_order_relaxed);
  return false;
}

void RelatednessCache::Insert(kb::EntityId a, kb::EntityId b,
                              double value) AIDA_NONBLOCKING {
  const uint64_t key = PairKey(a, b);
  const uint64_t hash = MixKey(key);
  const Shard& shard = ShardFor(key);
  const size_t mask = slots_per_shard_ - 1;
  const size_t home = (hash >> 32) & mask;
  bool evicted = false;
  bool fresh = false;
  AIDA_EFFECT_ESCAPE_BEGIN(
      "shard mutex: bounded O(kProbeWindow) probe + in-place eviction "
      "over preallocated slots — Insert never allocates")
  {
    util::MutexLock lock(&shard.mutex);
    Slot* target = nullptr;
    Slot* stalest = nullptr;
    for (size_t p = 0; p < kProbeWindow; ++p) {
      Slot& slot = shard.slots[(home + p) & mask];
      if (slot.key == key) {  // concurrent insert of the same pair
        target = &slot;
        break;
      }
      if (slot.key == kEmptyKey) {
        if (target == nullptr) {
          target = &slot;
          fresh = true;
        }
        continue;
      }
      if (stalest == nullptr || slot.stamp < stalest->stamp) stalest = &slot;
    }
    if (target == nullptr) {
      target = stalest;  // full window: evict the least-recently-touched
      evicted = true;
    }
    if (fresh) ++shard.live;
    target->key = key;
    target->value = value;
    target->stamp = ++shard.tick;
  }
  AIDA_EFFECT_ESCAPE_END
  StatStripe& stripe = StripeForThisThread();
  stripe.inserts.fetch_add(1, std::memory_order_relaxed);
  if (evicted) stripe.evictions.fetch_add(1, std::memory_order_relaxed);
  // Inserts follow a same-thread Lookup miss, so the block is usually
  // tagged already; retag defensively for direct Insert callers.
  L1Block& l1 = ThisThreadL1();
  RetagL1(l1, instance_id_, clear_epoch_.load(std::memory_order_acquire));
  l1.entries[hash & (kL1Slots - 1)] = L1Entry{key, value};
}

RelatednessCacheStats RelatednessCache::Snapshot() const {
  RelatednessCacheStats stats;
  for (const StatStripe& stripe : stripes_) {
    stats.hits += stripe.hits.load(std::memory_order_relaxed);
    stats.misses += stripe.misses.load(std::memory_order_relaxed);
    stats.inserts += stripe.inserts.load(std::memory_order_relaxed);
    stats.evictions += stripe.evictions.load(std::memory_order_relaxed);
  }
  for (const Shard& shard : shards_) {
    util::MutexLock lock(&shard.mutex);
    stats.entries += shard.live;
  }
  return stats;
}

void RelatednessCache::Clear() {
  // Bump the epoch FIRST: a thread that still sees pre-Clear L1 contents
  // after this line can only serve values the measure would recompute
  // identically, and its next access observes the new epoch and resets.
  clear_epoch_.fetch_add(1, std::memory_order_acq_rel);
  for (Shard& shard : shards_) {
    util::MutexLock lock(&shard.mutex);
    shard.slots.assign(slots_per_shard_, Slot{kEmptyKey, 0.0, 0});
    shard.tick = 0;
    shard.live = 0;
  }
  for (StatStripe& stripe : stripes_) {
    stripe.hits.store(0, std::memory_order_relaxed);
    stripe.misses.store(0, std::memory_order_relaxed);
    stripe.inserts.store(0, std::memory_order_relaxed);
    stripe.evictions.store(0, std::memory_order_relaxed);
  }
}

CachedRelatednessMeasure::CachedRelatednessMeasure(
    const RelatednessMeasure* base, RelatednessCache* cache)
    : base_(base), cache_(cache) {
  AIDA_CHECK(base_ != nullptr && cache_ != nullptr);
}

std::string CachedRelatednessMeasure::name() const {
  return base_->name() + "+cache";
}

double CachedRelatednessMeasure::Relatedness(const Candidate& a,
                                             const Candidate& b) const {
  return RelatednessTracked(a, b, nullptr);
}

double CachedRelatednessMeasure::RelatednessTracked(const Candidate& a,
                                                    const Candidate& b,
                                                    bool* cache_hit) const {
  const bool cacheable = !a.is_placeholder && !b.is_placeholder &&
                         a.entity != kb::kNoEntity &&
                         b.entity != kb::kNoEntity;
  if (!cacheable) {
    if (cache_hit != nullptr) *cache_hit = false;
    CountComparison();
    return base_->Relatedness(a, b);
  }
  double value = 0.0;
  if (cache_->Lookup(a.entity, b.entity, &value)) {
    if (cache_hit != nullptr) *cache_hit = true;
    return value;
  }
  if (cache_hit != nullptr) *cache_hit = false;
  CountComparison();
  value = base_->Relatedness(a, b);
  cache_->Insert(a.entity, b.entity, value);
  return value;
}

}  // namespace aida::core
