/**
 * @file
 * LruCache — the shared artifact-lifecycle primitive: a thread-safe,
 * byte-accounted, capacity-bounded map from content keys to
 * shared_ptr-owned values with LRU eviction, pinning and hit/miss/
 * evict counters.
 *
 * Every expensive artifact the system builds — generated graphs with
 * their stream set index, captured SCBC programs and the reports
 * derived from them — shares one lifecycle: built at most once per
 * content key (concurrent requests for the same key wait on the first
 * builder instead of duplicating work), held by shared_ptr so eviction can
 * never invalidate an artifact a caller is still using, and evicted
 * least-recently-used when the byte budget is exceeded. An entry
 * whose value is externally referenced (use_count > the cache's own
 * reference) is *pinned*: it keeps counting against the budget but is
 * skipped by eviction, so in-use artifacts survive arbitrary cache
 * pressure.
 *
 * The api::ArtifactStore composes these for captured programs,
 * verdicts and summaries; graph/datasets.cc uses one directly for the
 * Table-4 dataset registry. tests/cache_test.cc pins the semantics.
 */

#ifndef SPARSECORE_COMMON_CACHE_HH
#define SPARSECORE_COMMON_CACHE_HH

#include <cstdint>
#include <functional>
#include <future>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <utility>

namespace sc {

/** Counters + occupancy snapshot of one LruCache. */
struct CacheStats
{
    std::uint64_t hits = 0;      ///< ready or in-flight entry reused
    std::uint64_t misses = 0;    ///< builder invocations (== builds)
    std::uint64_t evictions = 0; ///< entries dropped by the LRU bound
    /** Hits that blocked on another thread's in-flight build — the
     *  convoy signal the affinity job scheduler minimizes. */
    std::uint64_t inflightWaits = 0;
    std::size_t entries = 0;     ///< resident entries
    std::size_t bytes = 0;       ///< resident bytes (pinned included)
    std::size_t capacityBytes = 0; ///< 0 = unbounded
};

/**
 * The cache. K must be hashable and equality-comparable (keys are
 * content-derived strings in practice); V is owned as
 * shared_ptr<const V> so values are immutable and eviction-safe.
 *
 * Thread safety: every public method is safe to call concurrently.
 * Builders run outside the lock; a second request for a key whose
 * build is in flight blocks on the first build's future (and counts
 * as a hit — the artifact is built exactly once). A builder that
 * throws propagates the exception to every waiter and leaves the
 * cache without an entry for the key.
 */
template <typename K, typename V>
class LruCache
{
  public:
    using ValuePtr = std::shared_ptr<const V>;
    using BytesFn = std::function<std::size_t(const V &)>;

    /**
     * @param capacity_bytes LRU byte budget; 0 = unbounded
     * @param bytes_fn measures an entry's resident size once at
     *        insertion (defaults to sizeof(V))
     */
    explicit LruCache(std::size_t capacity_bytes = 0,
                      BytesFn bytes_fn = nullptr)
        : capacity_(capacity_bytes), bytesFn_(std::move(bytes_fn))
    {
    }

    LruCache(const LruCache &) = delete;
    LruCache &operator=(const LruCache &) = delete;

    /**
     * The single entry point: return the value for `key`, invoking
     * `build` at most once per resident lifetime of the key. The
     * returned shared_ptr pins the entry for as long as the caller
     * holds it.
     */
    ValuePtr
    getOrBuild(const K &key, const std::function<ValuePtr()> &build)
    {
        std::unique_lock<std::mutex> lock(mutex_);
        if (auto it = map_.find(key); it != map_.end()) {
            lru_.splice(lru_.begin(), lru_, it->second);
            ++hits_;
            return it->second->value;
        }
        if (auto in = inflight_.find(key); in != inflight_.end()) {
            // Another thread is building this key right now; share
            // its result instead of building twice.
            auto future = in->second;
            ++hits_;
            ++inflightWaits_;
            lock.unlock();
            return future.get();
        }
        ++misses_;
        std::promise<ValuePtr> promise;
        inflight_.emplace(key, promise.get_future().share());
        lock.unlock();

        ValuePtr value;
        try {
            value = build();
        } catch (...) {
            lock.lock();
            inflight_.erase(key);
            lock.unlock();
            promise.set_exception(std::current_exception());
            throw;
        }

        lock.lock();
        const std::size_t bytes =
            value ? (bytesFn_ ? bytesFn_(*value) : sizeof(V)) : 0;
        lru_.push_front(Entry{key, value, bytes});
        map_[key] = lru_.begin();
        bytes_ += bytes;
        inflight_.erase(key);
        evictLocked();
        lock.unlock();
        promise.set_value(value);
        return value;
    }

    /** Lookup without building (counts a hit or a miss). */
    ValuePtr
    find(const K &key)
    {
        std::lock_guard<std::mutex> lock(mutex_);
        auto it = map_.find(key);
        if (it == map_.end()) {
            ++misses_;
            return nullptr;
        }
        lru_.splice(lru_.begin(), lru_, it->second);
        ++hits_;
        return it->second->value;
    }

    /** Lookup without building, counting, or refreshing LRU order —
     *  for admission-time peeks that must not perturb the hit/miss
     *  counters the smoke legs pin. */
    ValuePtr
    peek(const K &key)
    {
        std::lock_guard<std::mutex> lock(mutex_);
        const auto it = map_.find(key);
        return it == map_.end() ? nullptr : it->second->value;
    }

    /** Drop every resident entry (in-flight builds are unaffected;
     *  externally held shared_ptrs stay valid). Not counted as
     *  evictions. */
    void
    clear()
    {
        std::lock_guard<std::mutex> lock(mutex_);
        map_.clear();
        lru_.clear();
        bytes_ = 0;
    }

    /** Change the byte budget (0 = unbounded) and evict to fit. */
    void
    setCapacity(std::size_t capacity_bytes)
    {
        std::lock_guard<std::mutex> lock(mutex_);
        capacity_ = capacity_bytes;
        evictLocked();
    }

    CacheStats
    stats() const
    {
        std::lock_guard<std::mutex> lock(mutex_);
        CacheStats s;
        s.hits = hits_;
        s.misses = misses_;
        s.evictions = evictions_;
        s.inflightWaits = inflightWaits_;
        s.entries = map_.size();
        s.bytes = bytes_;
        s.capacityBytes = capacity_;
        return s;
    }

    /** Zero the hit/miss/evict counters (occupancy is untouched). */
    void
    resetStats()
    {
        std::lock_guard<std::mutex> lock(mutex_);
        hits_ = misses_ = evictions_ = inflightWaits_ = 0;
    }

  private:
    struct Entry
    {
        K key;
        ValuePtr value;
        std::size_t bytes = 0;
    };

    /**
     * Drop least-recently-used entries until the budget fits. An
     * entry whose value is referenced outside the cache (our list
     * holds exactly one reference) is pinned: skipped, but its bytes
     * keep counting. If everything live is pinned the cache runs
     * over budget rather than invalidating in-use artifacts.
     */
    void
    evictLocked()
    {
        if (capacity_ == 0)
            return;
        auto it = lru_.end();
        while (bytes_ > capacity_ && it != lru_.begin()) {
            --it;
            if (it->value.use_count() > 1)
                continue; // pinned: an external caller still uses it
            bytes_ -= it->bytes;
            map_.erase(it->key);
            it = lru_.erase(it);
            ++evictions_;
        }
    }

    mutable std::mutex mutex_;
    std::size_t capacity_ = 0;
    BytesFn bytesFn_;
    std::list<Entry> lru_; ///< front = most recently used
    std::unordered_map<K, typename std::list<Entry>::iterator> map_;
    std::unordered_map<K, std::shared_future<ValuePtr>> inflight_;
    std::uint64_t hits_ = 0;
    std::uint64_t misses_ = 0;
    std::uint64_t evictions_ = 0;
    std::uint64_t inflightWaits_ = 0;
    std::size_t bytes_ = 0;
};

} // namespace sc

#endif // SPARSECORE_COMMON_CACHE_HH
