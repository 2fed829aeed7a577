/**
 * @file
 * The parallel experiment engine: fans per-trace simulation work
 * across a thread pool and folds per-trace results in trace order.
 *
 * The contract that makes every experiment deterministic
 * independently of the worker count:
 *
 *  1. each trace index gets a self-contained simulation (own
 *     models, own Rng seeded by mixSeed(seed, trace index));
 *  2. per-trace results are written into a slot reserved for that
 *     trace, never into a shared accumulator;
 *  3. after the parallel phase the caller merges the slots in
 *     trace order on the calling thread.
 *
 * Given 1-3, `--jobs N` produces bit-identical statistics to
 * `--jobs 1` for any N.
 *
 * mapCached() adds the content-addressed result layer on top: the
 * per-trace slot is looked up in a ResultCache before simulating
 * and stored after.  mapVariantsCached() does the same for several
 * variants of one item (the arms of a lockstep replay, the cells of
 * a trace-major cache pass) in one task.  Because a key identifies
 * the computation completely (see resultcache.hh) and a hit
 * deserializes the exact bytes a previous identical computation
 * produced, the trace-order merge -- and therefore every printed
 * statistic -- is bit-identical with a cold cache, a warm cache, or
 * no cache at all.
 */

#ifndef PENELOPE_CORE_ENGINE_HH
#define PENELOPE_CORE_ENGINE_HH

#include <cassert>
#include <cstddef>
#include <string>
#include <utility>
#include <vector>

#include "common/threadpool.hh"
#include "core/resultcache.hh"
#include "obs/metrics.hh"

namespace penelope {

/**
 * Decode the payload cached under @p key into @p value.  False on a
 * miss or on a payload that fails to decode (counted as a decode
 * failure); @p value is then untouched.
 */
template <class R>
bool
lookupCached(ResultCache &cache, const Hash128 &key, R &value)
{
    std::string payload;
    if (!cache.lookup(key, payload))
        return false;
    ByteReader reader(payload);
    R decoded{};
    if (decodeResult(reader, decoded) && reader.atEnd()) {
        value = std::move(decoded);
        return true;
    }
    cache.noteDecodeFailure();
    return false;
}

/** Encode @p value and store it under @p key. */
template <class R>
void
storeCached(ResultCache &cache, const Hash128 &key, const R &value)
{
    ByteWriter writer;
    encodeResult(writer, value);
    cache.store(key, writer.view());
}

/**
 * Runs trace-shaped work in parallel.  A thin, copyable handle:
 * with a shared ThreadPool attached every parallel region reuses
 * the resident workers; without one a pool lives only for the
 * duration of each call.
 */
class Engine
{
  public:
    explicit Engine(unsigned jobs = 1, ThreadPool *pool = nullptr)
        : jobs_(jobs ? jobs : 1), pool_(pool)
    {
    }

    unsigned jobs() const { return jobs_; }

    /** Shared worker pool, or nullptr (per-call pools). */
    ThreadPool *pool() const { return pool_; }

    /**
     * Materialise fn(item, slot) for every item, in parallel;
     * results are returned in item order.  fn must be pure in the
     * engine sense: no shared mutable state.
     */
    template <class R, class Items, class Fn>
    std::vector<R>
    map(const Items &items, Fn &&fn) const
    {
        std::vector<R> out(items.size());
        parallelFor(
            items.size(), jobs_,
            [&](std::size_t k) {
                PENELOPE_OBS_COUNTER("engine.tasks", "1").add();
                out[k] = fn(items[k], k);
            },
            pool_);
        return out;
    }

    /**
     * map() with a content-addressed cache in front of fn: the
     * one-variant case of mapVariantsCached().
     *
     * keyOf(item, slot) must return a Hash128 covering everything
     * that determines fn's result (the ResultCache key contract);
     * R must have encodeResult/decodeResult codecs (serialize.hh).
     * On a hit the stored payload is decoded into the slot; a miss
     * -- including a payload that fails to decode -- simulates and
     * stores.  With a null cache this is exactly map().
     */
    template <class R, class Items, class KeyFn, class Fn>
    std::vector<R>
    mapCached(const Items &items, ResultCache *cache, KeyFn &&keyOf,
              Fn &&fn) const
    {
        const std::vector<bool> one_variant(1);
        return std::move(
            mapVariantsCached<R>(
                items, one_variant, cache,
                [&](const auto &item, bool, std::size_t k) {
                    return keyOf(item, k);
                },
                [&](const auto &item, std::size_t k,
                    const std::vector<bool> &) {
                    std::vector<R> r;
                    r.push_back(fn(item, k));
                    return r;
                })
                .front());
    }

    /**
     * One task per item, several variants per item, every (item,
     * variant) pair cached under its own key.
     *
     * keyOf(item, variant, slot) returns the pair's Hash128 (called
     * only with a cache).  The task looks every variant up first,
     * then -- only if some missed -- calls fn(item, slot, missing)
     * once, with the missed variants in variant order, so they can
     * share the item's work (one trace, one replay timing stream).
     * fn returns one R per entry of missing, in that order; each is
     * stored under its own key.  Returns out[variant][slot].  With a
     * null cache every variant misses.
     */
    template <class R, class Items, class V, class KeyFn, class Fn>
    std::vector<std::vector<R>>
    mapVariantsCached(const Items &items,
                      const std::vector<V> &variants,
                      ResultCache *cache, KeyFn &&keyOf,
                      Fn &&fn) const
    {
        std::vector<std::vector<R>> out(
            variants.size(), std::vector<R>(items.size()));
        parallelFor(
            items.size(), jobs_,
            [&](std::size_t k) {
                PENELOPE_OBS_COUNTER("engine.tasks", "1").add();
                std::vector<Hash128> keys;
                std::vector<std::size_t> missed;
                std::vector<V> missing;
                for (std::size_t v = 0; v < variants.size(); ++v) {
                    if (cache) {
                        keys.push_back(
                            keyOf(items[k], variants[v], k));
                        if (lookupCached(*cache, keys.back(),
                                         out[v][k]))
                            continue;
                    }
                    missed.push_back(v);
                    missing.push_back(variants[v]);
                }
                if (missed.empty())
                    return;
                std::vector<R> results = fn(items[k], k, missing);
                assert(results.size() == missed.size());
                for (std::size_t m = 0; m < missed.size(); ++m) {
                    R &slot = out[missed[m]][k];
                    slot = std::move(results[m]);
                    if (cache)
                        storeCached(*cache, keys[missed[m]], slot);
                }
            },
            pool_);
        return out;
    }

  private:
    unsigned jobs_;
    ThreadPool *pool_;
};

} // namespace penelope

#endif // PENELOPE_CORE_ENGINE_HH
