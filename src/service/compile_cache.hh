/**
 * @file
 * A content-addressed, drift-aware memo of compiled artifacts.
 *
 * Keys are CompileFingerprints (core/fingerprint.hh): canonical IR,
 * device structure, the calibration data the level actually reads, and
 * the CompileOptions. An exact-key hit returns the *same* artifact a
 * cold compile would produce, bit for bit (see DESIGN.md, "Sweep
 * engine & compile cache" — the determinism contract), so the cache is
 * a pure speedup.
 *
 * Drift awareness (the ROADMAP retry-on-drift loop, expressed as cache
 * invalidation): when a noise-aware (CN) cell misses because only the
 * calibration component changed — a new day arrived — the cache can
 * re-score the newest same-(program, device, options) entry's routed
 * circuit under the new data. If its predicted ESP has degraded by at
 * most the caller's threshold, the stale compilation is *reused*
 * (explicitly marked, never claimed bit-identical); past the
 * threshold, the entry is left alone and the caller recompiles. Both
 * outcomes are counted so a feed's drift rate is observable.
 *
 * Thread safety: every method is safe to call concurrently; the sweep
 * engine's workers share one instance. Entries are immutable once
 * inserted and handed out as shared_ptr<const CompileResult>, so hits
 * never copy or race against insertion.
 */

#ifndef TRIQ_SERVICE_COMPILE_CACHE_HH
#define TRIQ_SERVICE_COMPILE_CACHE_HH

#include <deque>
#include <memory>
#include <mutex>
#include <optional>
#include <unordered_map>

#include "core/fingerprint.hh"

namespace triq
{

/** Thread-safe content-addressed store of compiled artifacts. */
class CompileCache
{
  public:
    /** One memoized compilation. */
    struct Entry
    {
        std::shared_ptr<const CompileResult> result;

        /**
         * Predicted ESP of result->hwCircuit under the calibration it
         * was compiled against — the drift baseline.
         */
        double espAtCompile = 0.0;

        /** Calibration component of the entry's key. */
        uint64_t calibrationSig = 0;

        /** Calibration day the entry was compiled for (informational). */
        int day = 0;
    };

    /** Monotonic counters; read with stats(). */
    struct Stats
    {
        long lookups = 0;
        long hits = 0;
        long misses = 0;
        long inserts = 0;
        long evictions = 0;
        long driftChecks = 0;      //!< findDriftTolerant calls.
        long driftReuses = 0;      //!< within-threshold reuses granted.
        long driftInvalidations = 0; //!< past-threshold refusals.
    };

    /**
     * @param max_entries Entry cap; 0 (default) = unbounded. When full,
     *        the oldest inserted entry is evicted (FIFO — sweep access
     *        patterns are one-shot per cell, so recency tracking buys
     *        nothing).
     */
    explicit CompileCache(size_t max_entries = 0)
        : maxEntries_(max_entries)
    {
    }

    /** Exact-key lookup; nullopt on miss. Counts a lookup either way. */
    std::optional<Entry> find(const CompileFingerprint &key);

    /**
     * Memoize a compilation under its key. Last writer wins on a
     * duplicate key (both writers hold identical artifacts by the
     * determinism contract, so this is benign).
     *
     * @param esp_at_compile Predicted ESP under the compile-time
     *        calibration (the future drift baseline).
     * @param day Calibration day compiled against.
     */
    void insert(const CompileFingerprint &key,
                std::shared_ptr<const CompileResult> result,
                double esp_at_compile, int day);

    /**
     * Drift-tolerant lookup for a cell whose exact key missed: find
     * the newest entry sharing the key's stableKey() (same program,
     * device and options; any calibration), re-score its routed
     * circuit under `new_calib`, and grant reuse iff
     *
     *   espNew >= espAtCompile * (1 - threshold)
     *
     * i.e. the predicted ESP lost at most `threshold` (relative) to
     * calibration drift.
     *
     * @param key The missing cell's fingerprint.
     * @param topo Device topology (ESP evaluation).
     * @param new_calib The new day's calibration snapshot.
     * @param threshold Max tolerated relative ESP degradation, in
     *        [0, 1]. Negative disables (always refuses).
     * @param esp_new_out When non-null, receives the re-scored ESP of
     *        the candidate (0 when there was no candidate) so the
     *        caller can report the delta.
     * @param stale_out When non-null, receives the drift candidate even
     *        when reuse is refused — the recompile path warm-starts the
     *        mapper from the stale placement (it is usually within a
     *        few swaps of the new optimum). Untouched when there was no
     *        candidate at all.
     * @return The reusable entry, or nullopt when there is no
     *         candidate or it degraded past the threshold.
     */
    std::optional<Entry>
    findDriftTolerant(const CompileFingerprint &key, const Topology &topo,
                      const Calibration &new_calib, double threshold,
                      double *esp_new_out = nullptr,
                      std::optional<Entry> *stale_out = nullptr);

    Stats stats() const;
    size_t size() const;
    void clear();

  private:
    struct KeyHash
    {
        size_t
        operator()(const CompileFingerprint &k) const
        {
            return static_cast<size_t>(k.combined());
        }
    };

    void evictIfFullLocked();

    mutable std::mutex mutex_;
    size_t maxEntries_;
    std::unordered_map<CompileFingerprint, Entry, KeyHash> map_;
    /** stableKey -> key of the newest entry with it (drift candidate). */
    std::unordered_map<uint64_t, CompileFingerprint> newestByStable_;
    /** Insertion order for FIFO eviction. */
    std::deque<CompileFingerprint> order_;
    Stats stats_;
};

/**
 * True when caching is enabled for this process: the TRIQ_CACHE
 * environment knob (default 1; 0 disables every cache lookup and
 * insert, forcing cold compiles — the A/B switch for benchmarking).
 */
bool cacheEnabledFromEnv();

} // namespace triq

#endif // TRIQ_SERVICE_COMPILE_CACHE_HH
