/**
 * @file
 * The parallel sweep engine: evaluate a grid of
 * (program x device x calibration-day x OptLevel) compilation cells —
 * the shape of the paper's entire evaluation (Figs. 7-12: 12
 * benchmarks x 7 machines x 4 levels x many days) — with staged
 * hoisting, a content-addressed compile cache, and drift-aware
 * recompilation.
 *
 * Pipeline staging (shared work is computed once, not per cell):
 *   1. per (program, native-CPHASE variant): lower to the CNOT basis;
 *   2. per (device, day): synthesize/validate the calibration and
 *      digest its sanitization outcome;
 *   3. per fingerprint: map/route/schedule/translate — at most one
 *      compile per distinct fingerprint, however many cells share it;
 *      results are memoized in the CompileCache across sweeps.
 *
 * Days are processed in ascending order with a barrier between them,
 * so a later day's drift check always sees the earlier days' entries —
 * exactly the "calibration feed arrives, decide what to recompile"
 * loop of the ROADMAP. Within a day, distinct fingerprints compile in
 * parallel through forEachIndex (common/sched.hh) at
 * SweepConfig::threads workers; everything the engine produces is
 * deterministic and independent of the thread count.
 *
 * Each distinct fingerprint is resolved by compileThroughCache, the
 * same function triqd calls for every request: the engine only hoists
 * its inputs and keeps the books. The engine reads no environment
 * variable except TRIQ_FAULT (common/fault_injector.hh).
 */

#ifndef TRIQ_SERVICE_SWEEP_HH
#define TRIQ_SERVICE_SWEEP_HH

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "device/machines.hh"
#include "service/compile_cache.hh"

namespace triq
{

/** One program of a sweep grid, with a display name. */
struct SweepProgram
{
    std::string name;
    Circuit circuit;
};

/** The grid and the engine's tuning knobs. */
struct SweepConfig
{
    std::vector<SweepProgram> programs;
    std::vector<Device> devices;
    std::vector<int> days;        //!< Deduplicated, processed ascending.
    std::vector<OptLevel> levels;

    /**
     * Worker threads for the per-day compile fan-out. N >= 1 runs N
     * workers (1 = serial path, no pool; at most kMaxThreads); <= 0
     * runs one worker per hardware thread. Results are identical for
     * every value.
     */
    int threads = 0;

    /** Use the compile cache passed to runSweep. */
    bool useCache = true;

    /**
     * Max tolerated relative ESP degradation, in [0, 1], before a
     * noise-aware (CN) cell is recompiled for a new calibration day;
     * within it the previous compilation is reused (marked
     * DriftReuse). Unset (the default) disables drift reuse: every new
     * day recompiles its CN cells.
     */
    std::optional<double> driftThreshold;

    /**
     * Base CompileOptions for every cell; `level` is overridden per
     * cell. When `budget` is armed, compiled cells are *not* inserted
     * into the cache (a deadline makes the artifact wall-clock
     * dependent, which would break the bit-identity contract), but the
     * budget is respected by every compile — including drift-triggered
     * recompiles — with degradations recorded in the cell's
     * CompileReport as usual.
     */
    CompileOptions options;

    /**
     * Crash-safe journal path ("" = no journal). Every resolved cell
     * is appended and fsync'd as it completes (see
     * service/sweep_journal.hh), so a killed sweep loses at most the
     * cell being written.
     */
    std::string journalPath;

    /**
     * Resume from `journalPath`: cells already journaled are restored
     * (their artifacts warm the compile cache) instead of recomputed,
     * and the journal is appended to rather than truncated. The final
     * matrix is byte-identical to an uninterrupted journaled run.
     * Requires the journal's grid fingerprint to match this config.
     */
    bool resume = false;
};

/** How a cell's artifact was obtained. */
enum class CellSource
{
    Compiled,   //!< Cold compile (engine ran the full pipeline).
    CacheHit,   //!< Exact-fingerprint hit: bit-identical to a cold compile.
    DriftReuse, //!< Stale CN artifact reused within the drift threshold.
    Skipped,    //!< Program needs more qubits than the device has.

    /**
     * The cell's compile threw (e.g. strict calibration rejected a
     * corrupt feed). The error is recorded in SweepCell::error and the
     * sweep carries on — one poisoned (device, day) must not void the
     * rest of a grid that took hours to evaluate.
     */
    Error,
};

/**
 * Display name ("compiled", "cache_hit", "drift_reuse", "skipped",
 * "error").
 */
std::string cellSourceName(CellSource s);

/** One evaluated grid cell. */
struct SweepCell
{
    int programIndex = 0;
    int deviceIndex = 0;
    int day = 0;
    OptLevel level = OptLevel::OneQOptCN;

    CellSource source = CellSource::Skipped;

    /** The artifact; shared with every cell of equal fingerprint. */
    std::shared_ptr<const CompileResult> result;

    /** The cell's fingerprint (zeros when Skipped). */
    CompileFingerprint fingerprint;

    /** Predicted ESP of the artifact under *this cell's* calibration. */
    double esp = 0.0;

    /**
     * Predicted ESP under the calibration the artifact was compiled
     * against. Equal to `esp` except for DriftReuse cells, where the
     * gap is the measured drift.
     */
    double espAtCompile = 0.0;

    /** Wall-clock spent obtaining this cell (compile or lookup), ms. */
    double ms = 0.0;

    /** Why the cell failed ("" unless source == CellSource::Error). */
    std::string error;

    /**
     * True when this cell was restored from a resume journal instead
     * of being computed in this run. `source`, `esp`, `espAtCompile`
     * and `error` carry the original run's values; `ms` is 0.
     */
    bool restored = false;
};

/** Aggregate counters of one runSweep call. */
struct SweepStats
{
    int cells = 0;      //!< Evaluated cells (excluding Skipped/Error).
    int skipped = 0;    //!< Program-too-large cells.
    int errors = 0;     //!< Cells whose compile threw (CellSource::Error).
    int compiles = 0;   //!< Cold compiles actually run.
    int cacheHits = 0;  //!< Exact-fingerprint reuses.
    int driftReuses = 0;    //!< Within-threshold stale reuses.
    int driftRecompiles = 0; //!< CN recompiles forced past the threshold.
    int restoredCells = 0;   //!< Cells restored from a resume journal.

    /**
     * Mapper-search aggregates over the cells *compiled by this run*
     * (cache hits, drift reuses and restored cells carry no fresh
     * search): total B&B nodes, per-pruning-rule cut counts, cells
     * whose mapper degraded below the requested engine, and drift
     * recompiles that warm-started from the stale placement. These make
     * search regressions observable in production sweeps, not just in
     * the micro_mapper bench.
     */
    long mapperNodes = 0;
    long mapperBoundPruned = 0;
    long mapperSymmetryPruned = 0;
    long mapperDominancePruned = 0;
    int mapperFallbacks = 0;
    int mapperWarmStarts = 0;
    double wallMs = 0.0;     //!< End-to-end engine wall clock.
    int threads = 1;         //!< Workers actually used (max over days).
};

/** Everything runSweep produces. */
struct SweepResult
{
    /** Cells in grid order: programs x devices x days x levels. */
    std::vector<SweepCell> cells;
    SweepStats stats;
};

/**
 * Evaluate the grid. @param cache The memo to consult and fill; may be
 * null (every cell compiles cold, as if the cache were disabled).
 * @throws FatalError when the grid is empty in any dimension, or when
 *         the drift threshold is set outside [0, 1].
 */
SweepResult runSweep(const SweepConfig &config, CompileCache *cache);

/** Result of one cell compiled through compileThroughCache. */
struct CachedCompile
{
    std::shared_ptr<const CompileResult> result;
    CellSource source = CellSource::Compiled;
    CompileFingerprint fingerprint;
    double esp = 0.0;          //!< Under `calib`.
    double espAtCompile = 0.0; //!< Under the artifact's own calibration.

    /** Compiled after refusing a drift candidate (a drift recompile). */
    bool driftRecompiled = false;
};

/**
 * Resolve one compilation cell: fingerprint it, look it up, try a
 * drift-tolerant reuse, compile on a miss (warm-starting the mapper
 * from a refused drift candidate's placement) and memoize the result
 * unless the compile is budgeted. triqd, the bench harnesses and
 * runSweep all resolve cells here.
 *
 * @param cache The memo; null forces a cold compile.
 * @param program The *source* program.
 * @param drift Max tolerated relative ESP degradation in [0, 1] for a
 *        CN cell (as SweepConfig::driftThreshold); unset matches exact
 *        keys only.
 * @param lowered `program` already lowered for `dev`'s gate set, as
 *        compileForDevice takes it; null lowers it here.
 * @param fingerprint The cell's key when the caller has it (runSweep
 *        hoists both); null computes it with fingerprintCompile.
 */
CachedCompile compileThroughCache(
    CompileCache *cache, const Circuit &program, const Device &dev,
    int day, const Calibration &calib, const CompileOptions &opts,
    std::optional<double> drift = std::nullopt,
    const Circuit *lowered = nullptr,
    const CompileFingerprint *fingerprint = nullptr);

} // namespace triq

#endif // TRIQ_SERVICE_SWEEP_HH
