/**
 * @file
 * Compile-cache and sweep-engine tests: fingerprint sensitivity, the
 * cache-hit determinism contract (a hit is byte-identical to a cold
 * compile), drift-threshold boundary behavior, budget/cache exclusion,
 * eviction, runSweep grid semantics, and thread-safety of concurrent
 * sweep workers (this suite carries the "sweep" ctest label so
 * sanitizer builds can target it).
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <thread>

#include "common/json.hh"
#include "common/logging.hh"
#include "common/sched.hh"
#include "core/decompose.hh"
#include "core/esp.hh"
#include "core/fingerprint.hh"
#include "device/machines.hh"
#include "service/sweep.hh"
#include "service/sweep_journal.hh"
#include "service/sweep_matrix.hh"
#include "workloads/benchmarks.hh"

using namespace triq;

namespace
{

CompileOptions
baseOptions(OptLevel level)
{
    CompileOptions opts;
    opts.level = level;
    opts.emitAssembly = false;
    return opts;
}

CompileFingerprint
fingerprintOf(const Circuit &program, const Device &dev, int day,
              OptLevel level)
{
    Circuit lowered =
        decomposeToCnotBasis(program, dev.gateSet().nativeCphase);
    return fingerprintCompile(lowered, dev, dev.calibrate(day),
                              baseOptions(level));
}

} // namespace

// --- fingerprints --------------------------------------------------------

TEST(Fingerprint, SensitiveToEveryInputComponent)
{
    Device q5 = makeIbmQ5();
    Device q14 = makeIbmQ14();
    Circuit bv = makeBenchmark("BV4");
    Circuit toff = makeBenchmark("Toffoli");

    CompileFingerprint base =
        fingerprintOf(bv, q5, 0, OptLevel::OneQOptCN);

    // Program changes the key.
    EXPECT_FALSE(base ==
                 fingerprintOf(toff, q5, 0, OptLevel::OneQOptCN));
    // Device changes the key.
    EXPECT_FALSE(base ==
                 fingerprintOf(bv, q14, 0, OptLevel::OneQOptCN));
    // Calibration day changes a noise-aware key.
    EXPECT_FALSE(base == fingerprintOf(bv, q5, 1, OptLevel::OneQOptCN));
    // Options change the key.
    EXPECT_FALSE(base == fingerprintOf(bv, q5, 0, OptLevel::OneQOptC));
    // Same inputs reproduce the key exactly.
    EXPECT_TRUE(base == fingerprintOf(bv, q5, 0, OptLevel::OneQOptCN));
}

TEST(Fingerprint, CircuitNameIsNotContent)
{
    Circuit a = makeBenchmark("BV4");
    Circuit b = a;
    b.setName("renamed");
    EXPECT_EQ(circuitFingerprint(a), circuitFingerprint(b));
}

TEST(Fingerprint, BudgetIsExcludedFromOptions)
{
    CompileOptions plain = baseOptions(OptLevel::OneQOptCN);
    CompileOptions budgeted = plain;
    budgeted.budget = CompileBudget::withDeadlineMs(1.0);
    EXPECT_EQ(compileOptionsFingerprint(plain),
              compileOptionsFingerprint(budgeted));
}

TEST(Fingerprint, NonCnLevelsShareCleanCalibrationDays)
{
    // The synthesized feeds are clean (no sanitize repairs), and the
    // C level maps against the device average — so two days produce
    // the same key for C but different keys for CN.
    Device dev = makeIbmQ14();
    Circuit bv = makeBenchmark("BV4");
    EXPECT_TRUE(fingerprintOf(bv, dev, 0, OptLevel::OneQOptC) ==
                fingerprintOf(bv, dev, 5, OptLevel::OneQOptC));
    EXPECT_FALSE(fingerprintOf(bv, dev, 0, OptLevel::OneQOptCN) ==
                 fingerprintOf(bv, dev, 5, OptLevel::OneQOptCN));
}

TEST(Fingerprint, StructuralTwinsDoNotShareStableKeys)
{
    // Aspen1 and Aspen3 share a topology and gate set; only their
    // calibration models differ. Their keys — including the
    // calibration-independent stableKey the drift path searches — must
    // still be distinct, or a sweep would silently reuse one machine's
    // mapping on the other.
    Device a1 = makeRigettiAspen1();
    Device a3 = makeRigettiAspen3();
    Circuit bv = makeBenchmark("BV4");
    CompileFingerprint f1 = fingerprintOf(bv, a1, 0, OptLevel::OneQOptCN);
    CompileFingerprint f3 = fingerprintOf(bv, a3, 0, OptLevel::OneQOptCN);
    EXPECT_NE(f1.device, f3.device);
    EXPECT_NE(f1.stableKey(), f3.stableKey());
}

// --- cache hits ----------------------------------------------------------

TEST(CompileCache, HitIsByteIdenticalToColdCompile)
{
    Device dev = makeIbmQ14();
    Circuit program = makeBenchmark("QFT");
    Calibration calib = dev.calibrate(2);
    CompileOptions opts = baseOptions(OptLevel::OneQOptCN);

    CompileCache cache;
    CachedCompile first = compileThroughCache(&cache, program, dev, 2,
                                              calib, opts);
    ASSERT_EQ(first.source, CellSource::Compiled);

    CachedCompile second = compileThroughCache(&cache, program, dev, 2,
                                               calib, opts);
    ASSERT_EQ(second.source, CellSource::CacheHit);
    EXPECT_EQ(second.result.get(), first.result.get());

    // The contract: the memoized artifact is the same bytes a cold
    // compile produces — routed circuit, maps, stats, assembly and
    // report (timings excluded).
    CompileResult cold = compileForDevice(program, dev, calib, opts);
    EXPECT_EQ(canonicalCompileResultText(*second.result),
              canonicalCompileResultText(cold));
    EXPECT_EQ(compileResultDigest(*second.result),
              compileResultDigest(cold));
}

TEST(CompileCache, BudgetedCompilesAreNeverInserted)
{
    Device dev = makeIbmQ5();
    Circuit program = makeBenchmark("BV4");
    Calibration calib = dev.calibrate(0);
    CompileOptions opts = baseOptions(OptLevel::OneQOptCN);
    opts.budget = CompileBudget::withDeadlineMs(60000.0);

    CompileCache cache;
    CachedCompile cc =
        compileThroughCache(&cache, program, dev, 0, calib, opts);
    EXPECT_EQ(cc.source, CellSource::Compiled);
    EXPECT_EQ(cache.size(), 0u);
    // The same cell again: still a cold compile, never a hit.
    cc = compileThroughCache(&cache, program, dev, 0, calib, opts);
    EXPECT_EQ(cc.source, CellSource::Compiled);
}

TEST(CompileCache, FifoEvictionRespectsCapacity)
{
    Device dev = makeIbmQ5();
    Calibration calib = dev.calibrate(0);
    CompileOptions opts = baseOptions(OptLevel::OneQOptCN);

    CompileCache cache(2);
    const char *names[] = {"BV4", "Toffoli", "Fredkin"};
    std::vector<CompileFingerprint> keys;
    for (const char *name : names) {
        Circuit program = makeBenchmark(name);
        CachedCompile cc =
            compileThroughCache(&cache, program, dev, 0, calib, opts);
        keys.push_back(cc.fingerprint);
    }
    EXPECT_EQ(cache.size(), 2u);
    EXPECT_EQ(cache.stats().evictions, 1);
    EXPECT_FALSE(cache.find(keys[0]).has_value()); // oldest gone
    EXPECT_TRUE(cache.find(keys[1]).has_value());
    EXPECT_TRUE(cache.find(keys[2]).has_value());
}

// --- drift ---------------------------------------------------------------

TEST(CompileCache, DriftThresholdBoundaries)
{
    Device dev = makeIbmQ14();
    Circuit program = makeBenchmark("BV4");
    CompileOptions opts = baseOptions(OptLevel::OneQOptCN);
    Calibration day0 = dev.calibrate(0);

    CompileCache cache;
    CachedCompile first =
        compileThroughCache(&cache, program, dev, 0, day0, opts);
    ASSERT_EQ(first.source, CellSource::Compiled);

    // Find a later day where the day-0 artifact's predicted ESP
    // actually degrades, so the boundary is meaningful.
    int drift_day = -1;
    double esp_new = 0.0;
    for (int day = 1; day < 10; ++day) {
        esp_new = estimatedSuccessProbability(
            first.result->hwCircuit, dev.topology(),
            dev.calibrate(day));
        if (esp_new < first.espAtCompile) {
            drift_day = day;
            break;
        }
    }
    ASSERT_GT(drift_day, 0) << "no degrading day in the feed";
    Calibration dayN = dev.calibrate(drift_day);
    CompileFingerprint key = fingerprintOf(program, dev, drift_day,
                                           OptLevel::OneQOptCN);
    double degradation = 1.0 - esp_new / first.espAtCompile;

    // Just under the measured degradation: refuse (recompile).
    EXPECT_FALSE(cache
                     .findDriftTolerant(key, dev.topology(), dayN,
                                        degradation * 0.9)
                     .has_value());
    // Just over it: reuse.
    auto reused = cache.findDriftTolerant(key, dev.topology(), dayN,
                                          degradation * 1.1);
    ASSERT_TRUE(reused.has_value());
    EXPECT_EQ(reused->result.get(), first.result.get());
    // An *improved* day reuses at threshold zero.
    for (int day = 1; day < 10; ++day) {
        Calibration c = dev.calibrate(day);
        if (estimatedSuccessProbability(first.result->hwCircuit,
                                        dev.topology(), c) >=
            first.espAtCompile) {
            EXPECT_TRUE(cache
                            .findDriftTolerant(key, dev.topology(), c,
                                               0.0)
                            .has_value());
            break;
        }
    }
    EXPECT_GE(cache.stats().driftChecks, 3);
}

TEST(Sweep, DriftReplayRecompilesOnlyDegradedCells)
{
    // Two-day CN sweep with a generous threshold: day 0 compiles
    // everything; day 1 either reuses (within threshold) or recompiles
    // (past it), and the two outcomes partition day 1 exactly.
    SweepConfig cfg;
    for (const char *name : {"BV4", "Toffoli", "Fredkin", "Peres"})
        cfg.programs.push_back({name, makeBenchmark(name)});
    cfg.devices = {makeIbmQ5(), makeUmdTi()};
    cfg.days = {0, 1};
    cfg.levels = {OptLevel::OneQOptCN};
    cfg.options.emitAssembly = false;
    cfg.driftThreshold = 0.05;
    cfg.threads = 2;

    CompileCache cache;
    SweepResult res = runSweep(cfg, &cache);

    int day0_compiled = 0, day1_reused = 0, day1_compiled = 0;
    for (const SweepCell &cell : res.cells) {
        if (cell.day == 0) {
            EXPECT_EQ(cell.source, CellSource::Compiled);
            ++day0_compiled;
        } else if (cell.source == CellSource::DriftReuse) {
            // Reuse is honest: predicted ESP lost at most 5%.
            EXPECT_GE(cell.esp, cell.espAtCompile * 0.95);
            ++day1_reused;
        } else {
            EXPECT_EQ(cell.source, CellSource::Compiled);
            ++day1_compiled;
        }
    }
    EXPECT_EQ(day0_compiled, 8);
    EXPECT_EQ(day1_reused + day1_compiled, 8);
    EXPECT_EQ(res.stats.driftReuses, day1_reused);
    EXPECT_EQ(res.stats.compiles, day0_compiled + day1_compiled);
    CompileCache::Stats cs = cache.stats();
    EXPECT_EQ(cs.driftInvalidations, day1_compiled);
    EXPECT_EQ(cs.driftReuses, day1_reused);
}

// --- the engine ----------------------------------------------------------

TEST(Sweep, GridSemanticsAndStatsAreConsistent)
{
    SweepConfig cfg;
    cfg.programs.push_back({"BV8", makeBenchmark("BV8")}); // 9 qubits
    cfg.programs.push_back({"BV4", makeBenchmark("BV4")});
    cfg.devices = {makeIbmQ5(), makeIbmQ14()};
    cfg.days = {0, 1};
    cfg.levels = {OptLevel::OneQOptC, OptLevel::OneQOptCN};
    cfg.options.emitAssembly = false;
    cfg.threads = 2;

    CompileCache cache;
    SweepResult res = runSweep(cfg, &cache);

    // Grid order and size: programs x devices x days x levels.
    ASSERT_EQ(res.cells.size(), 2u * 2 * 2 * 2);
    // BV8 does not fit IBMQ5: those four cells are skipped.
    for (const SweepCell &cell : res.cells) {
        bool too_big = cell.programIndex == 0 && cell.deviceIndex == 0;
        EXPECT_EQ(cell.source == CellSource::Skipped, too_big);
        if (cell.source != CellSource::Skipped) {
            ASSERT_TRUE(cell.result != nullptr);
            EXPECT_GT(cell.esp, 0.0);
        }
    }
    EXPECT_EQ(res.stats.skipped, 4);
    EXPECT_EQ(res.stats.cells, 12);
    // Every evaluated cell is accounted for exactly once.
    EXPECT_EQ(res.stats.cells, res.stats.compiles +
                                   res.stats.cacheHits +
                                   res.stats.driftReuses);
    // Day-1 C cells share day-0's artifacts (clean feeds): 3 hits.
    EXPECT_EQ(res.stats.cacheHits, 3);
    EXPECT_EQ(res.stats.compiles, 9);
}

TEST(Sweep, ResultsAreIndependentOfThreadCountAndCacheUse)
{
    SweepConfig cfg;
    for (const char *name : {"BV4", "Toffoli", "QFT"})
        cfg.programs.push_back({name, makeBenchmark(name)});
    cfg.devices = {makeIbmQ5(), makeIbmQ14(), makeUmdTi()};
    cfg.days = {0, 1};
    cfg.levels = {OptLevel::OneQOptC, OptLevel::OneQOptCN};
    cfg.options.emitAssembly = false;

    // Cold serial without a cache is the reference.
    SweepConfig serial = cfg;
    serial.useCache = false;
    serial.threads = 1;
    SweepResult ref = runSweep(serial, nullptr);
    for (const SweepCell &cell : ref.cells) {
        if (cell.source != CellSource::Skipped) {
            EXPECT_EQ(cell.source, CellSource::Compiled);
        }
    }

    // Parallel + cached must produce byte-identical artifacts, cell
    // for cell, however many workers run.
    for (int threads : {1, 4, 8}) {
        SweepConfig par = cfg;
        par.threads = threads;
        CompileCache cache;
        SweepResult res = runSweep(par, &cache);
        ASSERT_EQ(res.cells.size(), ref.cells.size());
        for (size_t i = 0; i < res.cells.size(); ++i) {
            const SweepCell &a = ref.cells[i];
            const SweepCell &b = res.cells[i];
            EXPECT_EQ(a.source == CellSource::Skipped,
                      b.source == CellSource::Skipped);
            if (a.source == CellSource::Skipped)
                continue;
            EXPECT_EQ(canonicalCompileResultText(*a.result),
                      canonicalCompileResultText(*b.result))
                << "cell " << i << " at " << threads << " threads";
            EXPECT_DOUBLE_EQ(a.esp, b.esp);
        }
    }
}

TEST(Sweep, WarmSweepCompilesNothing)
{
    SweepConfig cfg;
    for (const char *name : {"BV4", "Toffoli"})
        cfg.programs.push_back({name, makeBenchmark(name)});
    cfg.devices = {makeIbmQ5()};
    cfg.days = {0, 1};
    cfg.levels = {OptLevel::OneQOptC, OptLevel::OneQOptCN};
    cfg.options.emitAssembly = false;
    cfg.threads = 2;

    CompileCache cache;
    SweepResult cold = runSweep(cfg, &cache);
    EXPECT_GT(cold.stats.compiles, 0);

    SweepResult warm = runSweep(cfg, &cache);
    EXPECT_EQ(warm.stats.compiles, 0);
    EXPECT_EQ(warm.stats.cacheHits, warm.stats.cells);
    for (size_t i = 0; i < warm.cells.size(); ++i) {
        if (warm.cells[i].source != CellSource::Skipped) {
            EXPECT_EQ(warm.cells[i].result.get(),
                      cold.cells[i].result.get());
        }
    }
}

TEST(Sweep, EmptyGridDimensionIsFatal)
{
    SweepConfig cfg;
    cfg.devices = {makeIbmQ5()};
    cfg.days = {0};
    cfg.levels = {OptLevel::OneQOptCN};
    EXPECT_THROW(runSweep(cfg, nullptr), FatalError);
}

TEST(Sweep, DriftThresholdOutsideUnitIntervalIsFatal)
{
    SweepConfig cfg;
    cfg.programs.push_back({"BV4", makeBenchmark("BV4")});
    cfg.devices = {makeIbmQ5()};
    cfg.days = {0};
    cfg.levels = {OptLevel::OneQOptCN};
    for (double bad : {-1.0, -0.001, 1.5, std::nan("")}) {
        cfg.driftThreshold = bad;
        EXPECT_THROW(runSweep(cfg, nullptr), FatalError) << bad;
    }
    for (double ok : {0.0, 1.0}) {
        cfg.driftThreshold = ok;
        EXPECT_EQ(runSweep(cfg, nullptr).stats.compiles, 1) << ok;
    }
}

// --- concurrency ---------------------------------------------------------

TEST(CompileCache, SurvivesConcurrentMixedAccess)
{
    // Hammer one cache from many workers mixing find / insert /
    // drift-lookup on a small key population. Run under
    // -DTRIQ_SANITIZE=ON this is the data-race check for the sweep
    // engine's shared-cache usage.
    Device dev = makeIbmQ5();
    Calibration day0 = dev.calibrate(0);
    Calibration day1 = dev.calibrate(1);
    CompileOptions opts = baseOptions(OptLevel::OneQOptCN);

    const char *names[] = {"BV4", "Toffoli", "Fredkin", "Or", "Peres"};
    std::vector<Circuit> programs;
    std::vector<CompileFingerprint> keys;
    std::vector<std::shared_ptr<const CompileResult>> results;
    for (const char *name : names) {
        Circuit p = makeBenchmark(name);
        Circuit lowered =
            decomposeToCnotBasis(p, dev.gateSet().nativeCphase);
        keys.push_back(fingerprintCompile(lowered, dev, day0, opts));
        results.push_back(std::make_shared<const CompileResult>(
            compileForDevice(p, dev, day0, opts, &lowered)));
        programs.push_back(std::move(p));
    }

    CompileCache cache;
    std::atomic<long> found{0};
    forEachIndex(8, 64, [&](int i) {
        size_t k = static_cast<size_t>(i) % keys.size();
        switch (i % 4) {
          case 0:
            cache.insert(keys[k], results[k], 0.5, 0);
            break;
          case 1:
            if (cache.find(keys[k]))
                found.fetch_add(1);
            break;
          case 2: {
            CompileFingerprint day1_key = keys[k];
            day1_key.calibration = calibrationSignature(day1);
            cache.findDriftTolerant(day1_key, dev.topology(), day1,
                                    0.5);
            break;
          }
          default:
            cache.stats();
            cache.size();
            break;
        }
    });
    // Everything inserted is findable afterwards, unscathed.
    for (size_t k = 0; k < keys.size(); ++k) {
        auto e = cache.find(keys[k]);
        ASSERT_TRUE(e.has_value());
        EXPECT_EQ(e->result.get(), results[k].get());
    }
}

TEST(CompileCache, ConcurrentEvictionPressureKeepsInvariants)
{
    // A capacity-4 FIFO hammered by 8 workers inserting 80 distinct
    // keys: every counter identity must hold afterwards, nothing may be
    // lost or corrupted, and the map must never exceed its cap. This is
    // the worst case for the eviction bookkeeping (map_, order_ and
    // newestByStable_ churning together under contention); under
    // -DTRIQ_SANITIZE=ON it doubles as the race check.
    Device dev = makeIbmQ5();
    CompileOptions opts = baseOptions(OptLevel::OneQOptCN);

    const char *names[] = {"BV4", "Toffoli", "Fredkin", "Or", "Peres"};
    std::vector<CompileFingerprint> keys;
    std::vector<std::shared_ptr<const CompileResult>> results;
    for (const char *name : names) {
        Circuit p = makeBenchmark(name);
        Circuit lowered =
            decomposeToCnotBasis(p, dev.gateSet().nativeCphase);
        std::shared_ptr<const CompileResult> artifact =
            std::make_shared<const CompileResult>(
                compileForDevice(p, dev, dev.calibrate(0), opts,
                                 &lowered));
        // CN keys are calibration-sensitive, so 16 days x 5 programs
        // give 80 distinct keys that all share 5 artifacts.
        for (int day = 0; day < 16; ++day) {
            keys.push_back(fingerprintCompile(lowered, dev,
                                              dev.calibrate(day), opts));
            results.push_back(artifact);
        }
    }

    constexpr size_t kCapacity = 4;
    CompileCache cache(kCapacity);
    forEachIndex(8, 400, [&](int i) {
        size_t k = static_cast<size_t>(i) % keys.size();
        switch (i % 3) {
          case 0:
            cache.insert(keys[k], results[k], 0.5, 0);
            break;
          case 1: {
            std::optional<CompileCache::Entry> e = cache.find(keys[k]);
            // A hit must hand back the exact artifact inserted under
            // that key — an eviction may lose the entry, never mangle
            // it into a neighbor's.
            if (e)
                EXPECT_EQ(e->result.get(), results[k].get());
            break;
          }
          default:
            EXPECT_LE(cache.size(), kCapacity);
            break;
        }
    });

    CompileCache::Stats st = cache.stats();
    EXPECT_LE(cache.size(), kCapacity);
    EXPECT_EQ(st.inserts - st.evictions,
              static_cast<long>(cache.size()));
    EXPECT_EQ(st.lookups, st.hits + st.misses);
    EXPECT_GT(st.inserts, 0);
    EXPECT_GT(st.evictions, 0); // ~134 inserts through 4 slots must evict

    // Whatever survived is intact and findable.
    size_t survivors = 0;
    for (size_t k = 0; k < keys.size(); ++k) {
        std::optional<CompileCache::Entry> e = cache.find(keys[k]);
        if (!e)
            continue;
        ++survivors;
        EXPECT_EQ(e->result.get(), results[k].get());
    }
    EXPECT_EQ(survivors, cache.size());
}

TEST(CompileCache, ConcurrentBudgetedCompilesNeverInsert)
{
    // Budget-armed compiles are wall-clock dependent, so the cache must
    // refuse them even when many workers race through
    // compileThroughCache on the same cell — zero inserts, every call
    // a cold compile, no thread ever served another's deadline-shaped
    // artifact.
    Device dev = makeIbmQ5();
    Calibration calib = dev.calibrate(0);
    Circuit bv = makeBenchmark("BV4");
    CompileOptions opts = baseOptions(OptLevel::OneQOptCN);
    opts.budget = CompileBudget::withDeadlineMs(1e6); // armed, generous

    CompileCache cache;
    std::atomic<int> cold{0};
    forEachIndex(8, 32, [&](int) {
        CachedCompile out =
            compileThroughCache(&cache, bv, dev, 0, calib, opts);
        ASSERT_TRUE(out.result);
        if (out.source == CellSource::Compiled)
            cold.fetch_add(1);
    });

    EXPECT_EQ(cold.load(), 32);
    EXPECT_EQ(cache.size(), 0u);
    CompileCache::Stats st = cache.stats();
    EXPECT_EQ(st.inserts, 0);
    EXPECT_EQ(st.hits, 0);
}

TEST(Sweep, ConcurrentSweepsShareOneCacheSafely)
{
    // Two full sweeps over the same grid run simultaneously against one
    // cache; both must come back complete and identical.
    SweepConfig cfg;
    for (const char *name : {"BV4", "Toffoli", "Fredkin"})
        cfg.programs.push_back({name, makeBenchmark(name)});
    cfg.devices = {makeIbmQ5(), makeUmdTi()};
    cfg.days = {0, 1};
    cfg.levels = {OptLevel::OneQOptCN};
    cfg.options.emitAssembly = false;
    cfg.threads = 2;

    CompileCache cache;
    SweepResult a, b;
    std::thread t1([&] { a = runSweep(cfg, &cache); });
    std::thread t2([&] { b = runSweep(cfg, &cache); });
    t1.join();
    t2.join();

    ASSERT_EQ(a.cells.size(), b.cells.size());
    for (size_t i = 0; i < a.cells.size(); ++i) {
        ASSERT_TRUE(a.cells[i].result && b.cells[i].result);
        EXPECT_EQ(canonicalCompileResultText(*a.cells[i].result),
                  canonicalCompileResultText(*b.cells[i].result));
    }
}

// --- crash-safe journal + resume -----------------------------------------

namespace
{

namespace fs = std::filesystem;

/** Fresh scratch directory, removed on destruction. */
struct JournalDir
{
    fs::path path;

    JournalDir()
    {
        std::string tmpl =
            (fs::temp_directory_path() / "triq_journal_XXXXXX").string();
        char *made = mkdtemp(tmpl.data());
        if (!made)
            throw std::runtime_error("mkdtemp failed");
        path = made;
    }
    ~JournalDir()
    {
        std::error_code ec;
        fs::remove_all(path, ec);
    }
};

/** A grid with skips, cross-day cache hits and drift reuses. */
SweepConfig
journalConfig(const std::string &journal_path)
{
    SweepConfig cfg;
    cfg.programs.push_back({"BV8", makeBenchmark("BV8")}); // skips IBMQ5
    cfg.programs.push_back({"BV4", makeBenchmark("BV4")});
    cfg.programs.push_back({"Toffoli", makeBenchmark("Toffoli")});
    cfg.devices = {makeIbmQ5(), makeIbmQ14()};
    cfg.days = {0, 1, 2};
    cfg.levels = {OptLevel::OneQOptC, OptLevel::OneQOptCN};
    cfg.options.emitAssembly = false;
    cfg.driftThreshold = 0.05;
    cfg.threads = 2;
    cfg.journalPath = journal_path;
    return cfg;
}

/** The deterministic matrix a journaled run renders. */
std::string
matrixOf(const SweepConfig &cfg, const SweepResult &res)
{
    std::ostringstream os;
    writeSweepMatrix(os, cfg, res, nullptr, /*deterministic=*/true);
    return os.str();
}

/** Keep the first `lines` journal lines plus `extra_bytes` of the next
 *  (a torn tail, when extra_bytes > 0). */
void
truncateJournal(const fs::path &p, int lines, int extra_bytes)
{
    std::ifstream in(p, std::ios::binary);
    ASSERT_TRUE(in.good());
    std::string keep, line;
    for (int i = 0; i < lines && std::getline(in, line); ++i)
        keep += line + "\n";
    if (extra_bytes > 0 && std::getline(in, line))
        keep += line.substr(
            0, std::min<size_t>(line.size() - 1,
                                static_cast<size_t>(extra_bytes)));
    std::ofstream out(p, std::ios::binary | std::ios::trunc);
    out << keep;
}

} // namespace

TEST(SweepMatrix, ParsesBackAtFullPrecision)
{
    SweepConfig cfg = journalConfig("");
    CompileCache cache;
    SweepResult res = runSweep(cfg, &cache);

    // The deterministic matrix is one line, and every evaluated cell's
    // ESPs parse back bit-exact.
    std::string matrix = matrixOf(cfg, res);
    EXPECT_EQ(matrix.find('\n'), matrix.size() - 1);
    JsonParseResult det = parseJson(matrix);
    ASSERT_TRUE(det.ok) << det.error;
    const JsonValue *cells = det.value.find("cells");
    ASSERT_TRUE(cells && cells->isArray());
    ASSERT_EQ(cells->array.size(), res.cells.size());
    int evaluated = 0;
    for (size_t i = 0; i < res.cells.size(); ++i) {
        const SweepCell &c = res.cells[i];
        const JsonValue &j = cells->array[i];
        EXPECT_EQ(j.getString("source"), cellSourceName(c.source));
        if (c.source == CellSource::Skipped ||
            c.source == CellSource::Error)
            continue;
        EXPECT_EQ(j.getNumber("esp", -1.0), c.esp);
        EXPECT_EQ(j.getNumber("esp_at_compile", -1.0), c.espAtCompile);
        ++evaluated;
    }
    EXPECT_GT(evaluated, 0);

    // The full matrix adds timings and the cache-counter block.
    CompileCache::Stats cs = cache.stats();
    std::ostringstream os;
    writeSweepMatrix(os, cfg, res, &cs, /*deterministic=*/false);
    JsonParseResult full = parseJson(os.str());
    ASSERT_TRUE(full.ok) << full.error;
    const JsonValue *stats = full.value.find("stats");
    ASSERT_TRUE(stats && stats->isObject());
    EXPECT_EQ(stats->getNumber("wall_ms", -1.0), res.stats.wallMs);
    const JsonValue *counters = full.value.find("cache");
    ASSERT_TRUE(counters && counters->isObject());
    EXPECT_EQ(counters->getNumber("lookups", -1.0),
              static_cast<double>(cs.lookups));
    EXPECT_EQ(counters->getNumber("hits", -1.0),
              static_cast<double>(cs.hits));
}

TEST(SweepJournal, RoundTripsCellsAndArtifacts)
{
    JournalDir dir;
    std::string jp = (dir.path / "cells.jsonl").string();
    SweepConfig cfg = journalConfig(jp);
    CompileCache cache;
    SweepResult res = runSweep(cfg, &cache);

    JournalData jd;
    ASSERT_TRUE(loadSweepJournal(jp, jd));
    EXPECT_EQ(jd.gridFingerprint, sweepGridFingerprint(cfg));
    // Every cell is journaled exactly once (last-wins dedup is a
    // no-op on a clean run).
    EXPECT_EQ(jd.cells.size(), res.cells.size());

    // Restored artifacts are bit-identical to the live ones.
    std::map<uint64_t, const JournalArtifact *> arts;
    for (const JournalArtifact &a : jd.artifacts)
        arts[a.fingerprint.combined()] = &a;
    int compared = 0;
    for (const SweepCell &cell : res.cells) {
        if (!cell.result || cell.source == CellSource::DriftReuse)
            continue;
        auto it = arts.find(cell.fingerprint.combined());
        ASSERT_NE(it, arts.end());
        const CompileResult &a = *it->second->result;
        const CompileResult &b = *cell.result;
        ASSERT_EQ(a.hwCircuit.numGates(), b.hwCircuit.numGates());
        for (int gi = 0; gi < a.hwCircuit.numGates(); ++gi) {
            const Gate &ga = a.hwCircuit.gate(gi);
            const Gate &gb = b.hwCircuit.gate(gi);
            ASSERT_EQ(ga.kind, gb.kind);
            ASSERT_EQ(ga.qubits, gb.qubits);
            for (int k = 0; k < 3; ++k)
                ASSERT_EQ(ga.params[k], gb.params[k])
                    << "gate parameter must round-trip bit-exactly";
        }
        ++compared;
    }
    EXPECT_GT(compared, 0);
}

TEST(SweepJournal, PrefixResumeRendersByteIdenticalMatrix)
{
    JournalDir dir;
    std::string jp = (dir.path / "cells.jsonl").string();
    SweepConfig cfg = journalConfig(jp);

    std::string full_matrix;
    long full_lines = 0;
    {
        CompileCache cache;
        SweepResult res = runSweep(cfg, &cache);
        full_matrix = matrixOf(cfg, res);
        std::ifstream in(jp);
        std::string l;
        while (std::getline(in, l))
            ++full_lines;
    }

    // Chop the journal at several points — including one mid-line torn
    // tail — and resume each time; the matrix must never change.
    for (int keep : {1, 5, static_cast<int>(full_lines) / 2,
                     static_cast<int>(full_lines) - 1}) {
        SCOPED_TRACE("keep=" + std::to_string(keep));
        JournalDir d2;
        std::string jp2 = (d2.path / "cells.jsonl").string();
        fs::copy_file(jp, jp2, fs::copy_options::overwrite_existing);
        truncateJournal(jp2, keep, keep % 2 ? 17 : 0);
        SweepConfig cfg2 = journalConfig(jp2);
        cfg2.resume = true;
        CompileCache cache;
        SweepResult res = runSweep(cfg2, &cache);
        EXPECT_EQ(matrixOf(cfg2, res), full_matrix);
        if (keep > 1) {
            EXPECT_GT(res.stats.restoredCells, 0);
        }
    }
}

TEST(SweepJournal, ResumedJournalIsItselfResumable)
{
    // Kill -> resume -> kill -> resume: the appended journal must stay
    // loadable and complete.
    JournalDir dir;
    std::string jp = (dir.path / "cells.jsonl").string();
    SweepConfig cfg = journalConfig(jp);
    std::string full_matrix;
    {
        CompileCache cache;
        full_matrix = matrixOf(cfg, runSweep(cfg, &cache));
    }
    truncateJournal(jp, 6, 0);
    SweepConfig cfg2 = journalConfig(jp);
    cfg2.resume = true;
    {
        CompileCache cache;
        runSweep(cfg2, &cache);
    }
    truncateJournal(jp, 20, 0);
    {
        CompileCache cache;
        SweepResult res = runSweep(cfg2, &cache);
        EXPECT_EQ(matrixOf(cfg2, res), full_matrix);
    }
}

TEST(SweepJournal, ResumeRefusesForeignGrid)
{
    JournalDir dir;
    std::string jp = (dir.path / "cells.jsonl").string();
    SweepConfig cfg = journalConfig(jp);
    {
        CompileCache cache;
        runSweep(cfg, &cache);
    }
    // A different drift threshold is a different grid.
    SweepConfig other = journalConfig(jp);
    other.driftThreshold = 0.25;
    other.resume = true;
    CompileCache cache;
    EXPECT_THROW(runSweep(other, &cache), FatalError);
}

TEST(SweepJournal, CorruptArtifactLineIsRecomputed)
{
    // A journaled compiled cell whose artifact record is corrupt
    // mid-file has nothing to restore: it is recomputed, with a warning,
    // and the matrix matches the uninterrupted run's byte for byte.
    JournalDir dir;
    std::string jp = (dir.path / "cells.jsonl").string();
    SweepConfig cfg;
    cfg.programs.push_back({"BV4", makeBenchmark("BV4")});
    cfg.programs.push_back({"Toffoli", makeBenchmark("Toffoli")});
    cfg.devices = {makeIbmQ5()};
    cfg.days = {0, 1};
    cfg.levels = {OptLevel::OneQOptC};
    cfg.options.emitAssembly = false;
    cfg.journalPath = jp;
    std::string full_matrix;
    {
        CompileCache cache;
        full_matrix = matrixOf(cfg, runSweep(cfg, &cache));
    }

    // Cut the first artifact record to 30 bytes, keeping every line.
    std::string journal;
    {
        std::ifstream in(jp, std::ios::binary);
        std::string line;
        bool cut = false;
        while (std::getline(in, line)) {
            if (!cut && line.find("\"artifact\"") != std::string::npos) {
                line.resize(30);
                cut = true;
            }
            journal += line + "\n";
        }
        ASSERT_TRUE(cut);
    }
    std::ofstream(jp, std::ios::binary | std::ios::trunc) << journal;

    SweepConfig resumed = cfg;
    resumed.resume = true;
    CompileCache cache;
    testing::internal::CaptureStderr();
    SweepResult res = runSweep(resumed, &cache);
    std::string err = testing::internal::GetCapturedStderr();
    EXPECT_NE(err.find("did not load"), std::string::npos) << err;
    EXPECT_EQ(matrixOf(resumed, res), full_matrix);
    // Both BV4 cells share the lost artifact (level c compiles day 1
    // as a cache hit of day 0); the two Toffoli cells are restored.
    EXPECT_EQ(res.stats.restoredCells, 2);
}

TEST(SweepJournal, MissingJournalResumesFresh)
{
    JournalDir dir;
    std::string jp = (dir.path / "absent.jsonl").string();
    SweepConfig cfg = journalConfig(jp);
    cfg.resume = true;
    CompileCache cache;
    SweepResult res = runSweep(cfg, &cache);
    EXPECT_EQ(res.stats.restoredCells, 0);
    JournalData jd;
    EXPECT_TRUE(loadSweepJournal(jp, jd));
    EXPECT_EQ(jd.cells.size(), res.cells.size());
}

TEST(SweepJournal, GridFingerprintSeesEveryDimension)
{
    SweepConfig base = journalConfig("");
    uint64_t fp = sweepGridFingerprint(base);

    SweepConfig c1 = base;
    c1.programs.pop_back();
    EXPECT_NE(sweepGridFingerprint(c1), fp);
    SweepConfig c2 = base;
    c2.days.push_back(7);
    EXPECT_NE(sweepGridFingerprint(c2), fp);
    SweepConfig c3 = base;
    c3.levels = {OptLevel::OneQOptCN};
    EXPECT_NE(sweepGridFingerprint(c3), fp);
    SweepConfig c4 = base;
    c4.driftThreshold = 0.2;
    EXPECT_NE(sweepGridFingerprint(c4), fp);
    SweepConfig c5 = base;
    c5.useCache = false;
    EXPECT_NE(sweepGridFingerprint(c5), fp);
    // Thread count is deliberately NOT part of the grid: results are
    // thread-independent, so a resume may use a different fan-out.
    SweepConfig c6 = base;
    c6.threads = 7;
    EXPECT_EQ(sweepGridFingerprint(c6), fp);
}

// --- golden sweeps -------------------------------------------------------
//
// Three grids pinned bit for bit: the FNV-1a of the deterministic
// matrix, the grid fingerprint a journal header carries, and every
// integer counter. A change to how a cell is resolved, keyed or
// counted moves at least one of them.

namespace
{

std::string
hex16(uint64_t v)
{
    char buf[17];
    std::snprintf(buf, sizeof(buf), "%016llx",
                  static_cast<unsigned long long>(v));
    return buf;
}

/** Every integer SweepStats counter, as "name=value" words. */
std::string
integerStats(const SweepStats &st)
{
    std::ostringstream os;
    os << "cells=" << st.cells << " skipped=" << st.skipped
       << " errors=" << st.errors << " compiles=" << st.compiles
       << " hits=" << st.cacheHits << " drift_reuses=" << st.driftReuses
       << " drift_recompiles=" << st.driftRecompiles
       << " restored=" << st.restoredCells
       << " nodes=" << st.mapperNodes
       << " bound=" << st.mapperBoundPruned
       << " symmetry=" << st.mapperSymmetryPruned
       << " dominance=" << st.mapperDominancePruned
       << " fallbacks=" << st.mapperFallbacks
       << " warm=" << st.mapperWarmStarts << " threads=" << st.threads;
    return os.str();
}

/**
 * Run `cfg` on a fresh cache and compare it with the pinned values.
 * Every evaluated cell's key must also be the one fingerprintCompile
 * gives the cell on its own.
 */
void
expectGoldenSweep(const SweepConfig &cfg, const std::string &matrix_fnv,
                  const std::string &grid_fp, const std::string &stats)
{
    CompileCache cache;
    SweepResult res = runSweep(cfg, &cache);
    EXPECT_EQ(hex16(Fnv1a().str(matrixOf(cfg, res)).value()), matrix_fnv);
    EXPECT_EQ(hex16(sweepGridFingerprint(cfg)), grid_fp);
    EXPECT_EQ(integerStats(res.stats), stats);
    for (const SweepCell &cell : res.cells) {
        if (cell.source == CellSource::Skipped)
            continue;
        const Device &dev = cfg.devices[cell.deviceIndex];
        CompileOptions opts = cfg.options;
        opts.level = cell.level;
        Circuit lowered =
            decomposeToCnotBasis(cfg.programs[cell.programIndex].circuit,
                                 dev.gateSet().nativeCphase);
        EXPECT_TRUE(cell.fingerprint ==
                    fingerprintCompile(lowered, dev,
                                       dev.calibrate(cell.day), opts))
            << cfg.programs[cell.programIndex].name << " on "
            << dev.name() << " day " << cell.day;
    }
}

} // namespace

TEST(GoldenSweep, JournalGridWithDrift)
{
    expectGoldenSweep(
        journalConfig(""), "95d1644fdc6f0667", "4ffbede1bb661a1c",
        "cells=30 skipped=6 errors=0 compiles=13 hits=10 drift_reuses=7 "
        "drift_recompiles=3 restored=0 nodes=159 bound=1514 symmetry=4 "
        "dominance=0 fallbacks=0 warm=3 threads=2");
}

TEST(GoldenSweep, JournalGridWithoutDrift)
{
    SweepConfig cfg = journalConfig("");
    cfg.driftThreshold = SweepConfig().driftThreshold; // off by default
    expectGoldenSweep(
        cfg, "c1f1ea2075d67a99", "7347b20012a56efc",
        "cells=30 skipped=6 errors=0 compiles=20 hits=10 drift_reuses=0 "
        "drift_recompiles=0 restored=0 nodes=334 bound=3318 symmetry=4 "
        "dominance=0 fallbacks=0 warm=0 threads=2");
}

TEST(GoldenSweep, StudyGridWithDrift)
{
    SweepConfig cfg;
    for (const std::string &name : benchmarkNames())
        cfg.programs.push_back({name, makeBenchmark(name)});
    cfg.devices = allStudyDevices();
    cfg.days = {0, 1, 2, 3};
    cfg.levels = {OptLevel::N, OptLevel::OneQOpt, OptLevel::OneQOptC,
                  OptLevel::OneQOptCN};
    cfg.options.emitAssembly = false;
    cfg.driftThreshold = 0.05;
    cfg.threads = 1;
    expectGoldenSweep(
        cfg, "9b6e76db240f436d", "360abd70ba1faee8",
        "cells=1200 skipped=144 errors=0 compiles=414 hits=675 "
        "drift_reuses=111 drift_recompiles=114 restored=0 nodes=5813 "
        "bound=67634 symmetry=56 dominance=0 fallbacks=150 warm=114 "
        "threads=1");
}

// --- real-binary kill + resume -------------------------------------------
//
// Drives the actual triq-sweep tool. A SIGKILL can only leave a prefix
// of whole journal records plus at most one torn tail line, so the
// test builds that state from a completed journal, resumes it, and
// requires a mid-grid restore and a matrix byte-identical to the
// uninterrupted run's.

#ifdef TRIQ_SWEEP_PATH

namespace
{

std::string
slurpFile(const fs::path &p)
{
    std::ifstream in(p, std::ios::binary);
    std::ostringstream ss;
    ss << in.rdbuf();
    return ss.str();
}

long
journalLines(const fs::path &p)
{
    std::ifstream in(p);
    std::string l;
    long n = 0;
    while (std::getline(in, l))
        ++n;
    return n;
}

} // namespace

TEST(SweepJournalCli, KilledSweepResumesByteIdentical)
{
    JournalDir dir;
    fs::path manifest = dir.path / "grid.txt";
    {
        std::ofstream m(manifest);
        m << "program BV4 BV8 Toffoli QFT Adder\n"
             "device IBMQ14 UMDTI\n"
             "days 0..5\n"
             "level c cn\n"
             "drift 0.05\n"
             "threads 2\n";
    }

    fs::path full_json = dir.path / "full.json";
    fs::path full_journal = dir.path / "full.jsonl";
    std::string base = std::string(TRIQ_SWEEP_PATH) + " --manifest " +
                       manifest.string();
    int rc = std::system((base + " --journal " + full_journal.string() +
                          " -o " + full_json.string() + " 2>/dev/null")
                             .c_str());
    ASSERT_EQ(rc, 0);
    std::string full_matrix = slurpFile(full_json);
    JsonParseResult full = parseJson(full_matrix);
    ASSERT_TRUE(full.ok) << full.error;
    const size_t grid_cells = full.value.find("cells")->array.size();

    // What a kill leaves: half of the records (past the skipped cells
    // journaled first) and 40 bytes of the next one.
    fs::path killed_journal = dir.path / "killed.jsonl";
    fs::copy_file(full_journal, killed_journal);
    truncateJournal(killed_journal,
                    static_cast<int>(journalLines(full_journal) / 2), 40);

    fs::path resumed_json = dir.path / "resumed.json";
    fs::path resume_err = dir.path / "resume.err";
    rc = std::system((base + " --journal " + killed_journal.string() +
                      " --resume -o " + resumed_json.string() + " 2> " +
                      resume_err.string())
                         .c_str());
    ASSERT_EQ(rc, 0);
    std::string err = slurpFile(resume_err);
    const size_t at = err.find(" cell(s) restored");
    ASSERT_NE(at, std::string::npos) << err;
    const size_t num_start = err.find_last_of(' ', at - 1) + 1;
    const size_t restored = std::stoul(err.substr(num_start, at - num_start));
    EXPECT_GE(restored, 1u) << err;
    EXPECT_LT(restored, grid_cells) << err;
    EXPECT_EQ(slurpFile(resumed_json), full_matrix);
}

#endif // TRIQ_SWEEP_PATH
