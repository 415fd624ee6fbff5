/**
 * @file
 * Sweep-engine microbenchmark: runs a fig12-style grid (every study
 * benchmark x every study machine x the C and CN levels x a few
 * calibration days) through four configurations —
 *
 *   cold_serial   cache off, one thread (the pre-engine baseline:
 *                 every cell compiles from scratch);
 *   engine_cold   fresh cache, pooled workers (first sweep: the cache
 *                 fills, within-run dedup already saves work);
 *   warm          the same sweep again on the filled cache (every cell
 *                 must be an exact-fingerprint hit);
 *   drift_replay  fresh cache with a drift threshold: new days reuse
 *                 stale CN artifacts within the threshold and
 *                 recompile past it —
 *
 * and emits BENCH_sweep.json with wall clocks, the warm-vs-cold-serial
 * speedup, hit rates and drift counters.
 *
 * The run doubles as the acceptance check for the determinism
 * contract: every warm cache hit's canonical artifact text
 * (core/fingerprint.hh) must be byte-identical to the cold serial
 * compile of the same cell, and the engine-cold pass (parallel,
 * deduped) must match cold serial cell for cell. The process exits 4
 * on any mismatch and 5 when the warm sweep compiled anything.
 *
 * Usage:
 *   micro_sweep [--days N] [--threads N] [--drift T] [--reps N]
 *               [--json FILE]
 */

#include <chrono>
#include <cstring>
#include <iostream>
#include <string>
#include <vector>

#include "bench_util.hh"
#include "common/env.hh"
#include "common/logging.hh"
#include "common/sched.hh"
#include "common/thread_pool.hh"
#include "core/fingerprint.hh"
#include "service/sweep.hh"
#include "workloads/benchmarks.hh"

using namespace triq;

namespace
{

const char *
levelToken(OptLevel level)
{
    return level == OptLevel::OneQOptC ? "c" : "cn";
}

} // namespace

int
main(int argc, char **argv)
try {
    int days = 2;
    int threads = std::max(2, ThreadPool::hardwareThreads());
    int reps = 3;
    double drift = 0.05;
    std::string json_file;
    for (int i = 1; i < argc; ++i) {
        if (!std::strcmp(argv[i], "--days"))
            days = flagValue("--days", bench::flagArg(argc, argv, i), 1);
        else if (!std::strcmp(argv[i], "--threads"))
            threads = flagValue(
                "--threads", bench::flagArg(argc, argv, i), 1, kMaxThreads);
        else if (!std::strcmp(argv[i], "--drift"))
            drift = flagValue("--drift", bench::flagArg(argc, argv, i),
                              0.0, 1.0);
        else if (!std::strcmp(argv[i], "--reps"))
            reps = flagValue("--reps", bench::flagArg(argc, argv, i), 1);
        else if (!std::strcmp(argv[i], "--json"))
            json_file = bench::flagArg(argc, argv, i);
        else
            fatal("micro_sweep: unknown argument '", argv[i], "'");
    }

    // The fig12 grid: every study benchmark on every study machine at
    // the communication-optimized and noise-adaptive levels.
    SweepConfig cfg;
    for (const std::string &name : benchmarkNames())
        cfg.programs.push_back({name, makeBenchmark(name)});
    cfg.devices = allStudyDevices();
    for (int d = 0; d < days; ++d)
        cfg.days.push_back(d);
    cfg.levels = {OptLevel::OneQOptC, OptLevel::OneQOptCN};
    cfg.options.emitAssembly = false;
    cfg.threads = threads;

    auto sweepMs = [&](const SweepConfig &c, CompileCache *cache,
                       SweepResult *out) {
        auto t0 = std::chrono::steady_clock::now();
        SweepResult r = runSweep(c, cache);
        auto t1 = std::chrono::steady_clock::now();
        if (out)
            *out = std::move(r);
        return std::chrono::duration<double, std::milli>(t1 - t0)
            .count();
    };

    // --- cold serial: the pre-engine baseline and the identity oracle.
    SweepConfig serial = cfg;
    serial.useCache = false;
    serial.threads = 1;
    SweepResult cold;
    double cold_serial_ms = sweepMs(serial, nullptr, &cold);
    for (int rep = 1; rep < reps; ++rep)
        cold_serial_ms =
            std::min(cold_serial_ms, sweepMs(serial, nullptr, nullptr));
    std::vector<std::string> oracle(cold.cells.size());
    for (size_t i = 0; i < cold.cells.size(); ++i)
        if (cold.cells[i].result)
            oracle[i] = canonicalCompileResultText(*cold.cells[i].result);

    // --- engine cold + warm on one cache.
    CompileCache cache;
    SweepResult engine_cold, warm;
    double engine_cold_ms = sweepMs(cfg, &cache, &engine_cold);
    double warm_ms = sweepMs(cfg, &cache, &warm);
    for (int rep = 1; rep < reps; ++rep)
        warm_ms = std::min(warm_ms, sweepMs(cfg, &cache, nullptr));

    // Identity: parallel/deduped/warm artifacts must match cold serial
    // byte for byte, cell for cell.
    int mismatches = 0;
    auto checkIdentity = [&](const SweepResult &res, const char *pass) {
        for (size_t i = 0; i < res.cells.size(); ++i) {
            const SweepCell &c = res.cells[i];
            if (c.source == CellSource::Skipped)
                continue;
            if (canonicalCompileResultText(*c.result) != oracle[i]) {
                ++mismatches;
                std::cerr << "micro_sweep: " << pass << " cell "
                          << cfg.programs[c.programIndex].name << "/"
                          << cfg.devices[c.deviceIndex].name() << "/day"
                          << c.day << "/" << levelToken(c.level)
                          << " differs from cold serial\n";
            }
        }
    };
    checkIdentity(engine_cold, "engine_cold");
    checkIdentity(warm, "warm");
    int warm_compiles = warm.stats.compiles;

    // --- drift replay: fresh cache, day-by-day with a threshold.
    SweepConfig driftCfg = cfg;
    driftCfg.driftThreshold = drift;
    CompileCache drift_cache;
    SweepResult replay;
    double drift_ms = sweepMs(driftCfg, &drift_cache, &replay);
    CompileCache::Stats ds = drift_cache.stats();

    double speedup =
        warm_ms > 0.0 ? cold_serial_ms / warm_ms : 0.0;
    double hit_rate =
        warm.stats.cells > 0
            ? double(warm.stats.cacheHits) / warm.stats.cells
            : 0.0;

    JsonWriter w;
    w.beginObject();
    w.key("grid").beginObject();
    w.key("programs").value(cfg.programs.size());
    w.key("devices").value(cfg.devices.size());
    w.key("days").value(days).key("levels").value(2);
    w.key("cells").value(cold.stats.cells);
    w.key("skipped").value(cold.stats.skipped);
    w.endObject();
    w.key("threads").value(threads).key("reps").value(reps);
    w.key("cold_serial_ms").value(cold_serial_ms);
    w.key("engine_cold_ms").value(engine_cold_ms);
    w.key("warm_ms").value(warm_ms);
    w.key("drift_replay_ms").value(drift_ms);
    w.key("engine_cold_compiles").value(engine_cold.stats.compiles);
    w.key("engine_cold_cache_hits").value(engine_cold.stats.cacheHits);
    w.key("warm_compiles").value(warm_compiles);
    w.key("warm_hit_rate").value(hit_rate);
    w.key("speedup_warm_vs_cold_serial").value(speedup);
    w.key("speedup_engine_cold_vs_cold_serial")
        .value(engine_cold_ms > 0.0 ? cold_serial_ms / engine_cold_ms
                                    : 0.0);
    w.key("drift").beginObject();
    w.key("threshold").value(drift);
    w.key("compiles").value(replay.stats.compiles);
    w.key("reuses").value(replay.stats.driftReuses);
    w.key("recompiles").value(replay.stats.driftRecompiles);
    w.key("checks").value(ds.driftChecks);
    w.key("invalidations").value(ds.driftInvalidations);
    w.endObject();
    w.key("identical").value(mismatches == 0);
    w.endObject();
    bench::writeReport("micro_sweep", w, json_file);
    if (mismatches > 0)
        return 4;
    if (warm_compiles > 0)
        return 5;
    return 0;
} catch (const FatalError &e) {
    std::cerr << "fatal: " << e.what() << "\n";
    return 1;
} catch (const PanicError &e) {
    std::cerr << "panic: " << e.what() << "\n";
    return 2;
}
