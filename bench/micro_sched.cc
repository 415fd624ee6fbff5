/**
 * @file
 * Adaptive-scheduler microbenchmark: times every scheduler consumer in
 * its three modes — forced serial, forced threaded, adaptive
 * (cost-model) — and emits BENCH_sched.json so CI can hold the
 * scheduler to its contract: adaptive must never lose to serial.
 *
 * Rows:
 *   - every fig07 study benchmark, noisy-executed on IBMQ14 (the
 *     trial-batch consumer; small circuits must stay serial);
 *   - fig13-style supremacy circuits on 6- and 12-qubit grids (the
 *     large-sim end of the range; bigger grids belong to fig13's
 *     compile-only study);
 *   - a cold and a warm sweep of the study benchmarks on IBMQ14 (the
 *     per-day compile fan-out consumer; the warm sweep is all cache
 *     hits and must stay serial).
 *
 * Timing protocol: modes are interleaved with the order rotated every
 * repetition (a fixed order biases whichever mode runs after the
 * threaded one wakes the pool workers), and each mode keeps its
 * minimum over --reps repetitions, so one-time effects (pool spawn,
 * allocator warm-up) and scheduler noise cannot bias a single mode.
 *
 * The gate: adaptive_speedup = serial_ms / adaptive_ms must be >=
 * --tolerance (default 0.90) on every row, OR the absolute loss
 * adaptive_ms - serial_ms must be under --noise-floor-ms (default
 * 1.0). When the model correctly picks serial the two runs execute
 * identical code, so the ratio is 1.0 +- timer noise — a strict
 * >= 1.0 gate would flake on every other run (measured spread on a
 * shared-CPU box: +-8% even at min-over-5-reps), and the
 * sub-millisecond rows exceed any relative tolerance on pure jitter,
 * hence both bounds; a genuine mis-scheduling (threading a job that
 * loses) costs far more than 10%. Exit codes: 4 when any mode
 * disagrees with serial results (determinism breach), 6 when the gate
 * fails, 0 otherwise.
 *
 * Usage:
 *   micro_sched [--trials N] [--reps N] [--tolerance X]
 *               [--noise-floor-ms X] [--json FILE]
 */

#include <algorithm>
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
#include "workloads/benchmarks.hh"
#include "workloads/supremacy.hh"

using namespace triq;

namespace
{

using Clock = std::chrono::steady_clock;

double
msSince(Clock::time_point t0)
{
    return std::chrono::duration<double, std::milli>(Clock::now() - t0)
        .count();
}

/** One benchmark row: min-over-reps per mode plus the adaptive plan. */
struct Row
{
    std::string name;
    std::string kind; //!< "sim" or "sweep".
    int items = 0;    //!< Trials (sim) or grid cells (sweep).
    double serialMs = 0.0;
    double threadedMs = 0.0;
    double adaptiveMs = 0.0;
    bool identical = true;

    // The adaptive run's recorded decision.
    std::string mode;
    int threads = 1;
    int itemsPerTask = 1;
    int tasks = 0;
    double predictedMs = 0.0;
    double actualMs = 0.0;

    double
    adaptiveSpeedup() const
    {
        return adaptiveMs > 0.0 ? serialMs / adaptiveMs : 0.0;
    }

    double
    threadSpeedup() const
    {
        return threadedMs > 0.0 ? serialMs / threadedMs : 0.0;
    }
};

void
writeRow(JsonWriter &w, const Row &r)
{
    w.beginObject();
    w.key("name").value(r.name).key("kind").value(r.kind);
    w.key("items").value(r.items);
    w.key("serial_ms").value(r.serialMs);
    w.key("threaded_ms").value(r.threadedMs);
    w.key("adaptive_ms").value(r.adaptiveMs);
    w.key("adaptive_speedup").value(r.adaptiveSpeedup());
    w.key("thread_speedup").value(r.threadSpeedup());
    w.key("adaptive_mode").value(r.mode);
    w.key("threads").value(r.threads);
    w.key("items_per_task").value(r.itemsPerTask).key("tasks").value(r.tasks);
    w.key("predicted_ms").value(r.predictedMs);
    w.key("actual_ms").value(r.actualMs);
    w.key("identical").value(r.identical);
    w.endObject();
}

/** Time executeNoisy in the three modes, interleaved, min over reps. */
Row
simRow(const std::string &name, const Circuit &hw, const Device &dev,
       const Calibration &calib, int trials, int reps, int threads)
{
    Row row;
    row.name = name;
    row.kind = "sim";
    row.items = trials;

    ExecOptions mode_opts[3];
    mode_opts[0].threads = 1;        // forced serial
    mode_opts[1].threads = threads;  // forced threaded
    mode_opts[2].threads = -1;       // adaptive
    double *mode_ms[3] = {&row.serialMs, &row.threadedMs,
                          &row.adaptiveMs};

    ExecutionResult baseline;
    for (int m = 0; m < 3; ++m) {
        // Untimed warm-up: pool spawn, calibration, allocator.
        ExecutionResult r =
            executeNoisy(hw, dev, calib, trials, 12345, mode_opts[m]);
        if (m == 0) {
            baseline = std::move(r);
        } else if (r.histogram != baseline.histogram ||
                   r.successRate != baseline.successRate) {
            row.identical = false;
        }
    }
    for (int rep = 0; rep < reps; ++rep)
        for (int k = 0; k < 3; ++k) {
            int m = (rep + k) % 3; // rotate the order (see header)
            auto t0 = Clock::now();
            ExecutionResult r =
                executeNoisy(hw, dev, calib, trials, 12345, mode_opts[m]);
            double ms = msSince(t0);
            if (rep == 0 || ms < *mode_ms[m])
                *mode_ms[m] = ms;
            if (m == 2) {
                row.mode = r.sched.mode();
                row.threads = r.sched.threads;
                row.itemsPerTask = r.sched.itemsPerTask;
                row.tasks = r.sched.tasks;
                row.predictedMs = r.sched.predictedMs;
                row.actualMs = r.sched.actualMs;
            }
            if (r.histogram != baseline.histogram)
                row.identical = false;
        }
    return row;
}

/** Time runSweep in the three modes; cold = fresh cache per run. */
Row
sweepRow(const std::string &name, const SweepConfig &base, int reps,
         int threads, bool warm)
{
    Row row;
    row.name = name;
    row.kind = "sweep";

    int mode_threads[3] = {1, threads, -1};
    double *mode_ms[3] = {&row.serialMs, &row.threadedMs,
                          &row.adaptiveMs};

    // Warm mode keeps one pre-filled cache per mode; cold uses a fresh
    // cache for every timed run.
    std::vector<std::unique_ptr<CompileCache>> warm_caches;
    if (warm)
        for (int m = 0; m < 3; ++m) {
            warm_caches.push_back(std::make_unique<CompileCache>());
            SweepConfig cfg = base;
            cfg.threads = mode_threads[m];
            runSweep(cfg, warm_caches[m].get());
        }

    std::vector<double> esp_baseline;
    for (int rep = 0; rep < reps; ++rep)
        for (int k = 0; k < 3; ++k) {
            int m = (rep + k) % 3; // rotate the order (see header)
            SweepConfig cfg = base;
            cfg.threads = mode_threads[m];
            std::unique_ptr<CompileCache> cold_cache;
            if (!warm)
                cold_cache = std::make_unique<CompileCache>();
            CompileCache *cache =
                warm ? warm_caches[m].get() : cold_cache.get();
            auto t0 = Clock::now();
            SweepResult res = runSweep(cfg, cache);
            double ms = msSince(t0);
            if (rep == 0 || ms < *mode_ms[m])
                *mode_ms[m] = ms;
            row.items = res.stats.cells;
            if (m == 2) {
                row.mode = res.stats.schedMode;
                row.threads = res.stats.threads;
                row.itemsPerTask = res.stats.schedItemsPerTask;
                row.tasks = res.stats.schedTasks;
                row.predictedMs = res.stats.schedPredictedMs;
                row.actualMs = res.stats.schedActualMs;
            }
            // The scheduler must never change what is computed.
            std::vector<double> esps;
            for (const SweepCell &c : res.cells)
                esps.push_back(c.esp);
            if (rep == 0 && m == 0)
                esp_baseline = std::move(esps);
            else if (esps != esp_baseline)
                row.identical = false;
        }
    return row;
}

} // namespace

int
main(int argc, char **argv)
try {
    int trials = defaultTrials(1000);
    int reps = 5;
    double tolerance = 0.90;
    double noise_floor_ms = 1.0;
    std::string json_file;
    for (int i = 1; i < argc; ++i) {
        if (!std::strcmp(argv[i], "--trials"))
            trials = flagValue("--trials", bench::flagArg(argc, argv, i), 1);
        else if (!std::strcmp(argv[i], "--reps"))
            reps = flagValue("--reps", bench::flagArg(argc, argv, i), 1);
        else if (!std::strcmp(argv[i], "--tolerance"))
            tolerance =
                flagValue("--tolerance", bench::flagArg(argc, argv, i), 0.0);
        else if (!std::strcmp(argv[i], "--noise-floor-ms"))
            noise_floor_ms = flagValue("--noise-floor-ms",
                                       bench::flagArg(argc, argv, i), 0.0);
        else if (!std::strcmp(argv[i], "--json"))
            json_file = bench::flagArg(argc, argv, i);
        else
            fatal("micro_sched: unknown argument '", argv[i], "'");
    }

    const SchedCalib &calib_model = schedCalib(); // measure up front
    const int threads = std::max(2, ThreadPool::hardwareThreads());
    std::vector<Row> rows;

    // --- fig07 study benchmarks on IBMQ14 (trial-batch consumer).
    Device dev = bench::deviceByName("IBMQ14");
    int day = bench::defaultDay();
    Calibration calib = dev.calibrate(day);
    bench::forEachStudyBenchmark(
        dev, [&](const std::string &name, const Circuit &program) {
            CompileResult compiled = bench::compileTriq(
                program, dev, OptLevel::OneQOptCN, day);
            rows.push_back(simRow(name, compiled.hwCircuit, dev, calib,
                                  trials, reps, threads));
        });

    // --- fig13-style supremacy circuits (large-sim rows). Trials are
    // scaled down: each faulty trajectory replays hundreds of gates on
    // thousands of amplitudes, so a fraction of the fig07 trial count
    // already dominates the fig07 rows' total work.
    struct SupConfig
    {
        int rows, cols, depth;
    };
    const SupConfig sup_configs[] = {{2, 3, 16}, {3, 4, 24}};
    int sup_trials = std::max(32, trials / 8);
    for (const auto &cfg : sup_configs) {
        int n = cfg.rows * cfg.cols;
        Device grid("Grid" + std::to_string(n),
                    Topology::grid(cfg.rows, cfg.cols), GateSet::ibm(),
                    dev.noiseSpec());
        Calibration gcal = grid.calibrate(1);
        Circuit program =
            makeSupremacy(cfg.rows, cfg.cols, cfg.depth, 1);
        CompileOptions copts;
        copts.level = OptLevel::OneQOptCN;
        copts.mapping.kind = MapperKind::Greedy;
        copts.emitAssembly = false;
        CompileResult compiled =
            compileForDevice(program, grid, gcal, copts);
        rows.push_back(simRow("Supremacy" + std::to_string(n) + "d" +
                                  std::to_string(cfg.depth),
                              compiled.hwCircuit, grid, gcal, sup_trials,
                              reps, threads));
    }

    // --- sweep fan-out rows: the study grid on IBMQ14, two days, both
    // levels. Cold compiles everything; warm must be all cache hits
    // (near-zero work — the scheduler has to keep it serial).
    SweepConfig sweep_cfg;
    for (const std::string &name : benchmarkNames())
        sweep_cfg.programs.push_back({name, makeBenchmark(name)});
    sweep_cfg.devices = {dev};
    sweep_cfg.days = {0, 1};
    sweep_cfg.levels = {OptLevel::OneQOptC, OptLevel::OneQOptCN};
    sweep_cfg.options.emitAssembly = false;
    sweep_cfg.driftThreshold = -1.0;
    rows.push_back(
        sweepRow("sweep_cold", sweep_cfg, reps, threads, false));
    rows.push_back(
        sweepRow("sweep_warm", sweep_cfg, reps, threads, true));

    // --- the gate.
    bool identical = true;
    bool gate_ok = true;
    for (const Row &r : rows) {
        identical = identical && r.identical;
        if (r.adaptiveSpeedup() < tolerance &&
            r.adaptiveMs - r.serialMs > noise_floor_ms) {
            gate_ok = false;
            std::cerr << "micro_sched: GATE " << r.name
                      << ": adaptive_speedup " << r.adaptiveSpeedup()
                      << " < tolerance " << tolerance
                      << " and the loss exceeds the noise floor (serial "
                      << r.serialMs << " ms, adaptive " << r.adaptiveMs
                      << " ms, chose " << r.mode << ")\n";
        }
    }

    JsonWriter w;
    w.beginObject();
    w.key("calib").value(schedCalibString(calib_model));
    w.key("hardware_threads").value(ThreadPool::hardwareThreads());
    w.key("forced_threads").value(threads);
    w.key("trials").value(trials).key("reps").value(reps);
    w.key("tolerance").value(tolerance);
    w.key("noise_floor_ms").value(noise_floor_ms);
    w.key("rows").beginArray();
    for (const Row &r : rows)
        writeRow(w, r);
    w.endArray();
    w.key("identical_across_modes").value(identical);
    w.key("gate_pass").value(gate_ok);
    w.endObject();
    bench::writeReport("micro_sched", w, json_file);
    if (!identical)
        return 4;
    if (!gate_ok)
        return 6;
    return 0;
} catch (const FatalError &) {
    return 1;
}
