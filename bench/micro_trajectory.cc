/**
 * @file
 * Trajectory-engine microbenchmark: measures executeNoisy throughput
 * (trials/sec) on fig07-style compiled workloads in three
 * configurations — serial without prefix checkpointing, serial with
 * it, and multi-threaded trajectories — and emits one JSON object
 * with a row per benchmark so CI can track the simulator's
 * performance trajectory across PRs. The default row set (BV8, QFT,
 * Adder) spans the study's width range: BV8 is wide and shallow, QFT
 * and Adder are narrow and gate-dense, which is where checkpointing
 * and threading trade places. --wide appends 20-24-qubit GHZ
 * round-trip and QFT rows compiled onto the Google72 grid, where each
 * replay is a pass over megabytes of amplitudes.
 *
 * The run doubles as a determinism check: all three configurations
 * must produce bit-identical results per row, and the JSON records
 * whether they did (exit 4 when they do not).
 *
 * Usage:
 *   micro_trajectory [--bench NAME]... [--device NAME] [--trials N]
 *                    [--threads N] [--wide] [--json FILE]
 *
 * --bench may be repeated; when given, only the named benchmarks run.
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
#include "workloads/benchmarks.hh"

using namespace triq;

namespace
{

double
runMs(const Circuit &hw, const Device &dev, const Calibration &calib,
      int trials, const ExecOptions &opts, ExecutionResult *out)
{
    auto t0 = std::chrono::steady_clock::now();
    ExecutionResult r = executeNoisy(hw, dev, calib, trials, 12345, opts);
    auto t1 = std::chrono::steady_clock::now();
    if (out)
        *out = std::move(r);
    return std::chrono::duration<double, std::milli>(t1 - t0).count();
}

double
trialsPerSec(int trials, double ms)
{
    return ms > 0.0 ? 1000.0 * trials / ms : 0.0;
}

} // namespace

int
main(int argc, char **argv)
try {
    std::vector<std::string> bench_names;
    std::string device_name = "IBMQ14";
    std::string json_file;
    int trials = bench::defaultTrials(2000);
    int threads = std::max(2, ThreadPool::hardwareThreads());
    bool wide = false;
    for (int i = 1; i < argc; ++i) {
        if (!std::strcmp(argv[i], "--bench"))
            bench_names.push_back(bench::flagArg(argc, argv, i));
        else if (!std::strcmp(argv[i], "--device"))
            device_name = bench::flagArg(argc, argv, i);
        else if (!std::strcmp(argv[i], "--trials"))
            trials = flagValue("--trials", bench::flagArg(argc, argv, i), 1);
        else if (!std::strcmp(argv[i], "--threads"))
            threads = flagValue(
                "--threads", bench::flagArg(argc, argv, i), 1, kMaxThreads);
        else if (!std::strcmp(argv[i], "--wide"))
            wide = true;
        else if (!std::strcmp(argv[i], "--json"))
            json_file = bench::flagArg(argc, argv, i);
        else
            fatal("micro_trajectory: unknown argument '", argv[i], "'");
    }
    if (bench_names.empty())
        bench_names = {"BV8", "QFT", "Adder"};

    Device dev = deviceByName(device_name);
    int day = bench::defaultDay();
    Calibration calib = dev.calibrate(day);

    // One compiled row per benchmark. Wide rows ride on the Google72
    // grid with the greedy mapper (B&B search over 72 qubits is a
    // mapper benchmark, not a simulator one) and a reduced trial
    // count: each faulty 20-24-qubit trajectory replays hundreds of
    // gates over megabytes of amplitudes, so a fraction of the
    // default trial count already dominates the narrow rows' work.
    struct RowSpec
    {
        std::string name;
        Circuit hw;
        Device dev;
        Calibration calib;
        int trials = 0;
    };
    std::vector<RowSpec> specs;
    for (const std::string &bench_name : bench_names) {
        Circuit program = makeBenchmark(bench_name);
        CompileOptions copts;
        copts.emitAssembly = false;
        CompileResult compiled =
            compileForDevice(program, dev, calib, copts);
        specs.push_back(
            {bench_name, compiled.hwCircuit, dev, calib, trials});
    }
    if (wide) {
        Device grid = makeGoogle72();
        Calibration gcal = grid.calibrate(day);
        int wide_trials = std::max(16, trials / 64);
        struct WideSpec
        {
            const char *name;
            Circuit program;
        };
        const WideSpec wide_specs[] = {
            {"GHZ20", makeGhzRoundTrip(20)},
            {"GHZ24", makeGhzRoundTrip(24)},
            {"QFT20", makeQft(20, 0b0101)},
        };
        for (const WideSpec &w : wide_specs) {
            CompileOptions copts;
            copts.emitAssembly = false;
            copts.mapping.kind = MapperKind::Greedy;
            CompileResult compiled =
                compileForDevice(w.program, grid, gcal, copts);
            specs.push_back(
                {w.name, compiled.hwCircuit, grid, gcal, wide_trials});
        }
    }

    JsonWriter w;
    w.beginObject();
    w.key("device").value(device_name).key("day").value(day);
    w.key("trials").value(trials).key("threads").value(threads);
    w.key("rows").beginArray();
    bool all_identical = true;
    for (const RowSpec &spec : specs) {
        const Device &row_dev = spec.dev;
        const Calibration &row_calib = spec.calib;
        const int row_trials = spec.trials;

        // Serial baseline with checkpointing off: every faulty
        // trajectory replays the full circuit from |0...0>, the
        // pre-optimization behavior.
        ExecOptions no_ckpt;
        no_ckpt.threads = 1;
        no_ckpt.checkpointInterval = -1;
        ExecutionResult r_base;
        double base_ms = runMs(spec.hw, row_dev, row_calib, row_trials,
                               no_ckpt, &r_base);

        // Serial with automatic prefix checkpointing.
        ExecOptions serial;
        serial.threads = 1;
        ExecutionResult r_serial;
        double serial_ms = runMs(spec.hw, row_dev, row_calib,
                                 row_trials, serial, &r_serial);

        // Threaded with checkpointing; must match the serial run bit
        // for bit (chunk-sharded RNG + chunk-ordered merge).
        ExecOptions threaded;
        threaded.threads = threads;
        ExecutionResult r_threaded;
        double threaded_ms = runMs(spec.hw, row_dev, row_calib,
                                   row_trials, threaded, &r_threaded);

        bool identical =
            r_serial.successRate == r_threaded.successRate &&
            r_serial.successRate == r_base.successRate &&
            r_serial.simulatedTrajectories ==
                r_threaded.simulatedTrajectories &&
            r_serial.simulatedTrajectories ==
                r_base.simulatedTrajectories &&
            r_serial.histogram == r_threaded.histogram &&
            r_serial.histogram == r_base.histogram;
        all_identical = all_identical && identical;

        w.beginObject();
        w.key("benchmark").value(spec.name);
        w.key("device").value(row_dev.name());
        w.key("trials").value(row_trials);
        w.key("simulated_trajectories")
            .value(r_serial.simulatedTrajectories);
        w.key("success_rate").value(r_serial.successRate);
        w.key("serial_no_checkpoint_ms").value(base_ms);
        w.key("serial_no_checkpoint_trials_per_sec")
            .value(trialsPerSec(row_trials, base_ms));
        w.key("serial_ms").value(serial_ms);
        w.key("serial_trials_per_sec")
            .value(trialsPerSec(row_trials, serial_ms));
        w.key("checkpoint_speedup")
            .value(serial_ms > 0.0 ? base_ms / serial_ms : 0.0);
        w.key("threaded_ms").value(threaded_ms);
        w.key("threaded_trials_per_sec")
            .value(trialsPerSec(row_trials, threaded_ms));
        w.key("thread_speedup")
            .value(threaded_ms > 0.0 ? serial_ms / threaded_ms : 0.0);
        w.key("identical_across_configs").value(identical);
        w.endObject();
    }
    w.endArray();
    w.key("identical_across_configs").value(all_identical);
    w.endObject();
    bench::writeReport("micro_trajectory", w, json_file);
    return all_identical ? 0 : 4;
} catch (const FatalError &e) {
    std::cerr << "fatal: " << e.what() << "\n";
    return 1;
} catch (const PanicError &e) {
    std::cerr << "panic: " << e.what() << "\n";
    return 2;
}
