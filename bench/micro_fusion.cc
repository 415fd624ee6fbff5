/**
 * @file
 * Gate-fusion microbenchmark: runs the fig07 benchmark set through
 * executeNoisy in three configurations — the unfused per-gate baseline,
 * fusion only, and fusion with threaded trajectories — and emits
 * BENCH_sim_fusion.json with per-benchmark and aggregate wall-clock,
 * speedups and histogram-identity flags.
 *
 * The run doubles as an acceptance check: every configuration must
 * reproduce the baseline's histogram exactly (threading by
 * construction; fusion empirically — see DESIGN.md), and the process
 * exits 4 when any benchmark disagrees.
 *
 * Usage:
 *   micro_fusion [--device NAME] [--trials N] [--threads N] [--reps N]
 *                [--bench NAME]... [--json FILE]
 *
 * Each configuration runs --reps times (default 3) and reports the
 * fastest repetition, so one cold-cache or descheduled run does not
 * skew the speedup ratios. The engine is deterministic, so every
 * repetition produces the same histogram. Programs wider than the
 * device are skipped and listed under "skipped".
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

} // namespace

int
main(int argc, char **argv)
try {
    std::string device_name = "IBMQ14";
    std::string json_file;
    std::vector<std::string> bench_names;
    int trials = bench::defaultTrials(1000);
    int threads = std::max(2, ThreadPool::hardwareThreads());
    int reps = 3;
    for (int i = 1; i < argc; ++i) {
        if (!std::strcmp(argv[i], "--device"))
            device_name = bench::flagArg(argc, argv, i);
        else if (!std::strcmp(argv[i], "--bench"))
            bench_names.push_back(bench::flagArg(argc, argv, i));
        else if (!std::strcmp(argv[i], "--trials"))
            trials = flagValue("--trials", bench::flagArg(argc, argv, i), 1);
        else if (!std::strcmp(argv[i], "--threads"))
            threads = flagValue(
                "--threads", bench::flagArg(argc, argv, i), 1, kMaxThreads);
        else if (!std::strcmp(argv[i], "--reps"))
            reps = flagValue("--reps", bench::flagArg(argc, argv, i), 1);
        else if (!std::strcmp(argv[i], "--json"))
            json_file = bench::flagArg(argc, argv, i);
        else
            fatal("micro_fusion: unknown argument '", argv[i], "'");
    }
    if (bench_names.empty())
        bench_names = benchmarkNames(); // the fig07 set

    Device dev = deviceByName(device_name);
    int day = bench::defaultDay();
    Calibration calib = dev.calibrate(day);

    // The three measured configurations. "baseline" replays every
    // trajectory gate by gate.
    struct Config
    {
        const char *name;
        bool fusion;
        int threads;
    };
    const Config configs[] = {
        {"baseline", false, 1},
        {"fusion_only", true, 1},
        {"fusion_threaded", true, threads},
    };
    constexpr size_t kNumConfigs = sizeof(configs) / sizeof(configs[0]);

    JsonWriter w;
    w.beginObject();
    w.key("device").value(device_name).key("day").value(day);
    w.key("trials").value(trials).key("threads").value(threads);
    w.key("reps").value(reps);
    w.key("benchmarks").beginArray();
    double total_ms[kNumConfigs] = {};
    std::vector<std::string> skipped;
    bool all_identical = true;

    for (const std::string &name : bench_names) {
        Circuit program = makeBenchmark(name);
        if (program.numQubits() > dev.numQubits()) {
            skipped.push_back(name);
            continue;
        }
        CompileOptions copts;
        copts.emitAssembly = false;
        CompileResult compiled =
            compileForDevice(program, dev, calib, copts);

        double ms[kNumConfigs];
        ExecutionResult res[kNumConfigs];
        bool row_identical = true;
        for (size_t ci = 0; ci < kNumConfigs; ++ci) {
            ExecOptions opts;
            opts.fusion = configs[ci].fusion;
            opts.threads = configs[ci].threads;
            ms[ci] = runMs(compiled.hwCircuit, dev, calib, trials, opts,
                           &res[ci]);
            for (int rep = 1; rep < reps; ++rep)
                ms[ci] = std::min(
                    ms[ci], runMs(compiled.hwCircuit, dev, calib, trials,
                                  opts, nullptr));
            total_ms[ci] += ms[ci];
            row_identical = row_identical &&
                            res[ci].histogram == res[0].histogram &&
                            res[ci].successRate == res[0].successRate;
        }
        all_identical = all_identical && row_identical;

        w.beginObject();
        w.key("benchmark").value(name);
        w.key("baseline_ms").value(ms[0]);
        w.key("fusion_only_ms").value(ms[1]);
        w.key("fusion_threaded_ms").value(ms[2]);
        w.key("speedup").value(ms[1] > 0.0 ? ms[0] / ms[1] : 0.0);
        w.key("faulty_trials").value(res[0].simulatedTrajectories);
        w.key("histograms_identical").value(row_identical);
        w.endObject();
    }
    w.endArray();

    auto speedup = [&](size_t ci) {
        return total_ms[ci] > 0.0 ? total_ms[0] / total_ms[ci] : 0.0;
    };
    if (!skipped.empty()) {
        w.key("skipped").beginArray();
        for (const std::string &name : skipped)
            w.value(name);
        w.endArray();
    }
    w.key("total_baseline_ms").value(total_ms[0]);
    w.key("total_fusion_only_ms").value(total_ms[1]);
    w.key("total_fusion_threaded_ms").value(total_ms[2]);
    w.key("fusion_only_speedup").value(speedup(1));
    w.key("fusion_threaded_speedup").value(speedup(2));
    w.key("identical_across_configs").value(all_identical);
    w.endObject();
    bench::writeReport("micro_fusion", w, json_file);
    return all_identical ? 0 : 4;
} catch (const FatalError &e) {
    std::cerr << "fatal: " << e.what() << "\n";
    return 1;
} catch (const PanicError &e) {
    std::cerr << "panic: " << e.what() << "\n";
    return 2;
}
