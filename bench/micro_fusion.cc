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
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "bench_util.hh"
#include "common/logging.hh"
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
    int trials = defaultTrials(1000);
    int threads = std::max(2, ThreadPool::hardwareThreads());
    int reps = 3;
    for (int i = 1; i < argc; ++i) {
        auto need_value = [&](const char *flag) -> const char * {
            if (i + 1 >= argc)
                fatal("micro_fusion: ", flag, " needs a value");
            return argv[++i];
        };
        if (!std::strcmp(argv[i], "--device"))
            device_name = need_value("--device");
        else if (!std::strcmp(argv[i], "--bench"))
            bench_names.push_back(need_value("--bench"));
        else if (!std::strcmp(argv[i], "--trials"))
            trials = std::atoi(need_value("--trials"));
        else if (!std::strcmp(argv[i], "--threads"))
            threads = std::atoi(need_value("--threads"));
        else if (!std::strcmp(argv[i], "--reps"))
            reps = std::atoi(need_value("--reps"));
        else if (!std::strcmp(argv[i], "--json"))
            json_file = need_value("--json");
        else
            fatal("micro_fusion: unknown argument '", argv[i], "'");
    }
    if (trials < 1 || threads < 1 || reps < 1)
        fatal("micro_fusion: --trials, --threads and --reps must be "
              ">= 1");
    if (bench_names.empty())
        bench_names = benchmarkNames(); // the fig07 set

    Device dev = bench::deviceByName(device_name);
    int day = bench::defaultDay();
    Calibration calib = dev.calibrate(day);

    // The three measured configurations. "baseline" replays every
    // trajectory gate by gate.
    struct Config
    {
        const char *name;
        int fusion;
        int threads;
    };
    const Config configs[] = {
        {"baseline", -1, 1},
        {"fusion_only", 1, 1},
        {"fusion_threaded", 1, threads},
    };
    constexpr size_t kNumConfigs = sizeof(configs) / sizeof(configs[0]);

    double total_ms[kNumConfigs] = {};
    std::ostringstream rows;
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

        rows << (rows.tellp() > 0 ? ",\n" : "") << "    {\n"
             << "      \"benchmark\": \"" << name << "\",\n"
             << "      \"baseline_ms\": " << ms[0] << ",\n"
             << "      \"fusion_only_ms\": " << ms[1] << ",\n"
             << "      \"fusion_threaded_ms\": " << ms[2] << ",\n"
             << "      \"speedup\": "
             << (ms[1] > 0.0 ? ms[0] / ms[1] : 0.0) << ",\n"
             << "      \"faulty_trials\": "
             << res[0].simulatedTrajectories << ",\n"
             << "      \"histograms_identical\": "
             << (row_identical ? "true" : "false") << "\n"
             << "    }";
    }
    if (rows.tellp() > 0)
        rows << "\n";

    auto speedup = [&](size_t ci) {
        return total_ms[ci] > 0.0 ? total_ms[0] / total_ms[ci] : 0.0;
    };
    std::ostringstream json;
    json << "{\n"
         << "  \"device\": \"" << device_name << "\",\n"
         << "  \"day\": " << day << ",\n"
         << "  \"trials\": " << trials << ",\n"
         << "  \"threads\": " << threads << ",\n"
         << "  \"reps\": " << reps << ",\n"
         << "  \"benchmarks\": [\n"
         << rows.str() << "  ],\n";
    if (!skipped.empty()) {
        json << "  \"skipped\": [";
        for (size_t k = 0; k < skipped.size(); ++k)
            json << (k > 0 ? ", " : "") << "\"" << skipped[k] << "\"";
        json << "],\n";
    }
    json << "  \"total_baseline_ms\": " << total_ms[0] << ",\n"
         << "  \"total_fusion_only_ms\": " << total_ms[1] << ",\n"
         << "  \"total_fusion_threaded_ms\": " << total_ms[2] << ",\n"
         << "  \"fusion_only_speedup\": " << speedup(1) << ",\n"
         << "  \"fusion_threaded_speedup\": " << speedup(2) << ",\n"
         << "  \"identical_across_configs\": "
         << (all_identical ? "true" : "false") << "\n"
         << "}\n";

    std::cout << json.str();
    if (!json_file.empty()) {
        std::ofstream out(json_file);
        if (!out)
            fatal("micro_fusion: cannot write '", json_file, "'");
        out << json.str();
    }
    return all_identical ? 0 : 4;
} catch (const FatalError &) {
    return 1;
}
