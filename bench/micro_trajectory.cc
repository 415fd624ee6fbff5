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
    int trials = defaultTrials(2000);
    int threads = std::max(2, ThreadPool::hardwareThreads());
    bool wide = false;
    for (int i = 1; i < argc; ++i) {
        auto need_value = [&](const char *flag) -> const char * {
            if (i + 1 >= argc)
                fatal("micro_trajectory: ", flag, " needs a value");
            return argv[++i];
        };
        if (!std::strcmp(argv[i], "--bench"))
            bench_names.push_back(need_value("--bench"));
        else if (!std::strcmp(argv[i], "--device"))
            device_name = need_value("--device");
        else if (!std::strcmp(argv[i], "--trials"))
            trials = std::atoi(need_value("--trials"));
        else if (!std::strcmp(argv[i], "--threads"))
            threads = std::atoi(need_value("--threads"));
        else if (!std::strcmp(argv[i], "--wide"))
            wide = true;
        else if (!std::strcmp(argv[i], "--json"))
            json_file = need_value("--json");
        else
            fatal("micro_trajectory: unknown argument '", argv[i], "'");
    }
    if (bench_names.empty())
        bench_names = {"BV8", "QFT", "Adder"};
    if (trials < 1 || threads < 1)
        fatal("micro_trajectory: --trials and --threads must be >= 1");

    Device dev = bench::deviceByName(device_name);
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

    bool all_identical = true;
    std::ostringstream rows;
    for (size_t bi = 0; bi < specs.size(); ++bi) {
        const RowSpec &spec = specs[bi];
        const std::string &bench_name = spec.name;
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

        rows << "    {\n"
             << "      \"benchmark\": \"" << bench_name << "\",\n"
             << "      \"device\": \"" << row_dev.name() << "\",\n"
             << "      \"trials\": " << row_trials << ",\n"
             << "      \"simulated_trajectories\": "
             << r_serial.simulatedTrajectories << ",\n"
             << "      \"success_rate\": " << r_serial.successRate
             << ",\n"
             << "      \"serial_no_checkpoint_ms\": " << base_ms << ",\n"
             << "      \"serial_no_checkpoint_trials_per_sec\": "
             << trialsPerSec(row_trials, base_ms) << ",\n"
             << "      \"serial_ms\": " << serial_ms << ",\n"
             << "      \"serial_trials_per_sec\": "
             << trialsPerSec(row_trials, serial_ms) << ",\n"
             << "      \"checkpoint_speedup\": "
             << (serial_ms > 0.0 ? base_ms / serial_ms : 0.0) << ",\n"
             << "      \"threaded_ms\": " << threaded_ms << ",\n"
             << "      \"threaded_trials_per_sec\": "
             << trialsPerSec(row_trials, threaded_ms) << ",\n"
             << "      \"thread_speedup\": "
             << (threaded_ms > 0.0 ? serial_ms / threaded_ms : 0.0)
             << ",\n"
             << "      \"identical_across_configs\": "
             << (identical ? "true" : "false") << "\n"
             << "    }"
             << (bi + 1 == specs.size() ? "\n" : ",\n");
    }

    std::ostringstream json;
    json << "{\n"
         << "  \"device\": \"" << device_name << "\",\n"
         << "  \"day\": " << day << ",\n"
         << "  \"trials\": " << trials << ",\n"
         << "  \"threads\": " << threads << ",\n"
         << "  \"rows\": [\n"
         << rows.str() << "  ],\n"
         << "  \"identical_across_configs\": "
         << (all_identical ? "true" : "false") << "\n"
         << "}\n";

    std::cout << json.str();
    if (!json_file.empty()) {
        std::ofstream out(json_file);
        if (!out)
            fatal("micro_trajectory: cannot write '", json_file, "'");
        out << json.str();
    }
    return all_identical ? 0 : 4;
} catch (const FatalError &) {
    return 1;
}
