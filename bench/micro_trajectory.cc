/**
 * @file
 * Trajectory-engine microbenchmark: times executeNoisy on compiled
 * fig07 workloads with every engine layer on, with each layer turned
 * off in turn (through the detail::executeNoisyWith seam), and with
 * every layer on and trajectories threaded, and reports what each
 * layer buys per row and in total:
 *  - frame: a Clifford cell with one correct answer resolves its faulty
 *    trials from flip masks (sim/pauli_frame.hh) instead of replaying
 *    them; of the fig07 set, the BV and HS rows take it;
 *  - fusion: replays run fused operators (sim/fusion.hh) instead of
 *    single gates;
 *  - checkpoints: faulty replays resume from ideal-prefix snapshots
 *    instead of |0...0>;
 *  - threads: trial chunks run on --threads workers.
 * Fusion and checkpoints act only on replay, so they buy nothing on a
 * row that takes the frame path.
 *
 * The run doubles as a determinism check: every configuration must
 * give a row the same histogram, success rate, correct answer and
 * trajectory count, and the process exits 4 when one does not. The
 * frame path and checkpoints are exact by construction, threads by the
 * chunked RNG streams, fusion empirically (see DESIGN.md).
 *
 * --wide appends two rows on the Google72 grid (greedy mapper) at a
 * 64th of --trials (at least 16): GHZ20, a 20-qubit round trip that
 * takes the frame path, and Sup4x4d8, whose 17 compact qubits replay
 * (the cell GoldenHistogram.WideNonCliffordIsBitIdentical pins).
 *
 * Usage:
 *   micro_trajectory [--device NAME] [--bench NAME]... [--trials N]
 *                    [--threads N] [--reps N] [--wide] [--json FILE]
 *
 * --bench may be repeated (default: the fig07 set); programs wider
 * than the device are listed under "skipped". Each configuration runs
 * --reps times (default 3), reporting its fastest run; the
 * configurations interleave, in an order rotated each repetition.
 */

#include <chrono>
#include <cstring>
#include <iostream>
#include <iterator>
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

/** One timed configuration of the engine. */
struct Config
{
    const char *name;
    detail::EngineLayers layers;
    bool threaded;

    /** For a layer turned off: the key of that layer's speedup. */
    const char *speedup;
};

/**
 * Every layer on (the reference the others must reproduce), each layer
 * off in turn, and every layer on with threaded trajectories.
 */
const Config kConfigs[] = {
    {"all_layers", {}, false, nullptr},
    {"no_frame", {.frame = false}, false, "frame_speedup"},
    {"no_fusion", {.gateFusion = false}, false, "fusion_speedup"},
    {"no_checkpoints", {.checkpoints = false}, false, "checkpoint_speedup"},
    {"threaded", {}, true, "thread_speedup"},
};
constexpr size_t kNumConfigs = std::size(kConfigs);
constexpr size_t kAllLayers = 0;

/** A compiled program and the machine it runs on. */
struct Row
{
    std::string name;
    Circuit hw;
    Device dev;
    Calibration calib;
    int trials;
};

double
runMs(const Row &row, const Config &config, int threads,
      ExecutionResult *out)
{
    ExecOptions opts;
    opts.threads = config.threaded ? threads : 1;
    auto t0 = std::chrono::steady_clock::now();
    ExecutionResult r = detail::executeNoisyWith(
        row.hw, row.dev, row.calib, row.trials, 12345, opts, config.layers);
    auto t1 = std::chrono::steady_clock::now();
    if (out)
        *out = std::move(r);
    return std::chrono::duration<double, std::milli>(t1 - t0).count();
}

bool
sameResult(const ExecutionResult &a, const ExecutionResult &b)
{
    return a.histogram == b.histogram && a.successRate == b.successRate &&
           a.correctOutcome == b.correctOutcome &&
           a.simulatedTrajectories == b.simulatedTrajectories;
}

double
ratio(double num, double den)
{
    return den > 0.0 ? num / den : 0.0;
}

/**
 * The per-configuration times and the speedups derived from them: a
 * layer's is the time without it over the time with every layer, the
 * threads' the serial time over the threaded one.
 */
void
writeTimes(JsonWriter &w, const std::string &prefix,
           const double (&ms)[kNumConfigs])
{
    for (size_t ci = 0; ci < kNumConfigs; ++ci)
        w.key(prefix + kConfigs[ci].name + "_ms").value(ms[ci]);
    for (size_t ci = 0; ci < kNumConfigs; ++ci) {
        const Config &c = kConfigs[ci];
        if (c.speedup != nullptr)
            w.key(prefix + c.speedup)
                .value(c.threaded ? ratio(ms[kAllLayers], ms[ci])
                                  : ratio(ms[ci], ms[kAllLayers]));
    }
}

} // namespace

int
main(int argc, char **argv)
try {
    std::string device_name = "IBMQ14";
    std::vector<std::string> bench_names;
    std::string json_file;
    int trials = bench::defaultTrials(2000);
    int threads = std::max(2, ThreadPool::hardwareThreads());
    int reps = 3;
    bool wide = false;
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
        else if (!std::strcmp(argv[i], "--wide"))
            wide = true;
        else if (!std::strcmp(argv[i], "--json"))
            json_file = bench::flagArg(argc, argv, i);
        else
            fatal("micro_trajectory: unknown argument '", argv[i], "'");
    }
    if (bench_names.empty())
        bench_names = benchmarkNames(); // the fig07 set

    const Device dev = deviceByName(device_name);
    const int day = bench::defaultDay();
    const Calibration calib = dev.calibrate(day);

    std::vector<Row> rows;
    std::vector<std::string> skipped;
    CompileOptions copts;
    copts.emitAssembly = false;
    for (const std::string &name : bench_names) {
        Circuit program = makeBenchmark(name);
        if (program.numQubits() > dev.numQubits()) {
            skipped.push_back(name);
            continue;
        }
        rows.push_back(
            {name, compileForDevice(program, dev, calib, copts).hwCircuit,
             dev, calib, trials});
    }
    if (wide) {
        // Greedy mapping: B&B search over 72 qubits is a mapper
        // benchmark, not a simulator one. Each faulty replay of a 17- or
        // 20-qubit state is a pass over megabytes of amplitudes, so a
        // fraction of the trials already outweighs the narrow rows.
        const Device grid = makeGoogle72();
        const Calibration gcal = grid.calibrate(day);
        CompileOptions wide_opts = copts;
        wide_opts.mapping.kind = MapperKind::Greedy;
        const int wide_trials = std::max(16, trials / 64);
        const std::pair<const char *, Circuit> wide_programs[] = {
            {"GHZ20", makeGhzRoundTrip(20)},
            {"Sup4x4d8", makeBenchmark("Sup4x4d8")},
        };
        for (const auto &[name, program] : wide_programs)
            rows.push_back(
                {name,
                 compileForDevice(program, grid, gcal, wide_opts).hwCircuit,
                 grid, gcal, wide_trials});
    }

    JsonWriter w;
    w.beginObject();
    w.key("device").value(device_name).key("day").value(day);
    w.key("trials").value(trials).key("threads").value(threads);
    w.key("reps").value(reps);
    w.key("rows").beginArray();
    double total_ms[kNumConfigs] = {};
    bool all_identical = true;
    for (const Row &row : rows) {
        double ms[kNumConfigs];
        ExecutionResult res[kNumConfigs];
        for (int rep = 0; rep < reps; ++rep)
            for (size_t k = 0; k < kNumConfigs; ++k) {
                // Rotate the order so no configuration always runs
                // first, on a cold cache.
                const size_t ci =
                    (k + static_cast<size_t>(rep)) % kNumConfigs;
                double t = runMs(row, kConfigs[ci], threads,
                                 rep == 0 ? &res[ci] : nullptr);
                ms[ci] = rep == 0 ? t : std::min(ms[ci], t);
            }
        bool identical = true;
        for (size_t ci = 0; ci < kNumConfigs; ++ci) {
            identical = identical && sameResult(res[ci], res[kAllLayers]);
            total_ms[ci] += ms[ci];
        }
        all_identical = all_identical && identical;

        w.beginObject();
        w.key("benchmark").value(row.name);
        w.key("device").value(row.dev.name());
        w.key("trials").value(row.trials);
        w.key("simulated_trajectories")
            .value(res[kAllLayers].simulatedTrajectories);
        w.key("success_rate").value(res[kAllLayers].successRate);
        writeTimes(w, "", ms);
        w.key("trials_per_sec")
            .value(ratio(1000.0 * row.trials, ms[kAllLayers]));
        w.key("identical_across_configs").value(identical);
        w.endObject();
    }
    w.endArray();
    if (!skipped.empty()) {
        w.key("skipped").beginArray();
        for (const std::string &name : skipped)
            w.value(name);
        w.endArray();
    }
    writeTimes(w, "total_", total_ms);
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
