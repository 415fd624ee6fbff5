/**
 * @file
 * `study`: the paper's main experiment (Figs. 8-12). The 12 benchmark
 * programs as ScaffLite text x the 7 study machines x the 4 TriQ
 * levels, programs too large for a machine skipped (300 cells). One op
 * parses the text, compiles it cold with assembly emitted, and runs
 * executeNoisy at the paper's trial counts. Simulation of <= 8-qubit
 * registers does most of the work, so the trajectory engine's layers
 * (fault-free path, checkpoints, fusion, dedup, planners) show here and
 * the mapper barely does.
 */

#include "harness.hh"
#include "lang/lower.hh"
#include "metrics.hh"
#include "device/machines.hh"
#include "sim/compact.hh"

using namespace triq;

namespace triqbench
{

namespace
{

/** Study benchmark name and its file under examples/programs. */
const std::pair<const char *, const char *> kPrograms[] = {
    {"BV4", "bv4"},       {"BV6", "bv6"},         {"BV8", "bv8"},
    {"HS2", "hs2"},       {"HS4", "hs4"},         {"HS6", "hs6"},
    {"Toffoli", "toffoli"}, {"Fredkin", "fredkin"}, {"Or", "or"},
    {"Peres", "peres"},   {"QFT", "qft"},         {"Adder", "adder"},
};

constexpr OptLevel kLevels[] = {OptLevel::N, OptLevel::OneQOpt,
                                OptLevel::OneQOptC, OptLevel::OneQOptCN};

/**
 * Each cell draws its calibration day from a window of this many days,
 * so the cost and mapping quality of a pass average over many days'
 * noise and change little from seed to seed.
 */
constexpr int kDayWindow = 16;

/** Cells checked against the density-matrix engine per run. */
constexpr int kExactChecks = 6;

struct Cell
{
    int program = 0;
    int device = 0;
    OptLevel level = OptLevel::N;
    int day = 0;
    uint64_t simSeed = 0;
    int trials = 0;
};

/** What one op produced, kept from the first pass. */
struct CellOutput
{
    std::string digest;
    double esp = 0.0;
    double success = 0.0;
    int twoQ = 0;
    int pulses1q = 0;
};

} // namespace

Outcome
runStudy(const RunConfig &cfg, Tracer &tracer)
{
    Outcome out;
    SeedRng rng(cfg.seed);

    // ---- Set-up: program text, devices, calibrations, the cell list.
    const auto expected = loadExpected(cfg);
    std::vector<std::string> texts;
    std::vector<int> widths;
    for (const auto &[name, file] : kPrograms) {
        texts.push_back(
            readFile(cfg.root + "/examples/programs/" + file + ".scaff"));
        widths.push_back(compileScaffLite(texts.back()).numQubits());
    }
    const std::vector<Device> devices = allStudyDevices();
    const int first_day = rng.below(64);
    std::vector<std::vector<Calibration>> calibs(devices.size());
    for (size_t d = 0; d < devices.size(); ++d) {
        for (int k = 0; k < kDayWindow; ++k) {
            Span s(tracer, "device.calibrate");
            calibs[d].push_back(devices[d].calibrate(first_day + k));
        }
    }
    std::vector<Cell> cells;
    for (int p = 0; p < static_cast<int>(texts.size()); ++p) {
        for (int d = 0; d < static_cast<int>(devices.size()); ++d) {
            if (widths[p] > devices[d].numQubits())
                continue;
            for (OptLevel level : kLevels) {
                Cell c;
                c.program = p;
                c.device = d;
                c.level = level;
                c.day = rng.below(kDayWindow);
                c.simSeed = rng.next();
                // The paper ran 8192 trials, 5000 on the ion trap.
                c.trials = devices[d].name() == "UMDTI" ? 5000 : 8192;
                cells.push_back(c);
            }
        }
    }
    out.setupS = setupSeconds(cfg);
    if (cfg.setupOnly)
        return out;

    std::vector<CellOutput> first(cells.size());
    std::vector<bool> seen(cells.size(), false);
    double compile_ms = 0.0, sim_ms = 0.0, sim_trials = 0.0;
    ReplayStats replay;
    SimStats sim;
    double ir_gates = 0.0;

    auto run_op = [&](size_t i, bool traced, PhaseClock &clock) {
        const Cell &c = cells[i];
        const Device &dev = devices[c.device];
        const Calibration &calib = calibs[c.device][c.day];
        const char *name = kPrograms[c.program].first;
        ++out.attempted;
        tracer.setOp(out.attempted);

        auto t0 = Clock::now();
        Circuit program;
        CompileOptions opts;
        opts.level = c.level;
        CompileResult compiled;
        ExecutionResult run;
        double op_compile_ms = 0.0, op_sim_ms = 0.0;
        try {
            Span op(tracer, "bench.op");
            {
                Span s(tracer, "lang.parse");
                program = compileScaffLite(texts[c.program]);
            }
            {
                Span s(tracer, "core.compile");
                auto tc = Clock::now();
                compiled = compileForDevice(program, dev, calib, opts);
                op_compile_ms = msSince(tc);
            }
            {
                Span s(tracer, "sim.execute");
                auto ts = Clock::now();
                run = executeNoisy(compiled.hwCircuit, dev, calib, c.trials,
                                   c.simSeed);
                op_sim_ms = msSince(ts);
            }
        } catch (const std::exception &e) {
            out.fail(std::string(name) + " on " + dev.name() + ": " +
                     e.what());
            return msSince(t0);
        }
        double latency = msSince(t0);
        compile_ms += op_compile_ms;
        sim_ms += op_sim_ms;
        sim_trials += run.trials;

        Digest digest;
        digest.add(std::string_view(name));
        digest.add(dev.name());
        digest.add(static_cast<int>(c.level));
        for (HwQubit h : compiled.initialMap)
            digest.add(h);
        for (HwQubit h : compiled.finalMap)
            digest.add(h);
        digest.add(run.esp);
        for (const auto &[key, count] : run.sortedHistogram()) {
            digest.add(key);
            digest.add(count);
        }
        CellOutput res{digest.hex(), run.esp, run.successRate,
                       compiled.stats.twoQ, compiled.stats.pulses1q};

        std::string err = checkAnswer(name, expected, program, compiled, run);
        if (err.empty())
            err = checkEdges(compiled.hwCircuit, dev.topology());
        if (!err.empty()) {
            out.fail(err + " (" + dev.name() + ", " +
                     optLevelName(c.level) + ")");
        } else if (!seen[i]) {
            seen[i] = true;
            first[i] = res;
        } else if (first[i].digest != res.digest) {
            out.fail(std::string(name) + " on " + dev.name() +
                     ": output differs from the first pass");
        }

        if (traced) {
            auto td = Clock::now();
            ir_gates += program.numGates();
            sim.add(run);
            err = replayCompile(tracer, program, dev, calib, opts, compiled,
                                op_compile_ms, replay);
            if (!err.empty())
                out.fail(err);
            clock.exclude(msSince(td));
        }
        return latency;
    };

    // ---- Timed, untraced phase: at least one full pass.
    const bool trace_setup = tracer.enabled();
    tracer.setEnabled(false);
    const double untraced_s = cfg.trace ? cfg.seconds / 2 : cfg.seconds;
    PhaseClock clock;
    std::vector<double> op_ms =
        runPhase(cells.size(), untraced_s, clock,
                 [&](size_t i) { return run_op(i, false, clock); });
    const double phase_s = clock.elapsedS();
    const double passes = static_cast<double>(op_ms.size()) / cells.size();

    reportLatency(out, op_ms, cells.size(), busySeconds(op_ms), phase_s);
    out.info("compile_ms", compile_ms / passes, "ms");
    out.info("sim_trials_per_s", sim_trials / (sim_ms / 1000.0), "trial/s");

    std::vector<double> esps, successes;
    double two_q = 0.0, pulses = 0.0;
    Digest pass_digest;
    for (const CellOutput &r : first) {
        esps.push_back(r.esp);
        successes.push_back(r.success);
        two_q += r.twoQ;
        pulses += r.pulses1q;
        pass_digest.add(r.digest);
    }
    out.e2e("esp_geomean", geomeanPositive(esps), "ratio");
    out.e2e("twoq_gates", two_q, "count");
    out.e2e("pulses_1q", pulses, "count");
    out.info("success_geomean", geomeanPositive(successes), "ratio");
    out.digest = pass_digest.hex();

    // ---- Independent oracle, outside the timed pass: trajectory
    // success vs. the density-matrix engine on a seeded subset of cells
    // whose compacted register is small enough for it.
    int exact_done = 0;
    for (int tries = 0; tries < 200 && exact_done < kExactChecks; ++tries) {
        const Cell &c = cells[static_cast<size_t>(rng.below(int(cells.size())))];
        const Device &dev = devices[c.device];
        const Calibration &calib = calibs[c.device][c.day];
        CompileOptions opts;
        opts.level = c.level;
        CompileResult compiled = compileForDevice(
            compileScaffLite(texts[c.program]), dev, calib, opts);
        if (compactCircuit(compiled.hwCircuit).circuit.numQubits() > 8)
            continue;
        ExecutionResult run = executeNoisy(compiled.hwCircuit, dev, calib,
                                           c.trials, c.simSeed);
        ++out.attempted;
        std::string err = checkExact(compiled, dev, calib, run);
        if (!err.empty())
            out.fail(std::string(kPrograms[c.program].first) + " on " +
                     dev.name() + ": " + err);
        ++exact_done;
    }
    if (exact_done < kExactChecks) {
        ++out.attempted;
        out.fail("too few cells for the density-matrix check");
    }

    // ---- Traced phase: per-layer metrics.
    if (cfg.trace) {
        tracer.setEnabled(trace_setup);
        PhaseClock traced_clock;
        std::vector<double> traced_ms = runPhase(
            cells.size(), cfg.seconds / 2, traced_clock,
            [&](size_t i) { return run_op(i, true, traced_clock); });
        double n = static_cast<double>(traced_ms.size());
        out.layer("lang.parse_ms", tracer.totalMs("lang.parse") / n, "ms");
        out.layer("lang.ir_gates", ir_gates / n, "count");
        replay.report(out, tracer);
        sim.report(out, tracer);
        out.layer("bench.trace_overhead_ratio",
                  (n / traced_clock.elapsedS()) / (op_ms.size() / phase_s),
                  "ratio");
    }
    return out;
}

} // namespace triqbench
