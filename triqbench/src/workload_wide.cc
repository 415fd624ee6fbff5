/**
 * @file
 * `wide`: large-register simulation. A 20-qubit GHZ round trip and a
 * 20-qubit hidden shift, compiled once at set-up for the 72-qubit grid
 * with the greedy mapper; one op is one short executeNoisy call. Every
 * trajectory replay is a pass over a 16 MiB state, so intra-state kernel
 * work, tiling and fusion dominate, none of which `study`'s <= 8-qubit
 * registers exercise. Being bound by memory bandwidth, its timings
 * spread too much between runs on a shared host to serve as a
 * regression gate, so it is not listed in BENCHMARK.json (README.md).
 *
 * The calibration day is fixed, so the seed only draws the simulation
 * seeds: every seed compiles the same two circuits, so the
 * mapping-quality metrics compare like with like.
 */

#include <cstdint>

#include "core/esp.hh"
#include "core/fingerprint.hh"
#include "device/machines.hh"
#include "harness.hh"
#include "metrics.hh"
#include "sim/compact.hh"
#include "sim/fusion.hh"
#include "workloads/benchmarks.hh"

using namespace triq;

namespace triqbench
{

namespace
{

constexpr int kDay = 3;

struct Input
{
    std::string name;
    Circuit program;
    int trials = 0;
};

struct Op
{
    int input = 0;
    uint64_t simSeed = 0;
};

} // namespace

Outcome
runWide(const RunConfig &cfg, Tracer &tracer)
{
    Outcome out;
    SeedRng rng(cfg.seed);

    // ---- Set-up: device, calibration, the two compiles.
    const auto expected = loadExpected(cfg);
    const Device dev = makeGoogle72();
    Calibration calib;
    {
        Span s(tracer, "device.calibrate");
        calib = dev.calibrate(kDay);
    }
    // Every GHZ20 trial is faulty (its idle barrier decoheres the
    // chain); the hidden shift keeps about half its trials fault-free.
    std::vector<Input> inputs;
    inputs.push_back({"GHZ20", makeGhzRoundTrip(20), 8});
    inputs.push_back({"HS20", makeHiddenShift(20, 0x5A5A5), 16});
    CompileOptions opts;
    opts.mapping.kind = MapperKind::Greedy;
    std::vector<CompileResult> compiled;
    for (const Input &in : inputs) {
        Span s(tracer, "core.compile");
        compiled.push_back(compileForDevice(in.program, dev, calib, opts));
    }
    for (size_t i = 0; i < inputs.size(); ++i) {
        std::string err = checkEdges(compiled[i].hwCircuit, dev.topology());
        if (!err.empty()) {
            ++out.attempted;
            out.fail(inputs[i].name + ": " + err);
        }
    }
    // Many short ops with their own simulation seeds, two GHZ ops per
    // hidden-shift op: the median op is a GHZ op, and where a trial's
    // first fault falls (which sets its replay length) averages out.
    std::vector<Op> ops;
    for (int input : {0, 0, 1, 0, 0, 1})
        ops.push_back({input, rng.next()});
    out.setupS = setupSeconds(cfg);
    if (cfg.setupOnly)
        return out;

    std::vector<std::string> first(ops.size());
    std::vector<double> successes(ops.size(), 0.0);
    double sim_ms = 0.0, sim_trials = 0.0;
    SimStats sim;
    double fusion_ms = 0.0, replay_ms = 0.0, fused_ops = 0.0,
           tile_runs = 0.0, bytes = 0.0;
    long replays = 0;

    auto run_op = [&](size_t i, bool traced, PhaseClock &clock) {
        const Op &op = ops[i];
        const Input &in = inputs[op.input];
        const CompileResult &cr = compiled[op.input];
        ++out.attempted;
        tracer.setOp(out.attempted);

        auto t0 = Clock::now();
        ExecutionResult run;
        try {
            Span s(tracer, "bench.op");
            Span e(tracer, "sim.execute");
            run = executeNoisy(cr.hwCircuit, dev, calib, in.trials,
                               op.simSeed);
        } catch (const std::exception &e) {
            out.fail(in.name + ": " + e.what());
            return msSince(t0);
        }
        double latency = msSince(t0);
        sim_ms += latency;
        sim_trials += run.trials;

        Digest digest;
        digest.add(in.name);
        for (const auto &[key, count] : run.sortedHistogram()) {
            digest.add(key);
            digest.add(count);
        }
        std::string err =
            checkAnswer(in.name, expected, in.program, cr, run);
        if (!err.empty()) {
            out.fail(err);
        } else if (first[i].empty()) {
            first[i] = digest.hex();
            successes[i] = run.successRate;
        } else if (first[i] != digest.hex()) {
            out.fail(in.name + ": histogram differs from the first pass");
        }

        if (traced) {
            auto td = Clock::now();
            sim.add(run);
            // Standalone fusion build and full replay of the compacted
            // circuit, outside the executeNoisy span.
            Circuit compact = compactCircuit(cr.hwCircuit).circuit;
            std::optional<FusedProgram> fused;
            double t_build = tracer.nowUs();
            {
                Span s(tracer, "sim.fusion_build");
                fused.emplace(compact);
            }
            fusion_ms += (tracer.nowUs() - t_build) / 1000.0;
            StateVector sv(compact.numQubits());
            double t_replay = tracer.nowUs();
            {
                Span s(tracer, "sim.replay");
                fused->applyAll(sv);
            }
            replay_ms += (tracer.nowUs() - t_replay) / 1000.0;
            fused_ops += fused->stats().ops;
            tile_runs += fused->stats().tileRuns;
            bytes += fused->stats().ops *
                     (16.0 * static_cast<double>(uint64_t{1}
                                                 << compact.numQubits()));
            ++replays;
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
        runPhase(ops.size(), untraced_s, clock,
                 [&](size_t i) { return run_op(i, false, clock); });
    const double phase_s = clock.elapsedS();
    reportLatency(out, op_ms, ops.size(), busySeconds(op_ms), phase_s);

    out.info("sim_trials_per_s", sim_trials / (sim_ms / 1000.0), "trial/s");

    std::vector<double> esps;
    double two_q = 0.0, pulses = 0.0;
    Digest pass_digest;
    for (size_t i = 0; i < inputs.size(); ++i) {
        esps.push_back(estimatedSuccessProbability(
            compiled[i].hwCircuit, dev.topology(), calib));
        two_q += compiled[i].stats.twoQ;
        pulses += compiled[i].stats.pulses1q;
        pass_digest.add(compileResultDigest(compiled[i]));
    }
    for (const std::string &d : first)
        pass_digest.add(d);
    out.e2e("esp_geomean", geomeanPositive(esps), "ratio");
    out.e2e("twoq_gates", two_q, "count");
    out.e2e("pulses_1q", pulses, "count");
    out.info("success_geomean", geomeanPositive(successes), "ratio");
    out.digest = pass_digest.hex();

    // ---- Traced phase: per-layer metrics.
    if (cfg.trace) {
        tracer.setEnabled(trace_setup);
        PhaseClock traced_clock;
        std::vector<double> traced_ms = runPhase(
            ops.size(), cfg.seconds / 2, traced_clock,
            [&](size_t i) { return run_op(i, true, traced_clock); });
        sim.report(out, tracer);
        double n = replays ? static_cast<double>(replays) : 1.0;
        out.layer("sim.fusion_build_ms", fusion_ms / n, "ms");
        out.layer("sim.fused_ops", fused_ops / n, "count");
        out.layer("sim.tile_runs", tile_runs / n, "count");
        out.layer("sim.replay_ms", replay_ms / n, "ms");
        out.layer("sim.state_gb_per_s",
                  replay_ms > 0.0 ? bytes / (replay_ms / 1000.0) / 1e9 : 0.0,
                  "GB/s");
        out.layer("bench.trace_overhead_ratio",
                  (traced_ms.size() / traced_clock.elapsedS()) /
                      (op_ms.size() / phase_s),
                  "ratio");
    }
    return out;
}

} // namespace triqbench
