/**
 * @file
 * `scale`: the Sec. 6.5 compile-scaling study, with no simulation.
 * Supremacy circuits on the fig13 grid ladder (6 to 72 qubits), a few
 * circuit seeds per rung drawn from the workload seed, each compiled at
 * TriQ-1QOptCN once with the greedy mapper and once with B&B. The
 * mapper hill-climb, B&B, the reliability matrix and routing of up to
 * 2016 2Q gates do the work; a simulator change should move nothing
 * here.
 */

#include "device/machines.hh"
#include "harness.hh"
#include "metrics.hh"
#include "core/esp.hh"
#include "core/fingerprint.hh"
#include "workloads/supremacy.hh"

using namespace triq;

namespace triqbench
{

namespace
{

/** The fig13 ladder: grid shape and circuit depth per rung. */
struct Rung
{
    int rows, cols, depth;
};
constexpr Rung kRungs[] = {
    {2, 3, 16}, {3, 4, 24}, {4, 4, 32}, {4, 6, 48},
    {6, 6, 64}, {6, 9, 96}, {6, 12, 128},
};

constexpr int kCircuitsPerRung = 4;

/**
 * The calibration day is fixed (fig13 uses day 1). Supremacy circuits
 * of one rung share their 2Q structure and differ only in 1Q gates, so
 * every seed maps and routes the same interaction graph: the seed
 * changes the circuits' content, not the amount of mapping work.
 */
constexpr int kDay = 1;

/**
 * B&B runs under a fixed node budget and no deadline, so its result
 * does not depend on machine speed (the budget micro_mapper uses).
 */
constexpr long kNodeBudget = 200000;

struct Op
{
    int rung = 0;
    int circuit = 0;
    MapperKind kind = MapperKind::Greedy;
};

struct OpOutput
{
    std::string digest;
    double esp = 0.0;
    double objective = 0.0;
    int twoQ = 0;
    int pulses1q = 0;
};

} // namespace

Outcome
runScale(const RunConfig &cfg, Tracer &tracer)
{
    Outcome out;
    SeedRng rng(cfg.seed);

    // ---- Set-up: one grid device per rung, its calibration, circuits.
    std::vector<Device> devices;
    std::vector<Calibration> calibs;
    std::vector<std::vector<Circuit>> circuits;
    const NoiseSpec noise = makeIbmQ14().noiseSpec();
    for (const Rung &r : kRungs) {
        int n = r.rows * r.cols;
        devices.emplace_back("Grid" + std::to_string(n),
                             Topology::grid(r.rows, r.cols), GateSet::ibm(),
                             noise);
        {
            Span s(tracer, "device.calibrate");
            calibs.push_back(devices.back().calibrate(kDay));
        }
        circuits.emplace_back();
        for (int k = 0; k < kCircuitsPerRung; ++k)
            circuits.back().push_back(
                makeSupremacy(r.rows, r.cols, r.depth, rng.next()));
    }
    std::vector<Op> ops;
    for (int r = 0; r < static_cast<int>(devices.size()); ++r)
        for (int k = 0; k < kCircuitsPerRung; ++k)
            for (MapperKind kind :
                 {MapperKind::Greedy, MapperKind::BranchAndBound})
                ops.push_back({r, k, kind});
    out.setupS = setupSeconds(cfg);
    if (cfg.setupOnly)
        return out;

    std::vector<OpOutput> first(ops.size());
    std::vector<bool> seen(ops.size(), false);
    double compile_ms = 0.0;
    ReplayStats replay;

    auto options = [](MapperKind kind) {
        CompileOptions opts;
        opts.level = OptLevel::OneQOptCN;
        opts.mapping.kind = kind;
        opts.mapping.nodeBudget = kNodeBudget;
        return opts;
    };

    auto run_op = [&](size_t i, bool traced, PhaseClock &clock) {
        const Op &op = ops[i];
        const Device &dev = devices[op.rung];
        const Calibration &calib = calibs[op.rung];
        const Circuit &program = circuits[op.rung][op.circuit];
        const CompileOptions opts = options(op.kind);
        ++out.attempted;
        tracer.setOp(out.attempted);

        auto t0 = Clock::now();
        CompileResult compiled;
        try {
            Span s(tracer, "bench.op");
            Span c(tracer, "core.compile");
            compiled = compileForDevice(program, dev, calib, opts);
        } catch (const std::exception &e) {
            out.fail(dev.name() + ": " + e.what());
            return msSince(t0);
        }
        double latency = msSince(t0);
        compile_ms += latency;

        OpOutput res;
        res.esp = estimatedSuccessProbability(compiled.hwCircuit,
                                              dev.topology(), calib);
        res.objective = compiled.mapperObjective;
        res.twoQ = compiled.stats.twoQ;
        res.pulses1q = compiled.stats.pulses1q;
        Digest digest;
        digest.add(compileResultDigest(compiled));
        digest.add(res.esp);
        res.digest = digest.hex();

        std::string err = checkEdges(compiled.hwCircuit, dev.topology());
        if (!err.empty()) {
            out.fail(dev.name() + ": " + err);
        } else if (!seen[i]) {
            seen[i] = true;
            first[i] = res;
        } else if (first[i].digest != res.digest) {
            out.fail(dev.name() + ": compile differs from the first pass");
        }

        if (traced) {
            auto td = Clock::now();
            err = replayCompile(tracer, program, dev, calib, opts, compiled,
                                latency, replay);
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
        runPhase(ops.size(), untraced_s, clock,
                 [&](size_t i) { return run_op(i, false, clock); });
    const double phase_s = clock.elapsedS();
    const double passes = static_cast<double>(op_ms.size()) / ops.size();
    reportLatency(out, op_ms, ops.size(), busySeconds(op_ms), phase_s);
    out.info("compile_ms", compile_ms / passes, "ms");

    std::vector<double> esps;
    double two_q = 0.0, pulses = 0.0;
    Digest pass_digest;
    for (size_t i = 0; i < ops.size(); ++i) {
        esps.push_back(first[i].esp);
        two_q += first[i].twoQ;
        pulses += first[i].pulses1q;
        pass_digest.add(first[i].digest);
    }
    // B&B starts from the greedy incumbent, so it may never end worse.
    for (size_t i = 0; i < ops.size(); ++i) {
        if (ops[i].kind != MapperKind::BranchAndBound)
            continue;
        for (size_t j = 0; j < ops.size(); ++j) {
            if (ops[j].kind == MapperKind::Greedy &&
                ops[j].rung == ops[i].rung &&
                ops[j].circuit == ops[i].circuit &&
                first[i].objective < first[j].objective) {
                ++out.attempted;
                out.fail(devices[ops[i].rung].name() +
                         ": B&B objective below greedy's");
            }
        }
    }
    out.e2e("esp_geomean", geomeanPositive(esps), "ratio");
    out.e2e("twoq_gates", two_q, "count");
    out.e2e("pulses_1q", pulses, "count");
    out.digest = pass_digest.hex();

    // ---- Traced phase: per-layer metrics.
    if (cfg.trace) {
        tracer.setEnabled(trace_setup);
        PhaseClock traced_clock;
        std::vector<double> traced_ms = runPhase(
            ops.size(), cfg.seconds / 2, traced_clock,
            [&](size_t i) { return run_op(i, true, traced_clock); });
        replay.report(out, tracer);
        out.layer("bench.trace_overhead_ratio",
                  (traced_ms.size() / traced_clock.elapsedS()) /
                      (op_ms.size() / phase_s),
                  "ratio");
    }
    return out;
}

} // namespace triqbench
