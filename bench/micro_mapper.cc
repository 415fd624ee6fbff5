/**
 * @file
 * Mapper-search microbenchmark: runs the fig13 supremacy grid rows
 * through three mapping engines against the same reliability matrix and
 * emits BENCH_mapper.json so CI can hold the B&B search to its
 * contract: warm starts must shrink the proof tree.
 *
 * Engines per row (all max-min objective, readout included):
 *   - greedy:  constructive placement + local search (the anytime
 *     floor; zero search nodes);
 *   - cold:    branch-and-bound with the row-relaxation admissible
 *     bound, equivalence-class symmetry pruning and sibling-dominance
 *     cuts, seeded from the greedy placement;
 *   - warm:    the same search warm-started from the previous
 *     calibration day's optimum — the incremental-remapping path a
 *     drift invalidation takes in the sweep engine.
 *
 * Node counts are exact and deterministic: the searches run under a
 * node budget only (no wall-clock deadline), so the gate cannot flake
 * on machine load; --reps repetitions exist purely to take a
 * min-over-reps wall time per engine.
 *
 * The gate (exit 6 on failure): warm_nodes <= cold_nodes on every row,
 * strictly fewer in total. Exit 4 is a determinism/soundness breach:
 * node counts or values changed across reps, the cold search returned a
 * worse value than its greedy seed, a warm-started search returned a
 * worse value than the cold search (the warm incumbent is never below
 * the cold one, so anytime dominance is a theorem), or both proved
 * optimality at different values. Exit 0 otherwise.
 *
 * Usage:
 *   micro_mapper [--budget N] [--reps N] [--json FILE]
 */

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstring>
#include <iostream>
#include <string>
#include <vector>

#include "bench_util.hh"
#include "common/env.hh"
#include "common/logging.hh"
#include "common/rng.hh"
#include "core/decompose.hh"
#include "core/mapper.hh"
#include "core/reliability.hh"
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

/** One engine's result on one row: min-over-reps wall time. */
struct EngineStat
{
    long nodes = 0;
    bool optimal = false;
    double value = 0.0; //!< Achieved max-min objective.
    double ms = 0.0;
    long boundPruned = 0;
    long symmetryPruned = 0;
    long dominancePruned = 0;
    bool deterministic = true; //!< Nodes/value identical across reps.
};

EngineStat
runEngine(const ProgramInfo &info, const ReliabilityMatrix &rel,
          const MappingOptions &opts, int reps)
{
    EngineStat s;
    for (int rep = 0; rep < reps; ++rep) {
        auto t0 = Clock::now();
        Mapping m = mapQubits(info, rel, opts);
        double ms = msSince(t0);
        if (rep == 0) {
            s.nodes = m.nodesExplored;
            s.optimal = m.optimal;
            s.value = m.minReliability;
            s.ms = ms;
        } else {
            if (ms < s.ms)
                s.ms = ms;
            if (m.nodesExplored != s.nodes || m.minReliability != s.value)
                s.deterministic = false;
        }
        s.boundPruned = m.boundPruned;
        s.symmetryPruned = m.symmetryPruned;
        s.dominancePruned = m.dominancePruned;
    }
    return s;
}

/** One fig13 grid row: all three engines on the same matrix. */
struct Row
{
    std::string name;
    int qubits = 0;
    int depth = 0;
    EngineStat greedy, cold, warm;
};

/** One engine's members of a row, each key prefixed "<prefix>_". */
void
writeEngine(JsonWriter &w, const std::string &prefix, const EngineStat &s,
            bool with_prunes)
{
    w.key(prefix + "_nodes").value(s.nodes);
    w.key(prefix + "_optimal").value(s.optimal);
    w.key(prefix + "_value").value(s.value);
    w.key(prefix + "_ms").value(s.ms);
    if (with_prunes) {
        w.key(prefix + "_bound_pruned").value(s.boundPruned);
        w.key(prefix + "_symmetry_pruned").value(s.symmetryPruned);
        w.key(prefix + "_dominance_pruned").value(s.dominancePruned);
    }
}

void
writeRow(JsonWriter &w, const Row &r)
{
    w.beginObject();
    w.key("name").value(r.name);
    w.key("qubits").value(r.qubits).key("depth").value(r.depth);
    w.key("greedy_value").value(r.greedy.value);
    w.key("greedy_ms").value(r.greedy.ms);
    writeEngine(w, "cold", r.cold, true);
    writeEngine(w, "warm", r.warm, false);
    w.endObject();
}

} // namespace

int
main(int argc, char **argv)
try {
    long budget = 200000; // fig13's per-compile node budget
    int reps = 3;
    std::string json_file;
    for (int i = 1; i < argc; ++i) {
        if (!std::strcmp(argv[i], "--budget"))
            budget = flagValue("--budget", bench::flagArg(argc, argv, i), 1L);
        else if (!std::strcmp(argv[i], "--reps"))
            reps = flagValue("--reps", bench::flagArg(argc, argv, i), 1);
        else if (!std::strcmp(argv[i], "--json"))
            json_file = bench::flagArg(argc, argv, i);
        else
            fatal("micro_mapper: unknown argument '", argv[i], "'");
    }

    // The fig13 scalability ladder: square-ish grids with the IBMQ14
    // noise model, exactly the devices whose compile times the paper's
    // scalability study reports.
    struct Config
    {
        int rows, cols, depth;
    };
    const Config configs[] = {{2, 3, 16}, {3, 4, 24},  {4, 4, 32},
                              {4, 6, 48}, {6, 6, 64},  {6, 9, 96},
                              {6, 12, 128}};
    const NoiseSpec noise = bench::deviceByName("IBMQ14").noiseSpec();

    MappingOptions cold_opts;
    cold_opts.kind = MapperKind::BranchAndBound;
    cold_opts.nodeBudget = budget;
    MappingOptions greedy_opts;
    greedy_opts.kind = MapperKind::Greedy;

    std::vector<Row> rows;
    for (const auto &cfg : configs) {
        int n = cfg.rows * cfg.cols;
        Device dev("Grid" + std::to_string(n),
                   Topology::grid(cfg.rows, cfg.cols), GateSet::ibm(),
                   noise);
        // The mapper's exact inputs at the noise-aware level: the
        // CNOT-basis interaction graph and the day's reliability
        // matrix (fig13 compiles against day 1).
        Circuit program =
            makeSupremacy(cfg.rows, cfg.cols, cfg.depth, 1);
        Circuit lowered =
            decomposeToCnotBasis(program, dev.gateSet().nativeCphase);
        ProgramInfo info = ProgramInfo::fromCircuit(lowered);
        Calibration today = dev.calibrate(1);
        ReliabilityMatrix rel(dev.topology(), today, dev.vendor());

        Row row;
        row.name = "Supremacy" + std::to_string(n) + "d" +
                   std::to_string(cfg.depth);
        row.qubits = n;
        row.depth = cfg.depth;
        row.greedy = runEngine(info, rel, greedy_opts, reps);
        row.cold = runEngine(info, rel, cold_opts, reps);

        // The drift-remap scenario: "yesterday" is a small
        // deterministic perturbation of today's error rates — the
        // few-percent day-to-day drift the sweep's drift threshold guards
        // against. Yesterday's optimum (untimed cold solve) seeds
        // today's search, exactly what the sweep engine does when a
        // drift invalidation forces a recompile.
        Calibration prev_calib = today;
        Rng drift(1234 + static_cast<uint64_t>(n));
        for (auto &e : prev_calib.err2q)
            e *= drift.uniform(0.97, 1.03);
        for (auto &e : prev_calib.errRO)
            e *= drift.uniform(0.97, 1.03);
        ReliabilityMatrix rel_prev(dev.topology(), prev_calib,
                                   dev.vendor());
        Mapping prev = mapQubits(info, rel_prev, cold_opts);
        MappingOptions warm_opts = cold_opts;
        warm_opts.warmStart = prev.progToHw;
        warm_opts.warmStartOrigin = "drift(day 2)";
        row.warm = runEngine(info, rel, warm_opts, reps);

        rows.push_back(std::move(row));
    }

    // --- soundness / determinism checks (exit 4).
    const double eps = 1e-12;
    bool sound = true;
    auto breach = [&](const Row &r, const std::string &what) {
        sound = false;
        std::cerr << "micro_mapper: BREACH " << r.name << ": " << what
                  << "\n";
    };
    for (const Row &r : rows) {
        for (const EngineStat *s : {&r.greedy, &r.cold, &r.warm})
            if (!s->deterministic)
                breach(r, "node count or value changed across reps");
        // The cold search seeds from the greedy incumbent and accepts
        // only strict improvements, so it can never come back worse.
        if (r.cold.value + eps < r.greedy.value)
            breach(r, "cold value below the greedy seed");
        // The warm incumbent starts at least as high (the engine keeps
        // the better of the warm and greedy seeds) and pruning is
        // sound, so the warm anytime value cannot be worse.
        if (r.warm.value + eps < r.cold.value)
            breach(r, "warm-start value below the cold value");
        // Two proofs of optimality must agree on the optimum.
        if (r.warm.optimal && r.cold.optimal &&
            std::abs(r.warm.value - r.cold.value) > eps)
            breach(r, "warm and cold both optimal at different values");
    }

    // --- the perf gate (exit 6): a warm incumbent can only tighten
    // pruning, so it must never grow the proof tree.
    bool gate_ok = true;
    long cold_total = 0, warm_total = 0;
    for (const Row &r : rows) {
        cold_total += r.cold.nodes;
        warm_total += r.warm.nodes;
        if (r.warm.nodes > r.cold.nodes) {
            gate_ok = false;
            std::cerr << "micro_mapper: GATE " << r.name
                      << ": warm start explored " << r.warm.nodes
                      << " nodes, cold " << r.cold.nodes << "\n";
        }
    }
    if (warm_total >= cold_total && cold_total > 0) {
        gate_ok = false;
        std::cerr << "micro_mapper: GATE warm starts explored "
                  << warm_total << " total nodes, cold " << cold_total
                  << "\n";
    }

    JsonWriter w;
    w.beginObject();
    w.key("budget").value(budget).key("reps").value(reps);
    w.key("rows").beginArray();
    for (const Row &r : rows)
        writeRow(w, r);
    w.endArray();
    w.key("cold_total_nodes").value(cold_total);
    w.key("warm_total_nodes").value(warm_total);
    w.key("sound").value(sound).key("gate_pass").value(gate_ok);
    w.endObject();
    bench::writeReport("micro_mapper", w, json_file);
    if (!sound)
        return 4;
    if (!gate_ok)
        return 6;
    return 0;
} catch (const FatalError &) {
    return 1;
}
