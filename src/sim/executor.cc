#include "sim/executor.hh"

#include <algorithm>
#include <optional>
#include <sstream>

#include "common/logging.hh"
#include "common/resource.hh"
#include "common/rng.hh"
#include "common/sched.hh"
#include "core/esp.hh"
#include "sim/fusion.hh"
#include "sim/noise.hh"
#include "sim/pauli_frame.hh"
#include "sim/sim_cost.hh"
#include "sim/statevector.hh"

namespace triq
{

namespace
{

/** Trials per RNG chunk; part of the sampling contract (see header). */
constexpr int kChunkTrials = 64;

/** Histograms this narrow use a flat per-chunk count vector. */
constexpr size_t kFlatHistogramBits = 12;

/** Map a sampled basis index to the measured-qubit key. */
uint64_t
outcomeKey(uint64_t basis, const std::vector<ProgQubit> &measured)
{
    uint64_t key = 0;
    for (size_t k = 0; k < measured.size(); ++k)
        key |= ((basis >> measured[k]) & 1) << k;
    return key;
}

/**
 * Every Bernoulli draw a trial makes, built once per call. A trial draws
 * its sites in site order and its readout flips in key-bit order, as
 * Rng::bernoulli would: a probability >= 1 fires without a draw, one
 * <= 0 neither fires nor draws, and every other one (a NaN too) makes
 * one draw against its Rng::bernoulliThreshold.
 */
struct DrawPlan
{
    /** One draw: it fires when Rng::uniformBelow(threshold). */
    struct Draw
    {
        uint64_t threshold;
        size_t index; // the site's injection rank, or the key bit
    };

    /** Site indices by injection rank: (gateIdx, site index) ascending. */
    std::vector<size_t> injOrder;

    /** The sites that draw, in site order. */
    std::vector<Draw> sites;

    /** Injection ranks of the sites that always fire. */
    std::vector<size_t> alwaysFired;

    /** The key bits whose readout flip draws, in bit order. */
    std::vector<Draw> readout;

    /** Key bits whose readout always flips. */
    uint64_t readoutAlways = 0;
};

DrawPlan
drawPlan(const NoisyCircuit &nc)
{
    const std::vector<ErrorSite> &sites = nc.sites;
    DrawPlan plan;
    plan.injOrder.resize(sites.size());
    for (size_t i = 0; i < sites.size(); ++i)
        plan.injOrder[i] = i;
    std::stable_sort(plan.injOrder.begin(), plan.injOrder.end(),
                     [&](size_t a, size_t b) {
                         return sites[a].gateIdx < sites[b].gateIdx;
                     });
    std::vector<size_t> rank(sites.size());
    for (size_t r = 0; r < sites.size(); ++r)
        rank[plan.injOrder[r]] = r;

    for (size_t i = 0; i < sites.size(); ++i) {
        const double p = sites[i].prob;
        if (p >= 1.0)
            plan.alwaysFired.push_back(rank[i]);
        else if (!(p <= 0.0))
            plan.sites.push_back({Rng::bernoulliThreshold(p), rank[i]});
    }

    for (size_t k = 0; k < nc.roErr.size(); ++k) {
        const double p = nc.roErr[k];
        if (p >= 1.0)
            plan.readoutAlways |= uint64_t{1} << k;
        else if (!(p <= 0.0))
            plan.readout.push_back({Rng::bernoulliThreshold(p), k});
    }
    return plan;
}

/** Read-only per-call context shared by every chunk. */
struct TrajectoryContext
{
    const NoisyCircuit *noisy;
    const DrawPlan *plan;
    const StateVector *ideal;
    const std::vector<StateVector> *checkpoints; // [k]: after k + 1 gates
    const FusedProgram *fused; // null = replay plain gates
    const FlipTable *frame; // non-null = Clifford frame path, no replay
    uint64_t correctOutcome;
    bool flatHistogram;
};

/** Per-chunk accumulator; merged into the result in chunk order. */
struct ChunkStats
{
    int successes = 0;
    int simulated = 0;
    std::vector<int> flat;
    std::unordered_map<uint64_t, int> sparse;
};

/**
 * Apply the unitary gates in [from, to) — through the fused program
 * when fusion is on, gate by gate otherwise.
 */
void
advanceState(const TrajectoryContext &ctx, StateVector &sv, int from,
             int to)
{
    if (ctx.fused != nullptr) {
        ctx.fused->apply(sv, from, to);
        return;
    }
    for (int gi = from; gi < to; ++gi) {
        const Gate &g = ctx.noisy->circuit.gate(gi);
        if (g.kind != GateKind::Measure)
            sv.applyGate(g);
    }
}

/** Inject the Pauli a (site, code) pair denotes. */
void
injectPauli(StateVector &sv, const ErrorSite &s, int code)
{
    auto pauli1 = [&](int q, int which) {
        switch (which) {
          case 0:
            sv.applyX(q);
            break;
          case 1:
            sv.applyY(q);
            break;
          default:
            sv.applyZ(q);
            break;
        }
    };
    if (s.idle) {
        sv.applyZ(s.q0);
        return;
    }
    if (s.q1 == -1) {
        pauli1(s.q0, code);
        return;
    }
    int p0 = code & 3, p1 = (code >> 2) & 3;
    if (p0 != 0)
        pauli1(s.q0, p0 - 1);
    if (p1 != 0)
        pauli1(s.q1, p1 - 1);
}

/**
 * Load the ideal state after min(`prefix`, K) gates into `sv`, where K
 * is the number of checkpoints (|0...0> when that is 0). The caller
 * passes one past its first faulted gate: every Pauli is injected after
 * its gate, so that prefix is fault-free and its evolution is the ideal
 * one.
 * @return Number of gates already applied to `sv`.
 */
int
seekCheckpoint(const TrajectoryContext &ctx, StateVector &sv, int prefix)
{
    const std::vector<StateVector> &ckpts = *ctx.checkpoints;
    const int applied = std::min(prefix, static_cast<int>(ckpts.size()));
    if (applied == 0)
        sv.reset();
    else
        sv.amps() = ckpts[static_cast<size_t>(applied - 1)].amps();
    return applied;
}

/**
 * Run one chunk of trials on the RNG stream (seed, chunk index). Every
 * random draw happens in a fixed per-trial order on both paths: the
 * site Bernoullis in site order, the fired sites' Pauli codes in
 * injection order, the measurement sample, then the readout flips. So
 * the chunk's outcome depends only on its stream, never on which worker
 * thread runs it or on how many checkpoints exist.
 *
 * A trial draws through ctx.plan into a short list of fired injection
 * ranks, which it sorts; a trial walks only the sites that fired.
 */
void
runChunk(const TrajectoryContext &ctx, Rng rng, int chunk_trials,
         ChunkStats &out)
{
    const NoisyCircuit &nc = *ctx.noisy;
    const DrawPlan &plan = *ctx.plan;
    const std::vector<ErrorSite> &sites = nc.sites;
    const std::vector<ProgQubit> &measured = nc.measured;
    const int num_gates = nc.circuit.numGates();

    // The frame path replays nothing, so it holds no trajectory state.
    std::optional<StateVector> traj;
    if (ctx.frame == nullptr)
        traj.emplace(nc.circuit.numQubits());
    std::vector<size_t> fired;
    fired.reserve(plan.alwaysFired.size() + plan.sites.size());
    if (ctx.flatHistogram)
        out.flat.assign(uint64_t{1} << measured.size(), 0);
    else
        out.sparse.reserve(static_cast<size_t>(chunk_trials));

    for (int t = 0; t < chunk_trials; ++t) {
        fired.assign(plan.alwaysFired.begin(), plan.alwaysFired.end());
        for (const DrawPlan::Draw &d : plan.sites)
            if (rng.uniformBelow(d.threshold))
                fired.push_back(d.index);
        if (fired.size() > 1)
            std::sort(fired.begin(), fired.end());
        if (!fired.empty())
            ++out.simulated;
        uint64_t key;
        if (ctx.frame != nullptr) {
            // Clifford frame path: each fired Pauli XORs its fixed flip
            // mask into the correct answer. The draws are replay's: the
            // codes in injection order, then the measurement sample,
            // whose outcome the deterministic output already fixes.
            key = ctx.correctOutcome;
            for (size_t r : fired) {
                const size_t i = plan.injOrder[r];
                const int code = drawPauliCode(rng, sites[i]);
                key ^= ctx.frame->flips[kPauliCodes * i +
                                        static_cast<size_t>(code)];
            }
            (void)rng.uniform();
        } else if (fired.empty()) {
            // Fault-free trajectory: sample from the cached ideal state.
            key = outcomeKey(ctx.ideal->sampleMeasurement(rng), measured);
        } else {
            // The lowest rank holds the first faulted gate.
            const int first_gate = sites[plan.injOrder[fired[0]]].gateIdx;
            int pos = seekCheckpoint(ctx, *traj, first_gate + 1);
            // Walk the fired sites in injection order, advancing the
            // state up to each site's gate before injecting its Pauli.
            for (size_t r : fired) {
                const ErrorSite &s = sites[plan.injOrder[r]];
                advanceState(ctx, *traj, pos, s.gateIdx + 1);
                pos = std::max(pos, s.gateIdx + 1);
                injectPauli(*traj, s, drawPauliCode(rng, s));
            }
            advanceState(ctx, *traj, pos, num_gates);
            key = outcomeKey(traj->sampleMeasurement(rng), measured);
        }
        // Classical readout errors flip measured bits independently.
        for (const DrawPlan::Draw &d : plan.readout)
            if (rng.uniformBelow(d.threshold))
                key ^= uint64_t{1} << d.index;
        key ^= plan.readoutAlways;
        if (key == ctx.correctOutcome)
            ++out.successes;
        if (ctx.flatHistogram)
            ++out.flat[key];
        else
            ++out.sparse[key];
    }
}

/**
 * The executeNoisy body, running the engine layers `layers` turns on.
 * `planned_bytes` reports the reservation the run held, so the public
 * wrapper can attribute a std::bad_alloc that escapes any allocation
 * in here (including ones rethrown from pool workers) to a sized,
 * structured ResourceError.
 */
ExecutionResult
executeNoisyImpl(const Circuit &hw, const Device &dev,
                 const Calibration &calib, int trials, uint64_t seed,
                 const ExecOptions &opts, detail::EngineLayers layers,
                 uint64_t &planned_bytes)
{
    if (trials < 1)
        fatal("executeNoisy: need at least one trial");
    if (hw.numQubits() != dev.numQubits())
        fatal("executeNoisy: circuit width ", hw.numQubits(),
              " does not match device ", dev.name());

    // Never trust the calibration feed: a NaN or negative rate here
    // would silently poison every Bernoulli draw, and an undersized
    // vector would read out of bounds below. The repair count goes to
    // the caller, which decides whether to report it.
    ExecutionResult res;
    Calibration safe = calib;
    {
        Diagnostics cdiags("calibration");
        res.calibrationRepairs =
            safe.validate(dev.topology(), ValidateMode::Sanitize, cdiags);
        cdiags.throwIfErrors("executeNoisy: unusable calibration for " +
                             dev.name());
    }

    const NoisyCircuit nc = noisyCircuit(hw, dev.topology(), safe);
    const Circuit &circuit = nc.circuit;
    const std::vector<ErrorSite> &sites = nc.sites;
    const std::vector<ProgQubit> &measured = nc.measured;

    // forEachIndex applies the thread rule.
    int threads = opts.threads;

    // Shard trials into chunks; chunk ci owns the RNG stream
    // (seed, ci), and chunks merge in index order below, so the result
    // is a pure function of (seed, trials) — never of the thread count.
    const int num_chunks = (trials + kChunkTrials - 1) / kChunkTrials;
    const uint64_t stream_seed = seed ^ 0xABCDEF1234567890ull;

    // The Clifford frame path (sim/pauli_frame.hh) replays nothing:
    // when the flip table is deterministic, a fault flips fixed key
    // bits. It is picked first because it decides what the run
    // reserves; every other circuit replays.
    std::optional<FlipTable> frame;
    if (layers.frame)
        frame = pauliFlipTable(circuit, sites, measured);
    const bool use_frame = frame && frame->deterministic;

    // Reserve the run's memory against the process budget before the
    // first state vector exists (sim/sim_cost.hh): the ideal state
    // alone on the frame path, else (1 + workers + K) states, one
    // trajectory state per chunk in flight and K ideal-prefix
    // checkpoints. When a replay plan does not fit, the low-memory
    // plan (serial, no checkpoints: two states) takes its place; only
    // when no plan fits does the reservation throw a structured
    // ResourceError. The plan changes time, never results.
    ResourceGovernor &gov = processGovernor();
    const int active_qubits = circuit.numQubits();
    const int num_gates = circuit.numGates();
    int num_checkpoints = layers.checkpoints && !use_frame
                              ? checkpointCount(active_qubits, num_gates)
                              : 0;
    planned_bytes = predictSimulationBytes(
        active_qubits, use_frame ? 0 : fanOutWidth(threads, num_chunks),
        num_checkpoints);
    MemReservation reservation;
    try {
        reservation = MemReservation(gov, planned_bytes,
                                     "simulation of " + hw.name());
    } catch (const ResourceError &) {
        if (use_frame)
            throw;
        threads = 1;
        num_checkpoints = 0;
        planned_bytes = predictSimulationBytes(active_qubits, 1, 0);
        reservation = MemReservation(
            gov, planned_bytes, "low-memory simulation of " + hw.name());
    }

    // The ideal evolution, gate by gate, keeping the state after each
    // of the first K gates so faulty trajectories can resume
    // mid-circuit. The final state doubles as the fault-free sampling
    // cache and the benchmark's correct answer. The pass never goes
    // through the fused program, so the checkpoints (and the cache)
    // are bitwise independent of fusion.
    StateVector ideal(active_qubits);
    std::vector<StateVector> checkpoints;
    checkpoints.reserve(static_cast<size_t>(num_checkpoints));
    for (int gi = 0; gi < num_gates; ++gi) {
        const Gate &g = circuit.gate(gi);
        if (g.kind != GateKind::Measure)
            ideal.applyGate(g);
        if (gi < num_checkpoints)
            checkpoints.push_back(ideal);
    }

    // The benchmark's correct answer: the dominant outcome of the
    // *measured-qubit marginal* (unmeasured ancillas may legitimately
    // end in superposition).
    std::vector<double> marginal(uint64_t{1} << measured.size(), 0.0);
    for (uint64_t b = 0; b < ideal.dim(); ++b) {
        double p = ideal.probability(b);
        if (p > 0.0)
            marginal[outcomeKey(b, measured)] += p;
    }
    uint64_t ideal_key = 0;
    double ideal_prob = -1.0;
    for (uint64_t k = 0; k < marginal.size(); ++k)
        if (marginal[k] > ideal_prob) {
            ideal_prob = marginal[k];
            ideal_key = k;
        }
    res.correctOutcome = ideal_key;
    res.idealOutcomeProb = ideal_prob;
    res.trials = trials;
    res.esp = estimatedSuccessProbability(hw, dev.topology(), safe);
    res.noErrorProb = noErrorProbability(sites);

    // Every trial draws its fired sites' Pauli codes and applies their
    // injections in the plan's injection order.
    const DrawPlan plan = drawPlan(nc);

    const bool fuse = layers.gateFusion && !use_frame;
    // Replay goes through dense one- and two-qubit operators. A resume
    // or a Pauli inside one costs one pass of its split head or tail,
    // and two faults inside one cost two passes (FusedProgram::apply).
    FusedProgram fused_program;
    if (fuse)
        fused_program = FusedProgram(circuit);

    TrajectoryContext ctx;
    ctx.noisy = &nc;
    ctx.plan = &plan;
    ctx.ideal = &ideal;
    ctx.checkpoints = &checkpoints;
    ctx.fused = fuse ? &fused_program : nullptr;
    ctx.frame = use_frame ? &*frame : nullptr;
    ctx.correctOutcome = ideal_key;
    ctx.flatHistogram = measured.size() <= kFlatHistogramBits;

    // The RNG chunking is fixed above, so the fan-out can never change
    // a result — only its wall-clock time.
    std::vector<ChunkStats> stats(static_cast<size_t>(num_chunks));
    res.sched = forEachIndex(threads, num_chunks, [&](int ci) {
        runChunk(ctx, Rng::stream(stream_seed, static_cast<uint64_t>(ci)),
                 std::min(kChunkTrials, trials - ci * kChunkTrials),
                 stats[static_cast<size_t>(ci)]);
    });

    // Chunk-ordered merge keeps even the histogram's unordered-map
    // construction sequence identical across thread counts.
    int successes = 0;
    if (ctx.flatHistogram) {
        std::vector<int> total(uint64_t{1} << measured.size(), 0);
        for (const ChunkStats &s : stats) {
            successes += s.successes;
            res.simulatedTrajectories += s.simulated;
            for (size_t k = 0; k < total.size(); ++k)
                total[k] += s.flat[k];
        }
        res.histogram.reserve(total.size());
        for (size_t k = 0; k < total.size(); ++k)
            if (total[k] != 0)
                res.histogram.emplace(static_cast<uint64_t>(k), total[k]);
    } else {
        res.histogram.reserve(static_cast<size_t>(trials));
        for (const ChunkStats &s : stats) {
            successes += s.successes;
            res.simulatedTrajectories += s.simulated;
            for (const auto &[key, count] : s.sparse)
                res.histogram[key] += count;
        }
    }
    res.successRate = static_cast<double>(successes) / trials;
    int modal_count = 0;
    for (const auto &[key, count] : res.histogram)
        if (count > modal_count)
            modal_count = count;
    res.correctIsModal = successes == modal_count;
    return res;
}

/**
 * executeNoisyImpl with a std::bad_alloc from any allocation the
 * reservation did not cover (or an untracked ancillary one) surfaced as
 * the same structured resource error the reservation path throws,
 * never as an unhandled abort.
 */
ExecutionResult
executeGuarded(const Circuit &hw, const Device &dev,
               const Calibration &calib, int trials, uint64_t seed,
               const ExecOptions &opts, detail::EngineLayers layers)
{
    uint64_t planned_bytes = 0;
    try {
        return executeNoisyImpl(hw, dev, calib, trials, seed, opts, layers,
                                planned_bytes);
    } catch (const std::bad_alloc &) {
        ResourceGovernor &gov = processGovernor();
        std::ostringstream msg;
        msg << "simulation of " << hw.name()
            << " failed to allocate (planned "
            << formatBytes(planned_bytes) << ", budget "
            << formatBytes(gov.budgetBytes()) << ")";
        throw ResourceError(msg.str(), planned_bytes, gov.budgetBytes(),
                            gov.committedBytes());
    }
}

} // namespace

std::vector<std::pair<uint64_t, int>>
ExecutionResult::sortedHistogram() const
{
    std::vector<std::pair<uint64_t, int>> out(histogram.begin(),
                                              histogram.end());
    std::sort(out.begin(), out.end());
    return out;
}

ExecutionResult
executeNoisy(const Circuit &hw, const Device &dev, const Calibration &calib,
             int trials, uint64_t seed, const ExecOptions &opts)
{
    return executeGuarded(hw, dev, calib, trials, seed, opts, {});
}

namespace detail
{

ExecutionResult
executeNoisyWith(const Circuit &hw, const Device &dev,
                 const Calibration &calib, int trials, uint64_t seed,
                 const ExecOptions &opts, EngineLayers layers)
{
    return executeGuarded(hw, dev, calib, trials, seed, opts, layers);
}

} // namespace detail

uint64_t
outcomeForProgram(uint64_t key, const Circuit &hw,
                  const std::vector<HwQubit> &final_map,
                  const std::vector<ProgQubit> &prog_measured)
{
    std::vector<ProgQubit> hw_measured = hw.measuredQubits();
    uint64_t out = 0;
    for (size_t k = 0; k < prog_measured.size(); ++k) {
        ProgQubit p = prog_measured[k];
        if (p < 0 || p >= static_cast<int>(final_map.size()))
            fatal("outcomeForProgram: program qubit ", p,
                  " has no final-map entry");
        HwQubit h = final_map[static_cast<size_t>(p)];
        auto it = std::find(hw_measured.begin(), hw_measured.end(), h);
        if (it == hw_measured.end())
            fatal("outcomeForProgram: hardware qubit ", h,
                  " (program qubit ", p, ") is not measured");
        size_t pos = static_cast<size_t>(it - hw_measured.begin());
        out |= ((key >> pos) & 1) << k;
    }
    return out;
}

} // namespace triq
