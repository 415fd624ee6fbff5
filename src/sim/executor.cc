#include "sim/executor.hh"

#include <algorithm>
#include <chrono>
#include <climits>
#include <sstream>

#include "common/env.hh"
#include "common/logging.hh"
#include "common/resource.hh"
#include "common/rng.hh"
#include "common/sched.hh"
#include "common/thread_pool.hh"
#include "core/esp.hh"
#include "sim/compact.hh"
#include "sim/fusion.hh"
#include "sim/noise.hh"
#include "sim/sim_cost.hh"
#include "sim/statevector.hh"

namespace triq
{

namespace
{

/** Trials per RNG chunk; part of the sampling contract (see header). */
constexpr int kDefaultChunkSize = 64;

/** Milliseconds since `t0`. */
double
msSince(std::chrono::steady_clock::time_point t0)
{
    return std::chrono::duration<double, std::milli>(
               std::chrono::steady_clock::now() - t0)
        .count();
}

/** Histograms this narrow use a flat per-chunk count vector. */
constexpr size_t kFlatHistogramBits = 12;

/** Snapshot memory budget for automatic checkpoint spacing. */
constexpr uint64_t kCheckpointBudgetBytes = 64ull << 20;

/** Map a sampled basis index to the measured-qubit key. */
uint64_t
outcomeKey(uint64_t basis, const std::vector<ProgQubit> &measured)
{
    uint64_t key = 0;
    for (size_t k = 0; k < measured.size(); ++k)
        key |= ((basis >> measured[k]) & 1) << k;
    return key;
}

/** An ideal-evolution snapshot taken after `gatesApplied` gates. */
struct Checkpoint
{
    int gatesApplied;
    StateVector state;
};

/** Read-only per-call context shared by every chunk. */
struct TrajectoryContext
{
    const Circuit *circuit; // compact circuit
    const std::vector<ErrorSite> *sites;
    const std::vector<int> *injOrder; // site indices by (gateIdx, index)
    const std::vector<ProgQubit> *measured;
    const std::vector<double> *roErr;
    const StateVector *ideal;
    const std::vector<Checkpoint> *checkpoints; // ascending gatesApplied
    const FusedProgram *fused;                  // null = replay plain gates
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
        const Gate &g = ctx.circuit->gate(gi);
        if (g.kind != GateKind::Measure)
            sv.applyGate(g);
    }
}

/**
 * Draw the Pauli choice for a fired site. Idle sites deterministically
 * inject Z (pure dephasing) and consume no randomness; 1Q sites draw a
 * uniform X/Y/Z; 2Q sites draw a uniform non-identity two-qubit Pauli
 * (index 1..15 in base 4).
 */
int
drawPauliCode(Rng &rng, const ErrorSite &s)
{
    if (s.idle)
        return 0;
    if (s.q1 == -1)
        return rng.uniformInt(3);
    return 1 + rng.uniformInt(15);
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
 * Seek the last ideal-prefix checkpoint taken after at most `prefix`
 * gates and load it into `sv` (or reset to |0...0>). The caller passes
 * one past its first faulted gate: every Pauli is injected after its
 * gate, so that prefix is fault-free and its evolution is the ideal one.
 * @return Number of gates already applied to `sv`.
 */
int
seekCheckpoint(const TrajectoryContext &ctx, StateVector &sv, int prefix)
{
    const std::vector<Checkpoint> &ckpts = *ctx.checkpoints;
    auto it = std::upper_bound(
        ckpts.begin(), ckpts.end(), prefix,
        [](int g, const Checkpoint &c) { return g < c.gatesApplied; });
    if (it != ckpts.begin()) {
        const Checkpoint &c = *std::prev(it);
        sv.amps() = c.state.amps();
        return c.gatesApplied;
    }
    sv.reset();
    return 0;
}

/**
 * Run one chunk of trials on the RNG stream (seed, chunk index). Every
 * random draw happens in a fixed per-trial order (site Bernoullis,
 * Pauli choices in gate order, measurement sample, readout flips), so
 * the chunk's outcome depends only on its stream — never on which
 * worker thread runs it or on checkpoint spacing.
 */
void
runChunk(const TrajectoryContext &ctx, Rng rng, int chunk_trials,
         ChunkStats &out)
{
    const Circuit &circuit = *ctx.circuit;
    const std::vector<ErrorSite> &sites = *ctx.sites;
    const std::vector<ProgQubit> &measured = *ctx.measured;
    const std::vector<double> &ro_err = *ctx.roErr;
    const int num_gates = circuit.numGates();

    StateVector traj(circuit.numQubits());
    std::vector<bool> fired(sites.size(), false);
    if (ctx.flatHistogram)
        out.flat.assign(uint64_t{1} << measured.size(), 0);
    else
        out.sparse.reserve(static_cast<size_t>(chunk_trials));

    for (int t = 0; t < chunk_trials; ++t) {
        bool any = false;
        int first_gate = INT_MAX;
        for (size_t i = 0; i < sites.size(); ++i) {
            fired[i] = rng.bernoulli(sites[i].prob);
            if (fired[i]) {
                any = true;
                first_gate = std::min(first_gate, sites[i].gateIdx);
            }
        }
        uint64_t basis;
        if (!any) {
            // Fault-free trajectory: sample from the cached ideal state.
            basis = ctx.ideal->sampleMeasurement(rng);
        } else {
            ++out.simulated;
            int pos = seekCheckpoint(ctx, traj, first_gate + 1);
            // Walk the fired sites in injection order — (gateIdx, site
            // index) ascending — advancing the state up to each site's
            // gate before injecting its Pauli.
            for (int si : *ctx.injOrder) {
                if (!fired[static_cast<size_t>(si)])
                    continue;
                const ErrorSite &s = sites[static_cast<size_t>(si)];
                advanceState(ctx, traj, pos, s.gateIdx + 1);
                pos = std::max(pos, s.gateIdx + 1);
                injectPauli(traj, s, drawPauliCode(rng, s));
            }
            advanceState(ctx, traj, pos, num_gates);
            basis = traj.sampleMeasurement(rng);
        }
        uint64_t key = outcomeKey(basis, measured);
        // Classical readout errors flip measured bits independently.
        for (size_t k = 0; k < measured.size(); ++k)
            if (rng.bernoulli(ro_err[k]))
                key ^= uint64_t{1} << k;
        if (key == ctx.correctOutcome)
            ++out.successes;
        if (ctx.flatHistogram)
            ++out.flat[key];
        else
            ++out.sparse[key];
    }
}

/**
 * The executeNoisy body. `planned_bytes` reports the reservation the
 * run held, so the public wrapper can attribute a std::bad_alloc that
 * escapes any allocation in here (including ones rethrown from pool
 * workers) to a sized, structured ResourceError.
 */
ExecutionResult
executeNoisyImpl(const Circuit &hw, const Device &dev,
                 const Calibration &calib, int trials, uint64_t seed,
                 const ExecOptions &opts, uint64_t &planned_bytes)
{
    if (trials < 1)
        fatal("executeNoisy: need at least one trial");
    if (hw.numQubits() != dev.numQubits())
        fatal("executeNoisy: circuit width ", hw.numQubits(),
              " does not match device ", dev.name());

    // Never trust the calibration feed: a NaN or negative rate here
    // would silently poison every Bernoulli draw, and an undersized
    // vector would read out of bounds below.
    Calibration safe = calib;
    {
        Diagnostics cdiags("calibration");
        int repairs =
            safe.validate(dev.topology(), ValidateMode::Sanitize, cdiags);
        cdiags.throwIfErrors("executeNoisy: unusable calibration for " +
                             dev.name());
        if (repairs > 0)
            warn("executeNoisy: sanitized ", repairs,
                 " invalid calibration value(s)");
    }

    // Error sites are enumerated on the full-width circuit (edge lookup
    // needs hardware indices), then relabeled onto the compact register.
    std::vector<ErrorSite> sites =
        collectErrorSites(hw, dev.topology(), safe);
    CompactCircuit cc = compactCircuit(hw);
    for (auto &s : sites) {
        s.q0 = cc.hwToCompact[static_cast<size_t>(s.q0)];
        if (s.q1 != -1)
            s.q1 = cc.hwToCompact[static_cast<size_t>(s.q1)];
    }

    std::vector<ProgQubit> measured = cc.circuit.measuredQubits();
    if (measured.empty())
        fatal("executeNoisy: circuit measures no qubits");
    std::vector<double> ro_err(measured.size());
    for (size_t k = 0; k < measured.size(); ++k) {
        HwQubit hq = cc.compactToHw[static_cast<size_t>(measured[k])];
        ro_err[k] = safe.errRO[static_cast<size_t>(hq)];
    }

    // Thread request: > 0 forces that many workers (1 = true serial
    // path), < 0 is adaptive; 0 defers to TRIQ_SIM_THREADS where 0
    // again means adaptive. After this block, 0 = adaptive.
    int threads_req = opts.threads;
    if (threads_req == 0)
        threads_req = defaultSimThreads(1);
    if (threads_req < 0)
        threads_req = 0;

    // Reserve the run's predicted peak memory against the process
    // budget before the first state vector exists. When the full plan
    // does not fit, degrade to the low-memory plan (serial, no
    // checkpoints: ideal + one trajectory state) before
    // giving up; only when even that cannot fit does the reservation
    // throw a structured ResourceError.
    ResourceGovernor &gov = processGovernor();
    const int active_qubits = cc.circuit.numQubits();
    const int planned_workers =
        threads_req > 0 ? threads_req
                        : std::max(schedCalib().hardwareThreads, 1);
    bool low_mem = false;
    planned_bytes = predictSimulationBytes(active_qubits, planned_workers);
    MemReservation reservation;
    try {
        reservation = MemReservation(gov, planned_bytes,
                                     "simulation of " + hw.name());
    } catch (const ResourceError &) {
        planned_bytes = predictLowMemSimulationBytes(active_qubits);
        reservation = MemReservation(
            gov, planned_bytes, "low-memory simulation of " + hw.name());
        low_mem = true;
        threads_req = 1;
        warn("executeNoisy: memory budget ",
             formatBytes(gov.budgetBytes()), " forces the low-memory ",
             "plan for ", hw.name(), " (serial trajectories, no ",
             "checkpoints)");
    }

    // Ideal reference evolution, snapshotted every K gates so faulty
    // trajectories can resume mid-circuit. K is chosen so the snapshots
    // stay within a fixed memory budget; the final state doubles as the
    // fault-free sampling cache and the benchmark's correct answer.
    // The ideal pass stays gate-by-gate even with fusion on, so the
    // checkpoints (and the fault-free sampling cache) are bitwise
    // independent of the fusion setting.
    const int num_gates = cc.circuit.numGates();
    StateVector ideal(cc.circuit.numQubits());
    int interval = low_mem ? -1 : opts.checkpointInterval;
    if (interval == 0) {
        uint64_t bytes_per = ideal.dim() * sizeof(Cplx);
        int max_ckpts = static_cast<int>(std::clamp<uint64_t>(
            kCheckpointBudgetBytes / std::max<uint64_t>(bytes_per, 1), 1,
            1024));
        interval = std::max(1, (num_gates + max_ckpts - 1) / max_ckpts);
    }
    std::vector<Checkpoint> checkpoints;
    for (int gi = 0; gi < num_gates; ++gi) {
        const Gate &g = cc.circuit.gate(gi);
        if (g.kind != GateKind::Measure)
            ideal.applyGate(g);
        int applied = gi + 1;
        if (interval > 0 && applied % interval == 0 &&
            applied < num_gates)
            checkpoints.push_back({applied, ideal});
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
    ExecutionResult res;
    res.correctOutcome = ideal_key;
    res.trials = trials;
    res.esp = estimatedSuccessProbability(hw, dev.topology(), safe);
    res.noErrorProb = noErrorProbability(sites);
    if (ideal_prob < 0.99)
        warn("executeNoisy: ", hw.name(),
             " has a non-deterministic ideal output (p=", ideal_prob,
             "); success is counted against the dominant outcome");

    // Injection order: site indices sorted by (gateIdx, site index).
    // Every trial draws its fired sites' Pauli codes and applies their
    // injections in exactly this order.
    std::vector<int> inj_order(sites.size());
    for (size_t i = 0; i < sites.size(); ++i)
        inj_order[i] = static_cast<int>(i);
    std::stable_sort(inj_order.begin(), inj_order.end(),
                     [&](int a, int b) {
                         return sites[static_cast<size_t>(a)].gateIdx <
                                sites[static_cast<size_t>(b)].gateIdx;
                     });

    const bool use_fusion =
        opts.fusion > 0 || (opts.fusion == 0 && defaultSimFusion());
    FusedProgram fused_program;
    if (use_fusion) {
        // Align fused operators to the checkpoint interval so replays
        // resumed from a checkpoint start on an operator boundary. A
        // per-gate interval would forbid all fusion, so leave operators
        // unaligned there: a resume or a Pauli inside an operator costs
        // one pass of its split head or tail (FusedProgram::apply).
        FusionOptions fopt;
        fopt.alignBoundary = interval > 1 ? interval : 0;
        fused_program = FusedProgram(cc.circuit, fopt);
    }

    TrajectoryContext ctx;
    ctx.circuit = &cc.circuit;
    ctx.sites = &sites;
    ctx.injOrder = &inj_order;
    ctx.measured = &measured;
    ctx.roErr = &ro_err;
    ctx.ideal = &ideal;
    ctx.checkpoints = &checkpoints;
    ctx.fused = use_fusion ? &fused_program : nullptr;
    ctx.correctOutcome = ideal_key;
    ctx.flatHistogram = measured.size() <= kFlatHistogramBits;

    // Shard trials into chunks; chunk ci owns the RNG stream
    // (seed, ci), and chunks merge in index order below, so the result
    // is a pure function of (seed, trials, chunk size) — never of the
    // thread count.
    const int chunk_size =
        opts.chunkSize > 0 ? opts.chunkSize : kDefaultChunkSize;
    const int num_chunks = (trials + chunk_size - 1) / chunk_size;
    const uint64_t stream_seed = seed ^ 0xABCDEF1234567890ull;

    // Plan the chunk fan-out: a forced thread request batches onto the
    // pool even where the model predicts a loss; otherwise the cost
    // model picks serial or threaded. The RNG chunking is fixed above,
    // so the plan can never change a result — only its wall-clock time.
    const SchedCalib &scal = schedCalib();
    const double chunk_us = estimateChunkUs(
        scal, cc.circuit.numQubits(), num_gates, chunk_size,
        std::clamp(1.0 - res.noErrorProb, 0.0, 1.0));
    SchedDecision dec =
        threads_req > 0
            ? planForced(scal, num_chunks, chunk_us, threads_req,
                         processPoolStarted())
            : planParallel(scal, num_chunks, chunk_us, 0,
                           processPoolStarted());

    std::vector<ChunkStats> stats(static_cast<size_t>(num_chunks));
    auto run_chunks = [&](int lo, int hi) {
        for (int ci = lo; ci < hi; ++ci)
            runChunk(ctx,
                     Rng::stream(stream_seed, static_cast<uint64_t>(ci)),
                     std::min(chunk_size, trials - ci * chunk_size),
                     stats[static_cast<size_t>(ci)]);
    };
    auto t_run = std::chrono::steady_clock::now();
    if (dec.threaded)
        parallelForRanges(processPool(dec.threads), num_chunks,
                          dec.itemsPerTask, run_chunks);
    else
        run_chunks(0, num_chunks);
    dec.actualMs = msSince(t_run);
    res.sched = dec;

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
    uint64_t planned_bytes = 0;
    try {
        return executeNoisyImpl(hw, dev, calib, trials, seed, opts,
                                planned_bytes);
    } catch (const std::bad_alloc &) {
        // An allocation the reservation did not cover (or an untracked
        // ancillary one) failed. Surface it as the same structured
        // resource error the reservation path throws, never as an
        // unhandled abort.
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

int
defaultTrials(int fallback)
{
    return envInt("TRIQ_TRIALS", fallback, 1);
}

int
defaultSimThreads(int fallback)
{
    // min 0: TRIQ_SIM_THREADS=0 is valid and means "adaptive".
    return envInt("TRIQ_SIM_THREADS", fallback, 0);
}

bool
defaultSimFusion(bool fallback)
{
    return envInt("TRIQ_SIM_FUSION", fallback ? 1 : 0, 0) != 0;
}

} // namespace triq
