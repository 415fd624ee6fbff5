/**
 * @file
 * The noisy executor: the repo's substitute for launching a compiled
 * program on one of the paper's seven machines (Sec. 5, "Real-System
 * QC Experiments"). Runs many trials of a translated hardware circuit
 * under the stochastic-Pauli noise model and reports the success rate —
 * the fraction of trials returning the benchmark's correct answer.
 *
 * Performance architecture (see DESIGN.md, "Simulator performance
 * architecture"). The engine always runs every layer it has; only the
 * detail::executeNoisyWith seam below turns one off, for tests and
 * micro_trajectory:
 *  - the circuit is compacted onto its active qubits and trials in
 *    which no error site fires reuse the cached ideal state;
 *  - trials are sharded into chunks of 64, each owning the RNG stream
 *    Rng::stream(seed, chunk_index); chunks run on the shared process
 *    pool through forEachIndex (common/sched.hh) and merge in chunk
 *    order, so results are a pure function of (seed, trials), whatever
 *    the thread count (ExecOptions::threads);
 *  - each call builds one draw plan, every site's and readout bit's
 *    Bernoulli as an integer threshold (Rng::bernoulliThreshold), so a
 *    trial draws straight into a short list of the sites that fired,
 *    sorts it by injection rank and walks only those; it makes
 *    Rng::bernoulli's draws, in the same order;
 *  - the ideal pass keeps the state after each of the first K gates
 *    (checkpointCount, sim/sim_cost.hh: every gate but the last while
 *    they fit 64 MiB), and a faulty trajectory whose first fault is at
 *    gate f resumes from the state after min(f + 1, K) gates instead
 *    of from |0...0> (every Pauli lands after its gate, so that prefix
 *    is fault-free);
 *  - a replay run reserves its (1 + workers + K) states against the
 *    process memory budget before allocating; when they do not fit it
 *    runs the low-memory plan, serial with no checkpoints (two
 *    states), which changes its time but not its results;
 *  - gate fusion (sim/fusion.hh) packs the compact circuit into dense
 *    one- and two-qubit operators, so each replay makes fewer passes
 *    over the state;
 *  - a circuit whose flip table (sim/pauli_frame.hh) is deterministic
 *    takes the frame path: a faulty trial's outcome is the correct
 *    answer XOR the fixed flip masks of its faults, so no trial
 *    replays, no checkpoint or fused program is built and the run
 *    holds the ideal state alone. It makes the same random draws as
 *    replay, in the same order, so its histograms are replay's.
 *
 * Every other faulty trial replays its own trajectory.
 */

#ifndef TRIQ_SIM_EXECUTOR_HH
#define TRIQ_SIM_EXECUTOR_HH

#include <cstdint>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/sched.hh"
#include "core/circuit.hh"
#include "device/device.hh"

namespace triq
{

/** Outcome of a noisy execution campaign. */
struct ExecutionResult
{
    /** Fraction of trials that produced the correct answer. */
    double successRate = 0.0;

    /** Correct answer over the measured qubits (ascending order). */
    uint64_t correctOutcome = 0;

    /** Trials run. */
    int trials = 0;

    /** Analytic ESP prediction for cross-checking. */
    double esp = 0.0;

    /** Probability that a trial contains no fault at all. */
    double noErrorProb = 0.0;

    /**
     * Faulty trials: those in which some error site fired. The replay
     * path simulates each one's trajectory; the Clifford frame path
     * XORs its flip masks instead. Fault-free trials sample the cached
     * ideal state.
     */
    int simulatedTrajectories = 0;

    /**
     * Ideal probability of correctOutcome over the measured qubits.
     * Below 1 the output is not deterministic (variational workloads
     * like QAOA, supremacy circuits): success is then counted against
     * the dominant outcome, and the histogram is the figure of merit.
     */
    double idealOutcomeProb = 0.0;

    /**
     * Calibration values repaired before sampling (Calibration::validate
     * in Sanitize mode); 0 for a valid snapshot.
     */
    int calibrationRepairs = 0;

    /**
     * True when the correct answer dominated the observed output
     * distribution. The paper plots runs where it did not as failures
     * (zero-height bars).
     */
    bool correctIsModal = false;

    /**
     * Observed outcome counts over the measured qubits (ascending
     * hardware order defines key bits). Lets variational workloads
     * (QAOA, VQE-style) evaluate expectation values instead of a
     * single-answer success rate. Unordered for hot-loop speed; use
     * sortedHistogram() wherever counts are printed or summed in a
     * reproducible order.
     */
    std::unordered_map<uint64_t, int> histogram;

    /**
     * What the trajectory fan-out did: threaded or serial, workers and
     * wall clock. Purely observational — results are bit-identical for
     * every thread count.
     */
    SchedDecision sched;

    /** Histogram entries sorted by ascending outcome key. */
    std::vector<std::pair<uint64_t, int>> sortedHistogram() const;
};

/** Settings for executeNoisy, each with its default. */
struct ExecOptions
{
    /**
     * Worker threads for trajectory chunks: 1 (the default) is the
     * serial path on the calling thread, N >= 2 runs N workers (at most
     * kMaxThreads) and <= 0 one worker per hardware thread — the rule
     * forEachIndex applies. Results are bit-identical for every value;
     * threads only change wall-clock time.
     */
    int threads = 1;

    /**
     * Ignored: gate kernels run serially inside each trajectory. Kept
     * only because the triqbench `triqd` workload sets it.
     */
    int kernelThreads = 0;
};

/**
 * Execute a translated hardware circuit under noise.
 *
 * @param hw Translated circuit over hardware qubits (must measure at
 *           least one qubit; all measurements must be terminal).
 * @param dev The device it was compiled for (topology + durations).
 * @param calib Calibration snapshot to draw error rates from — use the
 *              same "day" the compiler saw for a fair experiment, or a
 *              different one to study staleness.
 * @param trials Number of repetitions (the paper uses 8192 on
 *               superconducting machines, 5000 on UMDTI).
 * @param seed RNG seed; fixed seeds make experiments reproducible.
 * @param opts The worker-thread count.
 *
 * @note Nothing is printed. A circuit without a deterministic ideal
 *       output reports it through idealOutcomeProb, repaired
 *       calibration values through calibrationRepairs, and a memory
 *       budget that forces the serial low-memory plan through
 *       sched.threads; the caller decides what to show.
 */
ExecutionResult executeNoisy(const Circuit &hw, const Device &dev,
                             const Calibration &calib, int trials,
                             uint64_t seed = 12345,
                             const ExecOptions &opts = {});

namespace detail
{

/**
 * The engine layers executeNoisy stacks. Each is on by default, and
 * turning one off changes only the time a run takes: the frame path
 * and checkpoints keep results bit-identical by construction, fusion
 * empirically (it reassociates floating-point products, ~1e-15 per
 * gate).
 */
struct EngineLayers
{
    /** Clifford frame path where the flip table is deterministic. */
    bool frame = true;

    /** Replay through fused operators instead of gate by gate. */
    bool gateFusion = true;

    /** Resume faulty replays from ideal-prefix checkpoints. */
    bool checkpoints = true;
};

/**
 * Test and bench seam: executeNoisy with some engine layers turned
 * off, so tests can check each layer against the engine without it
 * and micro_trajectory can time what each one buys. Production code
 * calls executeNoisy, which runs every layer.
 */
ExecutionResult executeNoisyWith(const Circuit &hw, const Device &dev,
                                 const Calibration &calib, int trials,
                                 uint64_t seed, const ExecOptions &opts,
                                 EngineLayers layers);

} // namespace detail

/**
 * Re-order an outcome key from the executor's hardware-measured-qubit
 * order into *program*-qubit order.
 *
 * The executor keys outcomes by ascending measured hardware qubit. To
 * compare against program semantics (e.g. BV's hidden string), bit k of
 * the program outcome must be read from wherever the router left
 * program qubit `prog_measured[k]` — its entry in `final_map`.
 *
 * @param key Outcome from ExecutionResult (hardware order).
 * @param hw The compiled circuit the outcome came from.
 * @param final_map CompileResult::finalMap (program -> hardware).
 * @param prog_measured Measured qubits of the *source* program.
 */
uint64_t outcomeForProgram(uint64_t key, const Circuit &hw,
                           const std::vector<HwQubit> &final_map,
                           const std::vector<ProgQubit> &prog_measured);

} // namespace triq

#endif // TRIQ_SIM_EXECUTOR_HH
