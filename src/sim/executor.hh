/**
 * @file
 * The noisy executor: the repo's substitute for launching a compiled
 * program on one of the paper's seven machines (Sec. 5, "Real-System
 * QC Experiments"). Runs many trials of a translated hardware circuit
 * under the stochastic-Pauli noise model and reports the success rate —
 * the fraction of trials returning the benchmark's correct answer.
 *
 * Performance architecture (see DESIGN.md, "Simulator performance
 * architecture"):
 *  - the circuit is compacted onto its active qubits and trials in
 *    which no error site fires reuse the cached ideal state;
 *  - trials are sharded into fixed-size chunks, each owning the RNG
 *    stream Rng::stream(seed, chunk_index); chunks run on the shared
 *    process pool and merge in chunk order, so results are
 *    bit-identical for any thread count (TRIQ_SIM_THREADS; 0 = let the
 *    common/sched.hh cost model decide serial vs. threaded and batch
 *    several chunks per pool task);
 *  - faulty trajectories resume from the nearest ideal-prefix
 *    checkpoint through their first faulted gate (every Pauli lands
 *    after its gate, so that prefix is fault-free) instead of from
 *    |0...0>;
 *  - gate fusion (sim/fusion.hh, TRIQ_SIM_FUSION, default on) rewrites
 *    the compact circuit into fused kernels so each replay makes fewer
 *    passes over the state.
 *
 * Every faulty trial replays its own trajectory.
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
     * State-vector trajectories simulated: the number of faulty trials
     * (each replays individually; fault-free trials sample the cached
     * ideal state).
     */
    int simulatedTrajectories = 0;

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
     * The scheduler's plan for the dominant simulation phase (the
     * trajectory fan-out): mode, thread count, items per task, and
     * predicted vs. actual wall clock. Purely observational — results
     * are bit-identical whatever the scheduler chose.
     */
    SchedDecision sched;

    /** Histogram entries sorted by ascending outcome key. */
    std::vector<std::pair<uint64_t, int>> sortedHistogram() const;
};

/** Tuning knobs for executeNoisy; the defaults match the env knobs. */
struct ExecOptions
{
    /**
     * Worker threads for trajectory chunks. > 0 forces that many
     * workers (1 = true serial path, no pool is constructed); < 0
     * requests adaptive mode (the common/sched.hh cost model decides
     * serial vs. threaded per phase and batches pool tasks to amortize
     * dispatch); 0 reads TRIQ_SIM_THREADS, where 0 likewise means
     * adaptive and unset defaults to 1 (serial). Results are
     * bit-identical for every value — threads only change wall-clock
     * time.
     */
    int threads = 0;

    /**
     * Ideal-prefix checkpoint spacing in gates. 0 picks an automatic
     * value (bounded snapshot memory); negative disables checkpointing
     * (every faulty trajectory replays from |0...0>). Results are
     * bit-identical for every value.
     */
    int checkpointInterval = 0;

    /**
     * Trials per RNG chunk (default 64). Part of the sampling contract:
     * changing it changes which random stream each trial draws from, so
     * results are only comparable at equal chunk size.
     */
    int chunkSize = 0;

    /**
     * Gate fusion for trajectory replays: > 0 on, < 0 off, 0 reads
     * TRIQ_SIM_FUSION (default on). Fusion keeps amplitudes equal to
     * the gate-by-gate path to ~1e-15 per gate (it reassociates
     * floating-point products), so histograms match the unfused path
     * for all practical seeds but are not guaranteed bit-identical.
     */
    int fusion = 0;

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
 * @param opts Performance knobs (thread count, checkpoint spacing).
 *
 * @note Circuits without a dominant ideal outcome (variational
 *       workloads like QAOA) trigger a one-line advisory per call;
 *       use the histogram field for their figure of merit and
 *       setQuiet(true) to silence the advisory.
 */
ExecutionResult executeNoisy(const Circuit &hw, const Device &dev,
                             const Calibration &calib, int trials,
                             uint64_t seed = 12345,
                             const ExecOptions &opts = {});

/**
 * Default trial count for experiment harnesses: reads the TRIQ_TRIALS
 * environment variable, falling back to `fallback`.
 */
int defaultTrials(int fallback = 1000);

/**
 * Default simulation thread count: reads the TRIQ_SIM_THREADS
 * environment variable, falling back to `fallback` (serial).
 * TRIQ_SIM_THREADS=0 returns 0, meaning "adaptive": the cost model in
 * common/sched.hh picks serial or threaded per job.
 */
int defaultSimThreads(int fallback = 1);

/**
 * Default gate-fusion setting: reads the TRIQ_SIM_FUSION environment
 * variable (0 disables), falling back to `fallback` (on).
 */
bool defaultSimFusion(bool fallback = true);

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
