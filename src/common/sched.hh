/**
 * @file
 * The adaptive cost-model scheduler: decide, per job, whether a batch
 * of independent work items should run serially or on the thread pool,
 * and how many items each pool task should carry so the dispatch
 * overhead is amortized.
 *
 * Why it exists: at the paper's workload sizes the repo's own
 * benchmarks showed threading *losing* to serial (BV8 trajectory
 * thread_speedup 0.88, the cold parallel sweep at ~1.0x) — per-task
 * enqueue/wake overhead plus per-call pool spawn ate the win. The fix
 * is structural, not a tuning constant: estimate the work first, and
 * only go parallel when the model says the overhead is paid for.
 *
 * The model needs three machine constants (SchedCalib):
 *   - perTaskOverheadUs: cost of dispatching one pool task,
 *   - poolSpawnUs: one-time cost of spinning up the worker pool
 *     (charged only while processPool() has not been created yet),
 *   - ampOpsPerUs: amplitude-update throughput, the machine-speed
 *     scalar that converts the consumers' abstract work estimates
 *     (qubits x gates x trials / cells) into microseconds.
 * They are measured once per process on first use (~2 ms) or loaded
 * from TRIQ_SCHED_CALIB ("overhead_us,spawn_us,amp_ops_per_us[,threads]")
 * so servers and benches can pin a calibration.
 *
 * Every decision is *observable*: consumers store the SchedDecision
 * (mode, thread count, items per task, predicted vs. actual ms) in
 * their result/stats structs so benches — and the future triqd server
 * — can report what the scheduler chose and how good the prediction
 * was.
 *
 * Determinism: the scheduler only chooses how work is distributed,
 * never what is computed. Simulation results are bit-identical for
 * every decision because RNG chunking is fixed independently of the
 * task batching (see sim/executor.cc).
 */

#ifndef TRIQ_COMMON_SCHED_HH
#define TRIQ_COMMON_SCHED_HH

#include <optional>
#include <string>

namespace triq
{

/** Machine constants the cost model runs on. */
struct SchedCalib
{
    /** Dispatch cost of one pool task (enqueue + wake + pickup), us. */
    double perTaskOverheadUs = 15.0;

    /** One-time cost of spawning the worker pool, us. */
    double poolSpawnUs = 400.0;

    /**
     * Machine speed: state-vector amplitude updates (one amplitude
     * through a 2x2 rotation) per microsecond. Converts the abstract
     * work-unit estimates below into wall-clock time.
     */
    double ampOpsPerUs = 500.0;

    /** Usable hardware threads (>= 1). */
    int hardwareThreads = 1;
};

/**
 * Measure SchedCalib on this machine: a short amplitude-update loop
 * for ampOpsPerUs and a timed spawn + empty-job storm on a small
 * private pool for the overhead constants. Takes a few milliseconds;
 * call it once (schedCalib() caches it).
 */
SchedCalib measureSchedCalib();

/**
 * Parse a TRIQ_SCHED_CALIB-style string:
 * "overhead_us,spawn_us,amp_ops_per_us[,threads]" (3 or 4 positive
 * comma-separated numbers). Returns nullopt on malformed input.
 */
std::optional<SchedCalib> parseSchedCalib(const std::string &text);

/** Round-trip `c` into the TRIQ_SCHED_CALIB string format. */
std::string schedCalibString(const SchedCalib &c);

/**
 * The process-wide calibration: TRIQ_SCHED_CALIB when set and
 * well-formed (malformed values warn once and fall back), otherwise
 * measured once on first call and cached.
 */
const SchedCalib &schedCalib();

/** One planned fan-out: the mode, the batch size, the predictions. */
struct SchedDecision
{
    /** False = true serial path (no pool is touched at all). */
    bool threaded = false;

    /** Worker threads the plan wants (1 when serial). */
    int threads = 1;

    /** Items carried by each pool task (1 when serial). */
    int itemsPerTask = 1;

    /** Pool tasks the plan enqueues (0 when serial). */
    int tasks = 0;

    /** Model-predicted serial wall clock for the whole job, ms. */
    double predictedSerialMs = 0.0;

    /** Model-predicted wall clock of the *chosen* mode, ms. */
    double predictedMs = 0.0;

    /** Measured wall clock, filled in by the consumer (< 0 = not run). */
    double actualMs = -1.0;

    /** "serial" or "threaded". */
    const char *mode() const { return threaded ? "threaded" : "serial"; }
};

/**
 * Plan a fan-out of `items` independent work items of ~`us_per_item`
 * serial microseconds each.
 *
 * Chooses threaded only when the model predicts a clear win (>= ~25%
 * after overhead) and picks itemsPerTask so each task carries enough
 * work to amortize perTaskOverheadUs while keeping a few tasks per
 * worker for load balance.
 *
 * @param max_threads Ceiling on workers: 0 = hardware threads,
 *        1 forces the serial path, N caps at N.
 * @param pool_hot Pass processPoolStarted(): when the pool already
 *        exists its spawn cost is sunk and is not charged again.
 */
SchedDecision planParallel(const SchedCalib &c, int items,
                           double us_per_item, int max_threads = 0,
                           bool pool_hot = false);

/**
 * Plan a fan-out with the mode forced by the caller (benches and
 * explicit --threads N requests): `threads` <= 1 yields the true
 * serial path; otherwise the fan-out is threaded at `threads` workers
 * but still batched by the same amortization rule as planParallel.
 */
SchedDecision planForced(const SchedCalib &c, int items,
                         double us_per_item, int threads,
                         bool pool_hot = false);

/**
 * Estimated serial microseconds to noisy-simulate one RNG chunk of
 * `chunk_trials` trials of a compact `qubits`-wide circuit with
 * `gates` gates, of which a `faulty_fraction` of trials replay the
 * circuit (the rest sample the cached ideal state).
 * Monotone in every argument.
 */
double estimateChunkUs(const SchedCalib &c, int qubits, int gates,
                       int chunk_trials, double faulty_fraction);

/**
 * Estimated serial microseconds to compile one sweep cell: a program
 * of `gates` total gates (`gates_2q` two-qubit) onto a `qubits`-qubit
 * device. Dominated by the mapper's per-interaction work, so it grows
 * with gates_2q x qubits^2. Monotone in every argument.
 */
double estimateCompileUs(const SchedCalib &c, int qubits, int gates_2q,
                         int gates);

} // namespace triq

#endif // TRIQ_COMMON_SCHED_HH
