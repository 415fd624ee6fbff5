/**
 * @file
 * Threading: a thread count taken as given and one fan-out.
 *
 * Every caller that spreads independent items over threads (the
 * executor's trajectory chunks, runSweep's cells of one day) passes
 * its thread setting to forEachIndex as given: N >= 2 workers thread,
 * 1 is the serial path on the calling thread and <= 0 means one worker
 * per hardware thread. fanOutWidth alone applies that rule.
 *
 * Determinism: the fan-out only chooses where an item runs, never what
 * it computes. Callers fix their work split (RNG chunks, fingerprint
 * representatives) before they fan out and merge in index order, so
 * results are bit-identical for every worker count.
 */

#ifndef TRIQ_COMMON_SCHED_HH
#define TRIQ_COMMON_SCHED_HH

#include <functional>

namespace triq
{

/** What one fan-out did. */
struct SchedDecision
{
    /** False = serial path on the calling thread (no pool touched). */
    bool threaded = false;

    /** Pool jobs run at once (1 when serial). */
    int threads = 1;

    /**
     * Always 0: nothing is predicted. Kept until the bench of record
     * stops reading it.
     */
    double predictedMs = 0.0;

    /** Measured wall clock of the fan-out, ms (< 0 = not run). */
    double actualMs = -1.0;
};

/**
 * Does nothing and measures nothing. Kept until the bench of record
 * stops calling it during set-up.
 */
void schedCalib();

/**
 * The most workers one fan-out runs at once. The thread flags, the
 * manifest directive and the bench harnesses' TRIQ_SIM_THREADS reject
 * larger counts, and fanOutWidth caps every other count (struct
 * fields, the hardware thread count) here, so the process pool never
 * grows past it. triqd's --threads takes at most this many workers.
 */
constexpr int kMaxThreads = 256;

/**
 * The pool jobs forEachIndex(workers, items, ...) runs at once:
 * min(workers, items, kMaxThreads), where workers <= 0 stands for
 * ThreadPool::hardwareThreads(); 1 (the serial path) when that is
 * <= 1. Callers that reserve per-worker memory size it with this.
 */
int fanOutWidth(int workers, int items);

/**
 * Run fn(0) .. fn(items - 1) and wait for all of them.
 *
 * With fanOutWidth(workers, items) == 1 every call runs in index order
 * on the calling thread and no pool is touched. Otherwise that many
 * jobs go to processPool(); each takes the next index from one shared
 * counter until none remain, so at most that many items run at once
 * however large the pool has grown. The first exception any item
 * throws is rethrown here after every job has finished.
 *
 * Do not call it from inside a pool job unless its width is 1.
 */
SchedDecision forEachIndex(int workers, int items,
                           const std::function<void(int)> &fn);

} // namespace triq

#endif // TRIQ_COMMON_SCHED_HH
