/**
 * @file
 * Deterministic fault injection for robustness testing.
 *
 * A FaultInjector corrupts the pipeline's *inputs* — calibration
 * fields, program text, scalar parameters — so tests and bench
 * harnesses can prove the toolflow degrades gracefully (structured
 * diagnostic, clamped value, fallback mapping) instead of crashing.
 * It never touches internal state: the contract under fault injection
 * is "garbage in, diagnostic out", not "garbage in, garbage out".
 *
 * Activation: construct one explicitly, or via fromEnv() which reads
 *   TRIQ_FAULT       fault classes to arm, in the parseClasses()
 *                    grammar (unset/empty = disabled)
 *   TRIQ_FAULT_SEED  decimal seed (default 1); same seed, same faults
 * so any existing binary (triqc, the benches) can be driven into its
 * degradation paths without a rebuild. A triqd request's `fault`
 * member takes the same grammar.
 *
 * The injector lives in src/common and therefore only manipulates
 * primitive data (vectors of doubles, strings); layer-specific helpers
 * (e.g. injectCalibrationFaults in src/device) decide which fields to
 * feed it.
 */

#ifndef TRIQ_COMMON_FAULT_INJECTOR_HH
#define TRIQ_COMMON_FAULT_INJECTOR_HH

#include <string>
#include <vector>

#include "common/rng.hh"

namespace triq
{

/** Deterministic corrupter of pipeline inputs. */
class FaultInjector
{
  public:
    /** Which input classes this injector is armed for. */
    struct Classes
    {
        bool calibration = false; //!< Numeric calibration fields.
        bool text = false;        //!< Program source text.

        /**
         * Deterministic internal panic: the driver raises a PanicError
         * at a well-defined pipeline point so the crash-report path
         * (bundle dump + replay) can be exercised end to end. Not part
         * of "all" — a synthetic crash is opt-in by name only, so the
         * garbage-in suites keep their "diagnostic out" contract.
         */
        bool panic = false;
    };

    /** Disabled injector: every operation is a no-op. */
    FaultInjector() = default;

    /** Armed injector with the given classes and seed. */
    FaultInjector(Classes classes, uint64_t seed)
        : classes_(classes), rng_(seed),
          enabled_(classes.calibration || classes.text || classes.panic)
    {
    }

    /**
     * Arm in `classes` each class a comma list names: "calib" (or
     * "calibration"), "text" (or "program"), "panic", and "all"
     * (calib + text). Empty items are skipped. Returns a message naming
     * the first unknown item, or "" when every item is known.
     */
    static std::string parseClasses(const std::string &spec,
                                    Classes &classes);

    /**
     * Build from TRIQ_FAULT / TRIQ_FAULT_SEED (disabled when unset). An
     * unknown class is ignored with a warning.
     */
    static FaultInjector fromEnv();

    /** True when any fault class is armed. */
    bool enabled() const { return enabled_; }

    /** True when calibration faults are armed. */
    bool armsCalibration() const { return enabled_ && classes_.calibration; }

    /** True when program-text faults are armed. */
    bool armsText() const { return enabled_ && classes_.text; }

    /** True when a synthetic internal panic is armed. */
    bool armsPanic() const { return enabled_ && classes_.panic; }

    /**
     * A pathological double: NaN, +/-infinity, negative, huge, tiny
     * denormal or exact zero, chosen deterministically.
     */
    double pathologicalValue();

    /**
     * Corrupt roughly `rate` of the entries of a numeric field with
     * pathological values. Returns the number of entries hit (0 when
     * calibration faults are not armed).
     */
    int corruptValues(std::vector<double> &values, double rate = 0.25);

    /** Corrupt a scalar in place; returns true when it was hit. */
    bool corruptScalar(double &value);

    /**
     * Corrupt program text: truncate at a random byte, splice garbage
     * bytes (including invalid UTF-8), or duplicate a chunk. No-op
     * (returns input unchanged) when text faults are not armed.
     */
    std::string corruptText(const std::string &source);

  private:
    Classes classes_{};
    Rng rng_{0};
    bool enabled_ = false;
};

} // namespace triq

#endif // TRIQ_COMMON_FAULT_INJECTOR_HH
