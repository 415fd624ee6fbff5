/**
 * @file
 * Content-addressed fingerprints of everything a compilation consumes,
 * plus a canonical serialization of everything it produces.
 *
 * The sweep engine (src/service) memoizes compilations by a stable key:
 * two cells share a cache entry exactly when every input that can
 * influence the compiled artifact hashes identically — the canonical
 * (lowered) IR, the device's topology and gate set, the calibration
 * data the chosen level actually reads, and the CompileOptions. The
 * canonical-text serialization is the identity oracle: a cache hit is
 * correct iff its canonical text equals a cold compile's (timings
 * excluded — they are wall-clock, not content).
 *
 * Hashes are 64-bit FNV-1a over the exact value bit patterns (doubles
 * hash by their IEEE-754 bits, not a decimal rendering), so the
 * fingerprint is deterministic across runs and platforms with IEEE
 * doubles, and any single-bit input change flips the key.
 */

#ifndef TRIQ_CORE_FINGERPRINT_HH
#define TRIQ_CORE_FINGERPRINT_HH

#include <cstdint>
#include <string>

#include "core/compiler.hh"
#include "device/calibration.hh"
#include "device/gateset.hh"
#include "device/topology.hh"

namespace triq
{

/** Incremental 64-bit FNV-1a hasher. */
class Fnv1a
{
  public:
    /** Hash of the empty input (the FNV-1a offset basis). */
    static constexpr uint64_t kOffsetBasis = 14695981039346656037ULL;

    uint64_t value() const { return h_; }

    Fnv1a &bytes(const void *data, size_t n);
    Fnv1a &u64(uint64_t v);
    Fnv1a &i64(int64_t v) { return u64(static_cast<uint64_t>(v)); }
    Fnv1a &b(bool v) { return u64(v ? 1 : 0); }

    /** IEEE-754 bit pattern; normalizes -0.0 to +0.0. */
    Fnv1a &f64(double v);

    /** Length-prefixed so "ab","c" != "a","bc". */
    Fnv1a &str(const std::string &s);

  private:
    uint64_t h_ = kOffsetBasis;
};

/**
 * Canonical IR hash of a circuit: register width plus every gate's
 * (kind, operands, parameter bit patterns) in program order. The name
 * is excluded — two identically lowered programs are the same content.
 */
uint64_t circuitFingerprint(const Circuit &c);

/** Topology hash: qubit count + every coupling (a, b, directed). */
uint64_t topologyFingerprint(const Topology &topo);

/** Gate-set hash: vendor, 1Q/2Q families, virtual-Z, native CPHASE. */
uint64_t gateSetFingerprint(const GateSet &gs);

/**
 * Calibration signature: every error rate, coherence time, duration
 * and the crosstalk factor, by bit pattern. Any drifted value changes
 * the signature.
 */
uint64_t calibrationSignature(const Calibration &calib);

/**
 * CompileOptions hash: level, mapping configuration, peephole,
 * assembly emission and calibration policy. The CompileBudget is
 * deliberately excluded — a deadline is a wall-clock property, not
 * content; budgeted compilations are instead never cached (see
 * service/compile_cache.hh).
 */
uint64_t compileOptionsFingerprint(const CompileOptions &opts);

/**
 * The four-component cache key of one compilation cell. Kept as
 * separate components (rather than one folded hash) so the cache can
 * index drift candidates by the calibration-independent part.
 */
struct CompileFingerprint
{
    uint64_t program = 0;     //!< circuitFingerprint of the lowered IR.
    uint64_t device = 0;      //!< topology + gate-set + avg-calib hash.
    uint64_t calibration = 0; //!< what the level reads (see below).
    uint64_t options = 0;     //!< compileOptionsFingerprint.

    /** All four components folded into one 64-bit id (for display). */
    uint64_t combined() const;

    /** The calibration-independent part: program + device + options. */
    uint64_t stableKey() const;

    /** 16-hex-digit rendering of combined(). */
    std::string str() const;

    bool
    operator==(const CompileFingerprint &o) const
    {
        return program == o.program && device == o.device &&
               calibration == o.calibration && options == o.options;
    }
};

/**
 * The key parts one (device, calibration day) fixes for every program
 * and level compiled against it. fingerprintCompile builds one per
 * call; the sweep engine builds one per (device, day) and shares it.
 */
struct DeviceDayKey
{
    /**
     * CompileFingerprint::device: topology, gate set and the
     * average-calibration signature. The last keeps structural twins
     * (Aspen1 and Aspen3 share a topology and gate set) apart in the
     * calibration-independent stableKey the drift path searches.
     */
    uint64_t device = 0;
    uint64_t averageSignature = 0; //!< Of the device-average calibration.
    uint64_t daySignature = 0;     //!< Of the day's snapshot.
    uint64_t sanitizeDigest = 0;   //!< Of the day's snapshot.

    /**
     * CompileFingerprint::calibration at `level`: exactly the data the
     * level reads. The noise-aware CN level sees the day's snapshot,
     * so it is the day signature. Every other level maps against the
     * device average, so it folds the average signature with the
     * day's sanitize digest (the repairs and diagnostics the sanitize
     * pass records in the report): two days with identical
     * sanitization share one TriQ-N/1QOpt/C entry.
     */
    uint64_t calibration(OptLevel level) const;
};

/**
 * @param day_calib The day's calibration snapshot (unsanitized, as
 *        handed to compileForDevice).
 */
DeviceDayKey deviceDayKey(const Device &dev, const Calibration &day_calib);

/**
 * Fingerprint one (lowered program, device, calibration, options)
 * cell; the device and calibration components come from deviceDayKey.
 *
 * @param lowered The program already lowered by decomposeToCnotBasis
 *        with the device's native-CPHASE setting (the canonical IR).
 * @param day_calib The day's calibration snapshot (unsanitized, as
 *        handed to compileForDevice).
 */
CompileFingerprint fingerprintCompile(const Circuit &lowered,
                                      const Device &dev,
                                      const Calibration &day_calib,
                                      const CompileOptions &opts);

/**
 * Digest of what Calibration::validate(Sanitize) would report for this
 * snapshot: repair count plus every diagnostic's code/message/origin.
 * Clean snapshots (the synthesized feeds) digest to a constant.
 */
uint64_t calibrationSanitizeDigest(const Calibration &calib,
                                   const Topology &topo);

/**
 * Canonical text of a compiled artifact: the routed hardware circuit
 * (full-precision parameters), qubit maps, swap/emission statistics,
 * assembly, and the CompileReport minus its pass timings and
 * compileMs. Two CompileResults are the same artifact iff their
 * canonical texts are byte-identical — this is the determinism
 * contract the compile cache is tested against.
 *
 * @param include_timings Also render per-pass ms and compileMs (for
 *        human diffing; never used for identity).
 */
std::string canonicalCompileResultText(const CompileResult &res,
                                       bool include_timings = false);

/** FNV-1a of canonicalCompileResultText (timings excluded). */
uint64_t compileResultDigest(const CompileResult &res);

} // namespace triq

#endif // TRIQ_CORE_FINGERPRINT_HH
