/**
 * @file
 * The TriQ compiler driver: wires the passes of Fig. 4 together and
 * exposes the four optimization levels of Table 1.
 *
 *   TriQ-N        no optimization, default (identity) qubit mapping,
 *                 per-gate naive translation;
 *   TriQ-1QOpt    1Q fusion, default mapping;
 *   TriQ-1QOptC   1Q fusion + communication-optimized mapping/routing
 *                 using a reliability matrix built from *average* error
 *                 rates (noise-unaware);
 *   TriQ-1QOptCN  1Q fusion + mapping/routing driven by the day's
 *                 calibration data (noise-aware).
 */

#ifndef TRIQ_CORE_COMPILER_HH
#define TRIQ_CORE_COMPILER_HH

#include <string>

#include "core/circuit.hh"
#include "core/mapper.hh"
#include "core/translate.hh"
#include "device/device.hh"

namespace triq
{

/** Table-1 optimization levels. */
enum class OptLevel
{
    N,        //!< TriQ-N
    OneQOpt,  //!< TriQ-1QOpt
    OneQOptC, //!< TriQ-1QOptC
    OneQOptCN //!< TriQ-1QOptCN
};

/** Display name, e.g. "TriQ-1QOptCN". */
std::string optLevelName(OptLevel level);

/** The token the tools and triqd read: "n", "1q", "c" or "cn". */
const char *optLevelToken(OptLevel level);

/** Parse an optLevelToken; any other text is a FatalError. */
OptLevel optLevelFromToken(const std::string &token);

/** Compiler configuration. */
struct CompileOptions
{
    OptLevel level = OptLevel::OneQOptCN;

    /** Mapping engine configuration (used by the C/CN levels). */
    MappingOptions mapping;

    /**
     * Run the peephole inverse-pair cancellation pass before mapping.
     * Off by default: the published TriQ performs no 2Q-2Q rewriting;
     * bench/ablation_passes measures what it adds.
     */
    bool peephole = false;

    /** Emit vendor assembly text into CompileResult::assembly. */
    bool emitAssembly = true;

    /**
     * Wall-clock budget for the whole compilation. Unlimited by
     * default (bit-for-bit identical to the unbudgeted pipeline). With
     * a deadline armed the pipeline is *anytime*: optional optimization
     * passes are skipped and the mapper returns its best incumbent when
     * the deadline fires, but a mappable program always yields a valid
     * routed circuit — the degradations are recorded in
     * CompileResult::report.
     */
    CompileBudget budget;

    /**
     * Calibration input policy: false (default) sanitizes bad values
     * (clamp + warning diagnostics in the report); true rejects them
     * with FatalError (the `triqc --strict-calibration` contract).
     */
    bool strictCalibration = false;
};

/**
 * Structured account of how one compilation went: which engines ran,
 * how long each pass took, and every graceful degradation taken. The
 * report is how a caller distinguishes "full-strength result" from
 * "valid but degraded under the budget" without either case throwing.
 */
struct CompileReport
{
    /** One pipeline pass and its wall-clock cost. */
    struct PassTiming
    {
        std::string pass;
        double ms = 0.0;
    };

    /** Per-pass timings in execution order. */
    std::vector<PassTiming> passes;

    /** Mapping engine requested (MappingOptions::kind display name). */
    std::string requestedMapper;

    /** Mapping engine that actually produced the placement. */
    std::string mapperEngine;

    /** Search nodes explored by the mapper (0 for greedy/trivial). */
    long mapperNodes = 0;

    /** True when the mapper proved its objective optimal. */
    bool mapperOptimal = false;

    /** Candidate placements cut by the admissible/incumbent bound. */
    long mapperBoundPruned = 0;

    /** Candidates skipped as equivalence-class duplicates. */
    long mapperSymmetryPruned = 0;

    /** Candidates cut by sibling-dominance substitution. */
    long mapperDominancePruned = 0;

    /** True when the search was seeded from a warm-start placement. */
    bool mapperWarmStarted = false;

    /** Warm-start provenance (e.g. "drift(day 3)"), "" when cold. */
    std::string mapperWarmStartOrigin;

    /** True when any fallback or early stop was taken. */
    bool degraded = false;

    /** True when the wall-clock deadline fired somewhere. */
    bool deadlineHit = false;

    /** One entry per degradation, in pipeline order. */
    std::vector<std::string> degradations;

    /** Calibration values clamped/repaired by input sanitization. */
    int calibrationRepairs = 0;

    /** Sanitization warnings (and any errors in strict mode). */
    Diagnostics calibrationDiags{"calibration"};

    /** Multi-line human-readable rendering. */
    std::string str() const;

    /**
     * JSON object rendering: the "report" member of `triqc
     * --diag-json`, keyed by the field names above.
     */
    void writeJson(JsonWriter &w) const;
};

/** Everything the toolflow produces for one (program, device) pair. */
struct CompileResult
{
    /** Translated circuit over hardware qubits. */
    Circuit hwCircuit;

    /** Program-qubit placement before/after execution. */
    std::vector<HwQubit> initialMap;
    std::vector<HwQubit> finalMap;

    /** SWAPs inserted by the router. */
    int swapCount = 0;

    /** Emission statistics (pulses, virtual-Z count, 2Q count). */
    TranslateStats stats;

    /** Mapper's achieved max-min objective. */
    double mapperObjective = 0.0;

    /** Wall-clock compile time, milliseconds. */
    double compileMs = 0.0;

    /** Vendor-format executable text (empty if not requested). */
    std::string assembly;

    /** How the compilation went: engines, timings, degradations. */
    CompileReport report;
};

/**
 * Compile a program for a device.
 *
 * @param program Program circuit (may contain composite gates).
 * @param dev Target machine.
 * @param calib The day's calibration snapshot; only the CN level reads
 *              the per-qubit/per-edge detail, other levels use the
 *              device's average statistics.
 * @param opts Level and mapper configuration.
 * @param lowered Optional hoisted decomposition: when non-null it must
 *        equal decomposeToCnotBasis(program, dev.gateSet().nativeCphase)
 *        and the driver uses it instead of recomputing — the sweep
 *        engine (src/service) lowers each program once per gate-set
 *        variant and shares the result across every (day, level) cell.
 *        Decomposition is deterministic, so the compiled artifact is
 *        bit-identical either way.
 */
CompileResult compileForDevice(const Circuit &program, const Device &dev,
                               const Calibration &calib,
                               const CompileOptions &opts,
                               const Circuit *lowered = nullptr);

} // namespace triq

#endif // TRIQ_CORE_COMPILER_HH
