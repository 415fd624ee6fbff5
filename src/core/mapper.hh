/**
 * @file
 * Qubit mapping (Sec. 4.3): choose an injective program-qubit ->
 * hardware-qubit assignment maximizing the *minimum* reliability of any
 * mapped operation (2Q pairs via the reliability matrix, readouts via
 * the readout vector). The max-min objective is what makes the search
 * prunable: as soon as a partial placement drops below the incumbent it
 * can be discarded, unlike the whole-graph reliability product of prior
 * work.
 *
 * Four interchangeable engines:
 *  - Trivial: identity placement (the paper's "default qubit mapping");
 *  - Greedy: reliability-ordered constructive placement + local search;
 *  - BranchAndBound: exact search with an admissible row-relaxation
 *    bound, equivalence-class symmetry pruning and sibling-dominance
 *    cuts under a node budget (falls back to the greedy incumbent when
 *    exhausted);
 *  - Smt: the paper-faithful Z3 optimization encoding (available when
 *    the library is built with Z3; otherwise falls back to B&B).
 */

#ifndef TRIQ_CORE_MAPPER_HH
#define TRIQ_CORE_MAPPER_HH

#include <string>
#include <vector>

#include "common/budget.hh"
#include "core/circuit.hh"
#include "core/reliability.hh"

namespace triq
{

/** Interaction summary of a program: what the mapper needs to know. */
struct ProgramInfo
{
    /** One distinct interacting program-qubit pair with its 2Q count. */
    struct Pair
    {
        ProgQubit a;
        ProgQubit b;
        int weight;
    };

    int numProgQubits = 0;
    std::vector<Pair> pairs;
    std::vector<ProgQubit> measured;

    /**
     * Extract the interaction graph of a CNOT-basis circuit: distinct
     * unordered 2Q pairs with multiplicity, plus measured qubits.
     */
    static ProgramInfo fromCircuit(const Circuit &c);
};

/** Mapping engine selector. */
enum class MapperKind
{
    Trivial,
    Greedy,
    BranchAndBound,
    Smt,
};

/** Parse "trivial" / "greedy" / "bnb" / "smt"; other text is fatal. */
MapperKind mapperKindFromString(const std::string &s);

/** Inverse of mapperKindFromString: the engine's display name. */
std::string mapperKindName(MapperKind kind);

/**
 * Mapping objective. The paper (Sec. 4.3) argues for max-min over the
 * whole-graph reliability product of prior work because partial
 * placements can be pruned as soon as any operation drops below the
 * incumbent; the product objective needs most qubits placed before a
 * bound is meaningful. Both are implemented so the trade-off can be
 * measured (bench/ablation_mapper).
 */
enum class MappingObjective
{
    MaxMin,  //!< Maximize the minimum operation reliability (paper).
    Product, //!< Maximize the weighted reliability product ([46]-style).
};

/** Options controlling the mapping search. */
struct MappingOptions
{
    MapperKind kind = MapperKind::BranchAndBound;

    MappingObjective objective = MappingObjective::MaxMin;

    /** Max B&B nodes before falling back to the incumbent. */
    long nodeBudget = 2000000;

    /** Include readout reliabilities in the max-min objective. */
    bool includeReadout = true;

    /** Z3 soft timeout in milliseconds (Smt engine only). */
    unsigned smtTimeoutMs = 60000;

    /**
     * Optional warm-start placement (program -> hardware, injective,
     * sized numProgQubits). When valid it is polished by local search
     * and the *better* of it and the constructive greedy seed becomes
     * the anytime incumbent — the use case is incremental remapping
     * after calibration drift, where yesterday's mapping is usually
     * within a few swaps of today's optimum, so the incumbent starts
     * tight and the B&B proof tree collapses. Because the warm
     * incumbent is never below the cold one and pruning is sound, the
     * returned objective value is never worse than a cold search's at
     * any node budget. Empty or invalid vectors are ignored (falling
     * back to the greedy seed).
     */
    std::vector<HwQubit> warmStart;

    /** Provenance label for the warm start (e.g. "drift(day 3)"). */
    std::string warmStartOrigin;

    /**
     * Wall-clock budget for the search. Every engine is *anytime* under
     * it: when the deadline fires mid-search the best incumbent found
     * so far is returned (marked Mapping::timedOut) instead of running
     * unbounded or throwing. Default-constructed = unlimited, which
     * reproduces the unbudgeted search bit for bit.
     */
    CompileBudget budget;
};

/** Result of a mapping run. */
struct Mapping
{
    /** progToHw[p] = hardware qubit for program qubit p. */
    std::vector<HwQubit> progToHw;

    /** Achieved min-reliability objective. */
    double minReliability = 0.0;

    /** Secondary score: weighted log-product of all op reliabilities. */
    double logProduct = 0.0;

    /** Search nodes explored (B&B) or 0. */
    long nodesExplored = 0;

    /** Candidate placements cut by the admissible/incumbent bound. */
    long boundPruned = 0;

    /** Candidates skipped as equivalence-class duplicates. */
    long symmetryPruned = 0;

    /** Candidates cut by sibling-dominance substitution. */
    long dominancePruned = 0;

    /** True when the search was seeded from MappingOptions::warmStart. */
    bool warmStarted = false;

    /** Copied from MappingOptions::warmStartOrigin when warmStarted. */
    std::string warmStartOrigin;

    /** True when the engine proved max-min optimality. */
    bool optimal = false;

    /**
     * The engine that actually produced this map ("trivial", "greedy",
     * "bnb", "smt") — may differ from MappingOptions::kind when the
     * fallback ladder Z3 -> B&B -> greedy degraded the request.
     */
    std::string engine;

    /** True when the budget deadline fired during the search. */
    bool timedOut = false;

    /**
     * Degradation trail: one human-readable entry per fallback or
     * early stop (empty for a clean full-strength run). Feeds
     * CompileReport::degradations.
     */
    std::vector<std::string> notes;

    /** Inverse view: hwToProg[h] = program qubit at h, or -1. */
    std::vector<ProgQubit> hwToProg(int num_hw) const;
};

/**
 * The max-min objective value of a complete assignment.
 * Returns 1.0 for programs with no 2Q pairs and no measured qubits.
 */
double mappingMinReliability(const ProgramInfo &info,
                             const ReliabilityMatrix &rel,
                             const std::vector<HwQubit> &prog_to_hw,
                             bool include_readout);

/** Weighted log-product secondary score of a complete assignment. */
double mappingLogProduct(const ProgramInfo &info,
                         const ReliabilityMatrix &rel,
                         const std::vector<HwQubit> &prog_to_hw,
                         bool include_readout);

/**
 * Map a program onto hardware.
 * @throws FatalError when the program needs more qubits than the device
 *         provides.
 */
Mapping mapQubits(const ProgramInfo &info, const ReliabilityMatrix &rel,
                  const MappingOptions &opts);

/** The identity ("default") placement: program qubit p -> hardware p. */
Mapping trivialMapping(const ProgramInfo &info,
                       const ReliabilityMatrix &rel);

/** True when the build has the Z3-backed Smt engine compiled in. */
bool smtMapperAvailable();

} // namespace triq

#endif // TRIQ_CORE_MAPPER_HH
