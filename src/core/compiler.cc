#include "core/compiler.hh"

#include <chrono>
#include <sstream>

#include "common/json.hh"
#include "common/logging.hh"
#include "core/backend.hh"
#include "core/decompose.hh"
#include "core/peephole.hh"
#include "core/router.hh"

namespace triq
{

std::string
CompileReport::str() const
{
    std::ostringstream os;
    os << "mapper:    " << requestedMapper;
    if (mapperEngine != requestedMapper)
        os << " -> " << mapperEngine << " (degraded)";
    os << (mapperOptimal ? " [optimal]" : "") << ", " << mapperNodes
       << " nodes";
    if (mapperEngine == "bnb")
        os << " (pruned " << mapperBoundPruned << " bound / "
           << mapperSymmetryPruned << " symmetry / "
           << mapperDominancePruned << " dominance)";
    if (mapperWarmStarted) {
        os << " [warm start";
        if (!mapperWarmStartOrigin.empty())
            os << ": " << mapperWarmStartOrigin;
        os << "]";
    }
    os << "\n";
    os << "status:    "
       << (degraded ? (deadlineHit ? "degraded (deadline hit)"
                                   : "degraded")
                    : "full strength")
       << "\n";
    if (calibrationRepairs > 0)
        os << "calib:     " << calibrationRepairs
           << " value(s) sanitized\n";
    for (const auto &d : degradations)
        os << "  - " << d << "\n";
    os << "passes:\n";
    for (const auto &p : passes)
        os << "  " << p.pass << ": " << p.ms << " ms\n";
    return os.str();
}

void
CompileReport::writeJson(JsonWriter &w) const
{
    w.beginObject();
    w.key("requestedMapper").value(requestedMapper);
    w.key("mapperEngine").value(mapperEngine);
    w.key("mapperNodes").value(mapperNodes);
    w.key("mapperOptimal").value(mapperOptimal);
    w.key("mapperBoundPruned").value(mapperBoundPruned);
    w.key("mapperSymmetryPruned").value(mapperSymmetryPruned);
    w.key("mapperDominancePruned").value(mapperDominancePruned);
    w.key("mapperWarmStarted").value(mapperWarmStarted);
    w.key("mapperWarmStartOrigin").value(mapperWarmStartOrigin);
    w.key("degraded").value(degraded).key("deadlineHit").value(deadlineHit);
    w.key("calibrationRepairs").value(calibrationRepairs);
    w.key("degradations").beginArray();
    for (const std::string &d : degradations)
        w.value(d);
    w.endArray();
    w.key("passes").beginArray();
    for (const PassTiming &p : passes) {
        w.beginObject();
        w.key("pass").value(p.pass).key("ms").value(p.ms);
        w.endObject();
    }
    w.endArray();
    w.key("calibrationDiagnostics");
    calibrationDiags.writeJson(w);
    w.endObject();
}

std::string
optLevelName(OptLevel level)
{
    switch (level) {
      case OptLevel::N:
        return "TriQ-N";
      case OptLevel::OneQOpt:
        return "TriQ-1QOpt";
      case OptLevel::OneQOptC:
        return "TriQ-1QOptC";
      case OptLevel::OneQOptCN:
        return "TriQ-1QOptCN";
    }
    panic("optLevelName: unknown level");
}

const char *
optLevelToken(OptLevel level)
{
    switch (level) {
      case OptLevel::N:
        return "n";
      case OptLevel::OneQOpt:
        return "1q";
      case OptLevel::OneQOptC:
        return "c";
      case OptLevel::OneQOptCN:
        return "cn";
    }
    panic("optLevelToken: unknown level");
}

OptLevel
optLevelFromToken(const std::string &token)
{
    for (OptLevel level : {OptLevel::N, OptLevel::OneQOpt,
                           OptLevel::OneQOptC, OptLevel::OneQOptCN})
        if (token == optLevelToken(level))
            return level;
    fatal("unknown level '", token, "' (expected n, 1q, c or cn)");
}

CompileResult
compileForDevice(const Circuit &program, const Device &dev,
                 const Calibration &calib, const CompileOptions &opts,
                 const Circuit *lowered)
{
    using Clock = std::chrono::steady_clock;
    auto t0 = Clock::now();
    auto last = t0;

    CompileReport report;
    report.requestedMapper = mapperKindName(opts.mapping.kind);
    auto mark = [&](const char *pass) {
        auto now = Clock::now();
        report.passes.push_back(
            {pass, std::chrono::duration<double, std::milli>(now - last)
                       .count()});
        last = now;
    };

    if (program.numQubits() > dev.numQubits())
        fatal("compileForDevice: ", program.name(), " needs ",
              program.numQubits(), " qubits; ", dev.name(), " has ",
              dev.numQubits());

    // 0. Input sanitization: never trust a calibration feed. Strict
    //    mode rejects bad values; the default clamps them and records
    //    the repairs in the report.
    Calibration day = calib;
    report.calibrationRepairs =
        day.validate(dev.topology(),
                     opts.strictCalibration ? ValidateMode::Strict
                                            : ValidateMode::Sanitize,
                     report.calibrationDiags);
    report.calibrationDiags.throwIfErrors(
        "compileForDevice: invalid calibration for " + dev.name());
    if (report.calibrationRepairs > 0) {
        report.degraded = true;
        report.degradations.push_back(
            "calibration sanitized: " +
            std::to_string(report.calibrationRepairs) +
            " invalid value(s) clamped");
    }
    mark("sanitize");

    // 1. Lower composites to the technology-independent CNOT basis
    //    (keeping controlled-phase structure when the target exposes
    //    native CPHASE — the Sec. 6.4 what-if). A caller that sweeps
    //    many cells of one program may hand in the decomposition it
    //    hoisted; the pass entry stays so reports keep one shape.
    Circuit cnot_basis =
        lowered ? *lowered
                : decomposeToCnotBasis(program, dev.gateSet().nativeCphase);
    mark("decompose");
    if (opts.peephole) {
        // Optional optimization: first thing dropped under deadline
        // pressure — correctness never depends on it.
        if (opts.budget.expired()) {
            report.degraded = true;
            report.deadlineHit = true;
            report.degradations.push_back(
                "deadline fired before the peephole pass; skipped");
        } else {
            cnot_basis = cancelInversePairs(cnot_basis);
            mark("peephole");
        }
    }

    // 2. Reliability matrix: the CN level sees the day's calibration;
    //    every other level sees average error rates (Sec. 4.2).
    const bool noise_aware = opts.level == OptLevel::OneQOptCN;
    Calibration avg = dev.averageCalibration();
    const Calibration &rel_calib = noise_aware ? day : avg;
    ReliabilityMatrix rel(dev.topology(), rel_calib, dev.vendor());
    mark("reliability-matrix");

    // 3. Qubit mapping (Sec. 4.3). The budget makes every engine
    //    anytime; the fallback ladder Z3 -> B&B -> greedy guarantees a
    //    valid placement whatever fires.
    ProgramInfo info = ProgramInfo::fromCircuit(cnot_basis);
    const bool comm_opt = opts.level == OptLevel::OneQOptC ||
                          opts.level == OptLevel::OneQOptCN;
    MappingOptions mopts = opts.mapping;
    mopts.budget = opts.budget;
    Mapping mapping = comm_opt ? mapQubits(info, rel, mopts)
                               : trivialMapping(info, rel);
    mark("mapping");
    report.mapperEngine = mapping.engine;
    report.mapperNodes = mapping.nodesExplored;
    report.mapperOptimal = mapping.optimal;
    report.mapperBoundPruned = mapping.boundPruned;
    report.mapperSymmetryPruned = mapping.symmetryPruned;
    report.mapperDominancePruned = mapping.dominancePruned;
    report.mapperWarmStarted = mapping.warmStarted;
    report.mapperWarmStartOrigin = mapping.warmStartOrigin;
    if (mapping.timedOut)
        report.deadlineHit = true;
    if (!mapping.notes.empty()) {
        report.degraded = true;
        for (const auto &n : mapping.notes)
            report.degradations.push_back("mapper: " + n);
    }

    // 4. Routing / communication scheduling (Sec. 4.4). Mandatory for
    //    validity: it always runs, even past the deadline (its cost is
    //    linear in the gate count).
    RoutingResult routed =
        routeCircuit(cnot_basis, mapping, dev.topology(), rel);
    mark("routing");
    if (opts.budget.expired() && !report.deadlineHit) {
        report.deadlineHit = true;
        report.degraded = true;
        report.degradations.push_back(
            "deadline fired during routing/translation; mandatory "
            "passes completed anyway");
    }

    // 5. Gate implementation + 1Q optimization (Sec. 4.5).
    TranslateOptions topts;
    topts.fuseOneQubit = opts.level != OptLevel::N;
    TranslateResult tr = translateForDevice(routed.circuit, dev.topology(),
                                            dev.gateSet(), topts);
    mark("translate");

    CompileResult out;
    out.hwCircuit = std::move(tr.circuit);
    out.initialMap = routed.initialMap;
    out.finalMap = routed.finalMap;
    out.swapCount = routed.swapCount;
    out.stats = tr.stats;
    out.mapperObjective = mapping.minReliability;

    // 6. Executable generation (Sec. 4.6).
    if (opts.emitAssembly) {
        out.assembly = emitAssembly(out.hwCircuit, dev.vendor());
        mark("emit");
    }

    out.compileMs = std::chrono::duration<double, std::milli>(
                        Clock::now() - t0)
                        .count();
    out.report = std::move(report);
    return out;
}

} // namespace triq
