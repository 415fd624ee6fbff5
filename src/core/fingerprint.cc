#include "core/fingerprint.hh"

#include <cstdio>
#include <cstring>
#include <sstream>

#include "common/logging.hh"
#include "device/device.hh"

namespace triq
{

namespace
{

constexpr uint64_t kFnvPrime = 1099511628211ULL;

/** Domain-separation tags so structurally similar inputs can't alias. */
enum : uint64_t
{
    kTagCircuit = 0xC1,
    kTagTopology = 0x70,
    kTagGateSet = 0x65,
    kTagCalibration = 0xCA,
    kTagOptions = 0x0F,
    kTagSanitize = 0x5A,
};

/** Full-precision double rendering for the canonical artifact text. */
std::string
fmtExact(double v)
{
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
}

} // namespace

Fnv1a &
Fnv1a::bytes(const void *data, size_t n)
{
    const auto *p = static_cast<const unsigned char *>(data);
    for (size_t i = 0; i < n; ++i) {
        h_ ^= p[i];
        h_ *= kFnvPrime;
    }
    return *this;
}

Fnv1a &
Fnv1a::u64(uint64_t v)
{
    return bytes(&v, sizeof(v));
}

Fnv1a &
Fnv1a::f64(double v)
{
    if (v == 0.0)
        v = 0.0; // collapse -0.0 and +0.0 to one bit pattern
    uint64_t bits;
    static_assert(sizeof(bits) == sizeof(v));
    std::memcpy(&bits, &v, sizeof(bits));
    return u64(bits);
}

Fnv1a &
Fnv1a::str(const std::string &s)
{
    u64(s.size());
    return bytes(s.data(), s.size());
}

uint64_t
circuitFingerprint(const Circuit &c)
{
    Fnv1a h;
    h.u64(kTagCircuit).i64(c.numQubits()).i64(c.numGates());
    for (const Gate &g : c.gates()) {
        h.u64(static_cast<uint64_t>(g.kind));
        for (int i = 0; i < 3; ++i)
            h.i64(g.qubits[i]);
        for (int i = 0; i < 3; ++i)
            h.f64(g.params[i]);
    }
    return h.value();
}

uint64_t
topologyFingerprint(const Topology &topo)
{
    Fnv1a h;
    h.u64(kTagTopology).i64(topo.numQubits()).i64(topo.numEdges());
    for (const Coupling &e : topo.edges())
        h.i64(e.a).i64(e.b).b(e.directed);
    return h.value();
}

uint64_t
gateSetFingerprint(const GateSet &gs)
{
    Fnv1a h;
    h.u64(kTagGateSet)
        .u64(static_cast<uint64_t>(gs.vendor))
        .u64(static_cast<uint64_t>(gs.twoQ))
        .u64(static_cast<uint64_t>(gs.oneQ))
        .b(gs.virtualZ)
        .b(gs.nativeCphase);
    return h.value();
}

uint64_t
calibrationSignature(const Calibration &calib)
{
    Fnv1a h;
    h.u64(kTagCalibration).i64(calib.numQubits);
    auto vec = [&](const std::vector<double> &v) {
        h.u64(v.size());
        for (double x : v)
            h.f64(x);
    };
    vec(calib.err1q);
    vec(calib.errRO);
    vec(calib.t2Us);
    vec(calib.err2q);
    h.f64(calib.durations.oneQ)
        .f64(calib.durations.twoQ)
        .f64(calib.durations.readout)
        .f64(calib.crosstalkFactor);
    return h.value();
}

uint64_t
compileOptionsFingerprint(const CompileOptions &opts)
{
    Fnv1a h;
    h.u64(kTagOptions)
        .u64(static_cast<uint64_t>(opts.level))
        .u64(static_cast<uint64_t>(opts.mapping.kind))
        .u64(static_cast<uint64_t>(opts.mapping.objective))
        .i64(opts.mapping.nodeBudget)
        .b(opts.mapping.includeReadout)
        .u64(opts.mapping.smtTimeoutMs)
        .b(opts.peephole)
        .b(opts.emitAssembly)
        .b(opts.strictCalibration);
    return h.value();
}

uint64_t
CompileFingerprint::combined() const
{
    Fnv1a h;
    h.u64(program).u64(device).u64(calibration).u64(options);
    return h.value();
}

uint64_t
CompileFingerprint::stableKey() const
{
    Fnv1a h;
    h.u64(program).u64(device).u64(options);
    return h.value();
}

std::string
CompileFingerprint::str() const
{
    char buf[17];
    std::snprintf(buf, sizeof(buf), "%016llx",
                  static_cast<unsigned long long>(combined()));
    return buf;
}

uint64_t
calibrationSanitizeDigest(const Calibration &calib, const Topology &topo)
{
    Calibration copy = calib;
    Diagnostics diags("calibration");
    int repairs = 0;
    // A structurally broken snapshot (errors even in Sanitize mode)
    // digests over its error diagnostics; compileForDevice will reject
    // it anyway, so the digest only needs to be *distinct*, not useful.
    try {
        repairs = copy.validate(topo, ValidateMode::Sanitize, diags);
    } catch (const FatalError &) {
        repairs = -1;
    }
    Fnv1a h;
    h.u64(kTagSanitize).i64(repairs);
    for (const Diagnostic &d : diags.all())
        h.u64(static_cast<uint64_t>(d.severity))
            .str(d.code)
            .str(d.message)
            .str(d.origin);
    return h.value();
}

uint64_t
DeviceDayKey::calibration(OptLevel level) const
{
    if (level == OptLevel::OneQOptCN)
        return daySignature;
    Fnv1a h;
    h.u64(averageSignature).u64(sanitizeDigest);
    return h.value();
}

DeviceDayKey
deviceDayKey(const Device &dev, const Calibration &day_calib)
{
    DeviceDayKey key;
    key.averageSignature = calibrationSignature(dev.averageCalibration());
    key.daySignature = calibrationSignature(day_calib);
    key.sanitizeDigest =
        calibrationSanitizeDigest(day_calib, dev.topology());
    Fnv1a h;
    h.u64(topologyFingerprint(dev.topology()))
        .u64(gateSetFingerprint(dev.gateSet()))
        .u64(key.averageSignature);
    key.device = h.value();
    return key;
}

CompileFingerprint
fingerprintCompile(const Circuit &lowered, const Device &dev,
                   const Calibration &day_calib,
                   const CompileOptions &opts)
{
    const DeviceDayKey day = deviceDayKey(dev, day_calib);
    CompileFingerprint fp;
    fp.program = circuitFingerprint(lowered);
    fp.device = day.device;
    fp.calibration = day.calibration(opts.level);
    fp.options = compileOptionsFingerprint(opts);
    return fp;
}

std::string
canonicalCompileResultText(const CompileResult &res, bool include_timings)
{
    std::ostringstream os;
    os << "circuit " << res.hwCircuit.numQubits() << " "
       << res.hwCircuit.numGates() << "\n";
    for (const Gate &g : res.hwCircuit.gates()) {
        os << gateName(g.kind);
        for (int i = 0; i < g.arity(); ++i)
            os << " q" << g.qubit(i);
        int np = gateNumParams(g.kind);
        for (int i = 0; i < np; ++i)
            os << " " << fmtExact(g.params[i]);
        os << "\n";
    }
    auto map = [&](const char *label, const std::vector<HwQubit> &m) {
        os << label;
        for (HwQubit q : m)
            os << " " << q;
        os << "\n";
    };
    map("initial_map", res.initialMap);
    map("final_map", res.finalMap);
    os << "swaps " << res.swapCount << "\n"
       << "pulses1q " << res.stats.pulses1q << "\n"
       << "virtualZ " << res.stats.virtualZ << "\n"
       << "twoQ " << res.stats.twoQ << "\n"
       << "mapper_objective " << fmtExact(res.mapperObjective) << "\n"
       << "assembly_bytes " << res.assembly.size() << "\n"
       << res.assembly;
    const CompileReport &r = res.report;
    os << "report.requested_mapper " << r.requestedMapper << "\n"
       << "report.engine " << r.mapperEngine << "\n"
       << "report.nodes " << r.mapperNodes << "\n"
       << "report.optimal " << r.mapperOptimal << "\n"
       << "report.degraded " << r.degraded << "\n"
       << "report.deadline_hit " << r.deadlineHit << "\n"
       << "report.calibration_repairs " << r.calibrationRepairs << "\n";
    for (const auto &d : r.degradations)
        os << "report.degradation " << d << "\n";
    for (const auto &p : r.passes) {
        os << "report.pass " << p.pass;
        if (include_timings)
            os << " " << p.ms;
        os << "\n";
    }
    for (const Diagnostic &d : r.calibrationDiags.all())
        os << "report.diag " << d.str() << "\n";
    if (include_timings)
        os << "compile_ms " << res.compileMs << "\n";
    return os.str();
}

uint64_t
compileResultDigest(const CompileResult &res)
{
    Fnv1a h;
    h.str(canonicalCompileResultText(res, false));
    return h.value();
}

} // namespace triq
