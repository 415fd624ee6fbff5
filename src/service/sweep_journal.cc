#include "service/sweep_journal.hh"

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <optional>
#include <unordered_map>

#include "common/json.hh"
#include "common/logging.hh"

namespace triq
{

namespace
{

/** 16-hex rendering of a u64 (no 0x, zero padded). */
std::string
hexU64(uint64_t v)
{
    char buf[17];
    std::snprintf(buf, sizeof(buf), "%016llx",
                  static_cast<unsigned long long>(v));
    return buf;
}

/** Hex string -> u64; false on malformed input. */
bool
parseHexU64(const std::string &s, uint64_t &out)
{
    if (s.empty() || s.size() > 16)
        return false;
    errno = 0;
    char *end = nullptr;
    unsigned long long v = std::strtoull(s.c_str(), &end, 16);
    if (end != s.c_str() + s.size() || errno != 0)
        return false;
    out = v;
    return true;
}

/**
 * Doubles round-trip through their IEEE-754 bit pattern, never a
 * decimal rendering — a restored artifact must be bit-identical.
 */
std::string
hexF64(double v)
{
    uint64_t bits;
    std::memcpy(&bits, &v, sizeof(bits));
    return hexU64(bits);
}

bool
parseHexF64(const std::string &s, double &out)
{
    uint64_t bits = 0;
    if (!parseHexU64(s, bits))
        return false;
    std::memcpy(&out, &bits, sizeof(out));
    return true;
}

/**
 * Exact circuit codec: one "kind,q0,q1,q2,p0,p1,p2" token per gate
 * (params as f64 bit-pattern hex), gates joined by ';'. Pure ASCII, so
 * it embeds in a JSON string without escaping.
 */
std::string
encodeCircuit(const Circuit &c)
{
    std::string out;
    out.reserve(static_cast<size_t>(c.numGates()) * 24);
    for (const Gate &g : c.gates()) {
        if (!out.empty())
            out.push_back(';');
        out += std::to_string(static_cast<int>(g.kind));
        for (int i = 0; i < 3; ++i) {
            out.push_back(',');
            out += std::to_string(g.qubits[static_cast<size_t>(i)]);
        }
        for (int i = 0; i < 3; ++i) {
            out.push_back(',');
            out += hexF64(g.params[static_cast<size_t>(i)]);
        }
    }
    return out;
}

bool
decodeCircuit(const std::string &text, int num_qubits,
              const std::string &name, Circuit &out)
{
    out = Circuit(num_qubits, name);
    if (text.empty())
        return true;
    size_t pos = 0;
    while (pos <= text.size()) {
        size_t end = text.find(';', pos);
        if (end == std::string::npos)
            end = text.size();
        std::string tok = text.substr(pos, end - pos);
        // Split into exactly 7 comma-separated fields.
        std::vector<std::string> f;
        size_t p = 0;
        while (p <= tok.size()) {
            size_t c = tok.find(',', p);
            if (c == std::string::npos)
                c = tok.size();
            f.push_back(tok.substr(p, c - p));
            p = c + 1;
        }
        if (f.size() != 7)
            return false;
        Gate g;
        try {
            g.kind = static_cast<GateKind>(std::stoi(f[0]));
            for (int i = 0; i < 3; ++i)
                g.qubits[static_cast<size_t>(i)] =
                    std::stoi(f[static_cast<size_t>(1 + i)]);
        } catch (const std::exception &) {
            return false;
        }
        for (int i = 0; i < 3; ++i)
            if (!parseHexF64(f[static_cast<size_t>(4 + i)],
                             g.params[static_cast<size_t>(i)]))
                return false;
        out.add(g);
        pos = end + 1;
        if (end == text.size())
            break;
    }
    return true;
}

void
writeFingerprint(JsonWriter &w, const CompileFingerprint &fp)
{
    w.key("fp").beginArray();
    w.value(hexU64(fp.program));
    w.value(hexU64(fp.device));
    w.value(hexU64(fp.calibration));
    w.value(hexU64(fp.options));
    w.endArray();
}

bool
readFingerprint(const JsonValue &v, CompileFingerprint &fp)
{
    const JsonValue *a = v.find("fp");
    if (a == nullptr || !a->isArray() || a->array.size() != 4)
        return false;
    uint64_t parts[4];
    for (size_t i = 0; i < 4; ++i)
        if (!a->array[i].isString() ||
            !parseHexU64(a->array[i].string, parts[i]))
            return false;
    fp.program = parts[0];
    fp.device = parts[1];
    fp.calibration = parts[2];
    fp.options = parts[3];
    return true;
}

bool
readIntArray(const JsonValue &v, const std::string &key,
             std::vector<int> &out)
{
    const JsonValue *a = v.find(key);
    if (a == nullptr || !a->isArray())
        return false;
    out.clear();
    out.reserve(a->array.size());
    for (const JsonValue &e : a->array) {
        if (!e.isNumber())
            return false;
        out.push_back(static_cast<int>(e.number));
    }
    return true;
}

std::optional<CellSource>
parseCellSource(const std::string &s)
{
    for (CellSource src :
         {CellSource::Compiled, CellSource::CacheHit,
          CellSource::DriftReuse, CellSource::Skipped, CellSource::Error})
        if (cellSourceName(src) == s)
            return src;
    return std::nullopt;
}

} // namespace

uint64_t
sweepGridFingerprint(const SweepConfig &config)
{
    Fnv1a h;
    h.u64(static_cast<uint64_t>(config.programs.size()));
    for (const SweepProgram &p : config.programs) {
        h.str(p.name);
        h.u64(circuitFingerprint(p.circuit));
    }
    h.u64(static_cast<uint64_t>(config.devices.size()));
    for (const Device &d : config.devices) {
        h.str(d.name());
        h.u64(topologyFingerprint(d.topology()));
        h.u64(gateSetFingerprint(d.gateSet()));
        h.u64(calibrationSignature(d.averageCalibration()));
    }
    h.u64(static_cast<uint64_t>(config.days.size()));
    for (int day : config.days)
        h.i64(day);
    h.u64(static_cast<uint64_t>(config.levels.size()));
    for (OptLevel l : config.levels)
        h.i64(static_cast<int64_t>(l));
    h.u64(compileOptionsFingerprint(config.options));
    // An unset threshold hashes as -1, as journals have always
    // recorded "no drift reuse".
    h.f64(config.driftThreshold.value_or(-1.0));
    h.b(config.useCache);
    h.b(config.options.budget.limited());
    return h.value();
}

SweepJournal::SweepJournal(const std::string &path,
                           uint64_t grid_fingerprint, bool resume)
{
    int flags = O_WRONLY | O_CREAT | O_APPEND;
    if (!resume)
        flags |= O_TRUNC;
    fd_ = ::open(path.c_str(), flags, 0644);
    if (fd_ < 0)
        fatal("sweep journal: cannot open '", path,
              "': ", std::strerror(errno));
    if (!resume) {
        JsonWriter w;
        w.beginObject().key("type").value("header");
        w.key("version").value(1);
        w.key("grid").value(hexU64(grid_fingerprint)).endObject();
        writeLine(w.str());
    }
}

SweepJournal::~SweepJournal()
{
    if (fd_ >= 0)
        ::close(fd_);
}

void
SweepJournal::noteArtifact(const CompileFingerprint &fp)
{
    std::lock_guard<std::mutex> lock(mutex_);
    journaledArtifacts_.insert(fp.combined());
}

void
SweepJournal::recordCell(
    const JournalCell &cell,
    const std::shared_ptr<const CompileResult> &result, int artifact_day,
    bool artifact_cacheable)
{
    std::lock_guard<std::mutex> lock(mutex_);
    if (result != nullptr &&
        journaledArtifacts_.insert(cell.fingerprint.combined()).second) {
        const CompileResult &r = *result;
        JsonWriter w;
        w.beginObject().key("type").value("artifact");
        writeFingerprint(w, cell.fingerprint);
        w.key("name").value(r.hwCircuit.name());
        w.key("qubits").value(r.hwCircuit.numQubits());
        w.key("gates").value(encodeCircuit(r.hwCircuit));
        w.key("imap").beginArray();
        for (HwQubit q : r.initialMap)
            w.value(q);
        w.endArray();
        w.key("fmap").beginArray();
        for (HwQubit q : r.finalMap)
            w.value(q);
        w.endArray();
        w.key("swaps").value(r.swapCount);
        w.key("p1q").value(r.stats.pulses1q);
        w.key("vz").value(r.stats.virtualZ);
        w.key("twoq").value(r.stats.twoQ);
        w.key("obj").value(hexF64(r.mapperObjective));
        w.key("degraded").value(r.report.degraded);
        w.key("cacheable").value(artifact_cacheable);
        w.key("esp_at_compile").value(hexF64(cell.espAtCompile));
        w.key("day").value(artifact_day);
        w.endObject();
        writeLine(w.str());
    }
    JsonWriter w;
    w.beginObject().key("type").value("cell");
    w.key("p").value(cell.programIndex);
    w.key("d").value(cell.deviceIndex);
    w.key("day").value(cell.day);
    w.key("l").value(cell.levelIndex);
    w.key("source").value(cellSourceName(cell.source));
    writeFingerprint(w, cell.fingerprint);
    w.key("esp").value(hexF64(cell.esp));
    w.key("esp_at_compile").value(hexF64(cell.espAtCompile));
    if (!cell.error.empty())
        w.key("error").value(cell.error);
    w.endObject();
    writeLine(w.str());
}

long
SweepJournal::recordsWritten() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return written_;
}

void
SweepJournal::writeLine(const std::string &line)
{
    std::string buf = line;
    buf.push_back('\n');
    size_t off = 0;
    while (off < buf.size()) {
        ssize_t n = ::write(fd_, buf.data() + off, buf.size() - off);
        if (n < 0) {
            if (errno == EINTR)
                continue;
            fatal("sweep journal: write failed: ", std::strerror(errno));
        }
        off += static_cast<size_t>(n);
    }
    // One fsync per record is the durability contract: a SIGKILL can
    // lose at most the line currently being written.
    if (::fdatasync(fd_) != 0 && errno != EINVAL && errno != ENOSYS)
        warn("sweep journal: fdatasync failed: ", std::strerror(errno));
    ++written_;
}

bool
loadSweepJournal(const std::string &path, JournalData &out)
{
    std::ifstream in(path);
    if (!in) {
        warn("sweep journal: cannot read '", path, "'");
        return false;
    }
    std::vector<std::string> lines;
    std::string line;
    while (std::getline(in, line))
        lines.push_back(line);
    if (lines.empty()) {
        warn("sweep journal: '", path, "' is empty");
        return false;
    }

    // Last-wins cell dedup: a resumed run may re-record a coordinate.
    auto cellKey = [](const JournalCell &c) {
        return (static_cast<uint64_t>(static_cast<uint32_t>(c.day))
                << 32) ^
               (static_cast<uint64_t>(c.programIndex) << 20) ^
               (static_cast<uint64_t>(c.deviceIndex) << 10) ^
               static_cast<uint64_t>(c.levelIndex);
    };
    std::unordered_map<uint64_t, size_t> cell_at;
    std::unordered_set<uint64_t> artifact_seen;
    bool have_header = false;

    for (size_t i = 0; i < lines.size(); ++i) {
        const bool last = i + 1 == lines.size();
        if (lines[i].empty())
            continue;
        JsonParseResult parsed = parseJson(lines[i]);
        if (!parsed.ok || !parsed.value.isObject()) {
            // The final line is allowed to be the torn write a SIGKILL
            // left behind; anything else is corruption worth a warning.
            if (!last)
                warn("sweep journal: skipping malformed line ", i + 1,
                     " of '", path, "'");
            continue;
        }
        const JsonValue &v = parsed.value;
        std::string type = v.getString("type");
        if (type == "header") {
            uint64_t grid = 0;
            if (!parseHexU64(v.getString("grid"), grid)) {
                warn("sweep journal: bad header in '", path, "'");
                return false;
            }
            out.gridFingerprint = grid;
            have_header = true;
        } else if (type == "artifact") {
            JournalArtifact art;
            std::vector<int> imap, fmap;
            if (!readFingerprint(v, art.fingerprint) ||
                !readIntArray(v, "imap", imap) ||
                !readIntArray(v, "fmap", fmap)) {
                if (!last)
                    warn("sweep journal: skipping bad artifact, line ",
                         i + 1);
                continue;
            }
            auto r = std::make_shared<CompileResult>();
            if (!decodeCircuit(v.getString("gates"),
                               static_cast<int>(v.getNumber("qubits")),
                               v.getString("name"), r->hwCircuit)) {
                if (!last)
                    warn("sweep journal: skipping bad artifact, line ",
                         i + 1);
                continue;
            }
            r->initialMap.assign(imap.begin(), imap.end());
            r->finalMap.assign(fmap.begin(), fmap.end());
            r->swapCount = static_cast<int>(v.getNumber("swaps"));
            r->stats.pulses1q = static_cast<int>(v.getNumber("p1q"));
            r->stats.virtualZ = static_cast<int>(v.getNumber("vz"));
            r->stats.twoQ = static_cast<int>(v.getNumber("twoq"));
            if (!parseHexF64(v.getString("obj"), r->mapperObjective))
                r->mapperObjective = 0.0;
            r->report.degraded = v.getBool("degraded");
            art.cacheable = v.getBool("cacheable", true);
            if (!parseHexF64(v.getString("esp_at_compile"),
                             art.espAtCompile))
                art.espAtCompile = 0.0;
            art.day = static_cast<int>(v.getNumber("day"));
            art.result = std::move(r);
            if (artifact_seen.insert(art.fingerprint.combined()).second)
                out.artifacts.push_back(std::move(art));
        } else if (type == "cell") {
            JournalCell c;
            c.programIndex = static_cast<int>(v.getNumber("p", -1));
            c.deviceIndex = static_cast<int>(v.getNumber("d", -1));
            c.day = static_cast<int>(v.getNumber("day", 0));
            c.levelIndex = static_cast<int>(v.getNumber("l", -1));
            auto src = parseCellSource(v.getString("source"));
            if (c.programIndex < 0 || c.deviceIndex < 0 ||
                c.levelIndex < 0 || !src ||
                !readFingerprint(v, c.fingerprint) ||
                !parseHexF64(v.getString("esp"), c.esp) ||
                !parseHexF64(v.getString("esp_at_compile"),
                             c.espAtCompile)) {
                if (!last)
                    warn("sweep journal: skipping bad cell, line ",
                         i + 1);
                continue;
            }
            c.source = *src;
            c.error = v.getString("error");
            auto [it, fresh] =
                cell_at.emplace(cellKey(c), out.cells.size());
            if (fresh)
                out.cells.push_back(std::move(c));
            else
                out.cells[it->second] = std::move(c);
        }
        // Unknown record types are ignored: forward compatibility.
    }
    if (!have_header) {
        warn("sweep journal: '", path, "' has no header");
        return false;
    }
    return true;
}

} // namespace triq
