#include "service/sweep.hh"

#include <algorithm>
#include <array>
#include <chrono>
#include <map>
#include <memory>
#include <unordered_map>
#include <unordered_set>

#include "common/fault_injector.hh"
#include "common/logging.hh"
#include "common/sched.hh"
#include "core/decompose.hh"
#include "core/esp.hh"
#include "service/sweep_journal.hh"

namespace triq
{

namespace
{

using Clock = std::chrono::steady_clock;

double
msSince(Clock::time_point t0)
{
    return std::chrono::duration<double, std::milli>(Clock::now() - t0)
        .count();
}

} // namespace

std::string
cellSourceName(CellSource s)
{
    switch (s) {
      case CellSource::Compiled:
        return "compiled";
      case CellSource::CacheHit:
        return "cache_hit";
      case CellSource::DriftReuse:
        return "drift_reuse";
      case CellSource::Skipped:
        return "skipped";
      case CellSource::Error:
        return "error";
    }
    panic("cellSourceName: unknown source");
}

CachedCompile
compileThroughCache(CompileCache *cache, const Circuit &program,
                    const Device &dev, int day, const Calibration &calib,
                    const CompileOptions &opts, std::optional<double> drift,
                    const Circuit *lowered,
                    const CompileFingerprint *fingerprint)
{
    std::optional<Circuit> own_lowered;
    if (!lowered)
        lowered = &own_lowered.emplace(
            decomposeToCnotBasis(program, dev.gateSet().nativeCphase));
    CachedCompile out;
    out.fingerprint = fingerprint
                          ? *fingerprint
                          : fingerprintCompile(*lowered, dev, calib, opts);

    std::optional<CompileCache::Entry> drift_stale;
    bool drift_refused = false;
    if (cache) {
        if (auto hit = cache->find(out.fingerprint)) {
            out.result = hit->result;
            out.source = CellSource::CacheHit;
            out.espAtCompile = hit->espAtCompile;
            out.esp = estimatedSuccessProbability(
                out.result->hwCircuit, dev.topology(), calib);
            return out;
        }
        if (opts.level == OptLevel::OneQOptCN && drift) {
            double esp_new = 0.0;
            if (auto stale = cache->findDriftTolerant(
                    out.fingerprint, dev.topology(), calib, *drift,
                    &esp_new, &drift_stale)) {
                out.result = stale->result;
                out.source = CellSource::DriftReuse;
                out.espAtCompile = stale->espAtCompile;
                out.esp = esp_new;
                return out;
            }
            drift_refused = esp_new > 0.0;
        }
    }

    // Incremental remapping on a refused drift reuse: a
    // drift-invalidated placement is usually within a few swaps of the
    // new optimum, so the mapper warm-starts from it instead of the
    // greedy seed.
    CompileOptions warm_opts = opts;
    if (drift_refused && drift_stale && drift_stale->result) {
        warm_opts.mapping.warmStart = drift_stale->result->initialMap;
        warm_opts.mapping.warmStartOrigin =
            "drift(day " + std::to_string(drift_stale->day) + ")";
    }
    auto compiled = std::make_shared<const CompileResult>(
        compileForDevice(program, dev, calib, warm_opts, lowered));
    out.result = compiled;
    out.source = CellSource::Compiled;
    out.driftRecompiled = drift_refused;
    out.esp = estimatedSuccessProbability(compiled->hwCircuit,
                                          dev.topology(), calib);
    out.espAtCompile = out.esp;
    // A deadline-armed compile is wall-clock dependent; memoizing it
    // would let a degraded artifact impersonate a full-strength one.
    if (cache && !opts.budget.limited())
        cache->insert(out.fingerprint, compiled, out.espAtCompile, day);
    return out;
}

SweepResult
runSweep(const SweepConfig &config, CompileCache *cache)
{
    auto t_start = Clock::now();
    if (config.programs.empty() || config.devices.empty() ||
        config.days.empty() || config.levels.empty())
        fatal("runSweep: every grid dimension (programs, devices, days, "
              "levels) must be non-empty");

    if (config.driftThreshold && !(*config.driftThreshold >= 0.0 &&
                                   *config.driftThreshold <= 1.0))
        fatal("runSweep: drift threshold ", *config.driftThreshold,
              " is outside [0, 1]");

    CompileCache *const memo = config.useCache ? cache : nullptr;
    const bool budgeted = config.options.budget.limited();

    const int np = static_cast<int>(config.programs.size());
    const int nd = static_cast<int>(config.devices.size());
    const int nl = static_cast<int>(config.levels.size());

    // Stage 1 hoist — lower each program once per gate-set variant.
    // The study devices only differ in nativeCphase here, so this is
    // at most two decompositions per program however many devices and
    // days the grid spans.
    std::vector<std::array<std::unique_ptr<Circuit>, 2>> lowered(np);
    std::vector<std::array<uint64_t, 2>> program_fp(np);
    for (int pi = 0; pi < np; ++pi) {
        for (int variant = 0; variant < 2; ++variant) {
            bool needed = false;
            for (const Device &d : config.devices)
                if (static_cast<int>(d.gateSet().nativeCphase) == variant)
                    needed = true;
            if (!needed)
                continue;
            auto c = std::make_unique<Circuit>(decomposeToCnotBasis(
                config.programs[pi].circuit, variant != 0));
            program_fp[pi][variant] = circuitFingerprint(*c);
            lowered[pi][variant] = std::move(c);
        }
    }

    // Stage 2 hoist — one calibration and one DeviceDayKey (signature,
    // sanitize digest, device hash) per (device, day), shared by every
    // program x level cell.
    std::vector<int> days = config.days;
    std::sort(days.begin(), days.end());
    days.erase(std::unique(days.begin(), days.end()), days.end());
    struct DayCalib
    {
        Calibration calib;
        DeviceDayKey key;
    };
    // The TRIQ_FAULT=calib contract applies to the sweep's calibration
    // feed too: corrupt it here, *before* signatures are taken, so the
    // engine's degradation paths (sanitize-and-warn, or per-cell Error
    // under strictCalibration) are reachable from any harness.
    FaultInjector fault_inj = FaultInjector::fromEnv();
    std::vector<std::map<int, DayCalib>> day_calib(nd);
    for (int di = 0; di < nd; ++di)
        for (int day : days) {
            DayCalib dc;
            dc.calib = config.devices[di].calibrate(day);
            if (fault_inj.armsCalibration())
                injectCalibrationFaults(dc.calib, fault_inj);
            dc.key = deviceDayKey(config.devices[di], dc.calib);
            day_calib[di].emplace(day, std::move(dc));
        }

    std::vector<uint64_t> options_fp(nl);
    std::vector<CompileOptions> level_opts(nl);
    for (int li = 0; li < nl; ++li) {
        level_opts[li] = config.options;
        level_opts[li].level = config.levels[li];
        options_fp[li] = compileOptionsFingerprint(level_opts[li]);
    }

    // Build the grid in deterministic order.
    SweepResult out;
    out.cells.reserve(static_cast<size_t>(np) * nd * days.size() * nl);
    for (int pi = 0; pi < np; ++pi)
        for (int di = 0; di < nd; ++di)
            for (int day : days)
                for (int li = 0; li < nl; ++li) {
                    SweepCell cell;
                    cell.programIndex = pi;
                    cell.deviceIndex = di;
                    cell.day = day;
                    cell.level = config.levels[li];
                    const Device &dev = config.devices[di];
                    if (config.programs[pi].circuit.numQubits() >
                        dev.numQubits()) {
                        cell.source = CellSource::Skipped;
                        out.cells.push_back(std::move(cell));
                        continue;
                    }
                    int variant = dev.gateSet().nativeCphase ? 1 : 0;
                    const DayCalib &dc = day_calib[di].at(day);
                    cell.fingerprint.program = program_fp[pi][variant];
                    cell.fingerprint.device = dc.key.device;
                    cell.fingerprint.calibration =
                        dc.key.calibration(cell.level);
                    cell.fingerprint.options = options_fp[li];
                    cell.source = CellSource::Compiled; // resolved below
                    out.cells.push_back(std::move(cell));
                }

    // Crash-safe journal: restore already-completed cells from an
    // existing journal (--resume), then open the append-only writer
    // every cell resolved by *this* run is recorded into. Restored
    // artifacts warm the cache so cells computed after a kill get the
    // same source labels an uninterrupted run would give them.
    std::unique_ptr<SweepJournal> journal;
    std::map<int, int> day_index;
    for (size_t i = 0; i < days.size(); ++i)
        day_index[days[i]] = static_cast<int>(i);
    if (!config.journalPath.empty()) {
        const uint64_t grid_fp = sweepGridFingerprint(config);
        std::unordered_map<uint64_t, JournalArtifact> restored_art;
        bool appending = false;
        if (config.resume) {
            JournalData jd;
            if (loadSweepJournal(config.journalPath, jd)) {
                if (jd.gridFingerprint != grid_fp)
                    fatal("runSweep: journal '", config.journalPath,
                          "' was written for a different grid "
                          "(fingerprint mismatch); refusing to resume");
                appending = true;
                for (JournalArtifact &art : jd.artifacts) {
                    uint64_t k = art.fingerprint.combined();
                    restored_art.emplace(k, std::move(art));
                }
                // Fingerprints whose *compiled* cell record survived.
                // Only these may warm the cache: a kill between an
                // artifact write and its cell write leaves an orphan
                // artifact, and warming the cache from it would flip
                // the recomputed cell from "compiled" to "cache_hit",
                // breaking byte-identity with an uninterrupted run.
                std::unordered_set<uint64_t> compiled_fps;
                for (const JournalCell &jc : jd.cells) {
                    auto di = day_index.find(jc.day);
                    bool ok = jc.programIndex >= 0 &&
                              jc.programIndex < np &&
                              jc.deviceIndex >= 0 &&
                              jc.deviceIndex < nd &&
                              jc.levelIndex >= 0 && jc.levelIndex < nl &&
                              di != day_index.end();
                    if (ok) {
                        size_t ci =
                            ((static_cast<size_t>(jc.programIndex) * nd +
                              jc.deviceIndex) *
                                 days.size() +
                             di->second) *
                                nl +
                            jc.levelIndex;
                        SweepCell &cell = out.cells[ci];
                        // The grid fingerprint matched, so a computed
                        // cell fingerprint differing from the journaled
                        // one means the record is corrupt — recompute.
                        ok = cell.fingerprint == jc.fingerprint;
                        auto art = restored_art.find(
                            jc.fingerprint.combined());
                        // A cell that carries an artifact cannot be
                        // restored without it (its record was corrupt).
                        if (ok && art == restored_art.end() &&
                            (jc.source == CellSource::Compiled ||
                             jc.source == CellSource::CacheHit ||
                             jc.source == CellSource::DriftReuse)) {
                            warn("runSweep: the artifact of a journaled ",
                                 cellSourceName(jc.source),
                                 " cell did not load; recomputing it");
                            continue;
                        }
                        if (ok) {
                            cell.source = jc.source;
                            cell.esp = jc.esp;
                            cell.espAtCompile = jc.espAtCompile;
                            cell.error = jc.error;
                            cell.ms = 0.0;
                            cell.restored = true;
                            if (art != restored_art.end())
                                cell.result = art->second.result;
                            if (jc.source == CellSource::Compiled)
                                compiled_fps.insert(
                                    jc.fingerprint.combined());
                            ++out.stats.restoredCells;
                        }
                    }
                    if (!ok)
                        warn("runSweep: ignoring journaled cell that "
                             "does not match this grid; recomputing it");
                }
                if (memo && !budgeted) {
                    // Warm the cache in day-ascending order: an
                    // uninterrupted run inserts day by day, and the
                    // drift path trusts insertion recency to find the
                    // *latest* artifact under a stable key. Hash-map
                    // order here could leave an older day "most
                    // recent" and flip a later drift_recompile into a
                    // drift_reuse, breaking byte-identity.
                    std::vector<const JournalArtifact *> warm;
                    for (const auto &[k, art] : restored_art)
                        if (art.cacheable && compiled_fps.count(k))
                            warm.push_back(&art);
                    std::stable_sort(warm.begin(), warm.end(),
                                     [](const JournalArtifact *a,
                                        const JournalArtifact *b) {
                                         return a->day < b->day;
                                     });
                    for (const JournalArtifact *art : warm)
                        memo->insert(art->fingerprint, art->result,
                                     art->espAtCompile, art->day);
                }
            } else {
                warn("runSweep: --resume found no usable journal at '",
                     config.journalPath, "'; starting fresh");
            }
        }
        journal = std::make_unique<SweepJournal>(config.journalPath,
                                                 grid_fp, appending);
        for (const auto &[k, art] : restored_art) {
            (void)k;
            journal->noteArtifact(art.fingerprint);
        }
    }

    auto journal_cell = [&](int ci) {
        if (!journal)
            return;
        const SweepCell &cell = out.cells[static_cast<size_t>(ci)];
        if (cell.restored)
            return;
        JournalCell jc;
        jc.programIndex = cell.programIndex;
        jc.deviceIndex = cell.deviceIndex;
        jc.day = cell.day;
        jc.levelIndex = ci % nl;
        jc.source = cell.source;
        jc.fingerprint = cell.fingerprint;
        jc.esp = cell.esp;
        jc.espAtCompile = cell.espAtCompile;
        jc.error = cell.error;
        journal->recordCell(jc, cell.result, cell.day,
                            cell.source != CellSource::DriftReuse);
    };
    if (journal)
        for (int ci = 0; ci < static_cast<int>(out.cells.size()); ++ci)
            if (out.cells[static_cast<size_t>(ci)].source ==
                CellSource::Skipped)
                journal_cell(ci);

    // Drift-recompile accounting must be observable per day even
    // though workers run concurrently.
    std::mutex stats_mutex;

    // Days ascend with a barrier between them: a later day's drift
    // check must see the earlier days' entries (the ROADMAP
    // calibration-feed loop).
    for (int day : days) {
        // Group this day's unresolved cells by fingerprint: one
        // representative compiles/looks up, members share its artifact.
        std::vector<int> reps;
        std::unordered_map<uint64_t, std::vector<int>> members;
        std::unordered_map<uint64_t, int> rep_of;
        for (int ci = 0; ci < static_cast<int>(out.cells.size()); ++ci) {
            SweepCell &cell = out.cells[ci];
            if (cell.day != day ||
                cell.source == CellSource::Skipped || cell.restored)
                continue;
            uint64_t k = cell.fingerprint.combined();
            auto it = rep_of.find(k);
            if (it == rep_of.end()) {
                // Dedup within the run only when caching is on: with
                // the cache disabled the engine must honestly compile
                // every cell (the A/B baseline).
                if (memo) {
                    rep_of.emplace(k, ci);
                    reps.push_back(ci);
                } else {
                    reps.push_back(ci);
                }
            } else {
                members[k].push_back(ci);
            }
        }

        const int num_reps = static_cast<int>(reps.size());
        SchedDecision dec = forEachIndex(config.threads, num_reps, [&](int ri) {
            int ci = reps[ri];
            SweepCell &cell = out.cells[ci];
            const Device &dev = config.devices[cell.deviceIndex];
            int variant = dev.gateSet().nativeCphase ? 1 : 0;
            auto t0 = Clock::now();
            // A throwing cell (strict calibration rejecting a corrupt
            // feed, or any pipeline failure) is recorded and contained
            // *inside* the worker: letting it escape would make
            // forEachIndex rethrow and void every other cell of the
            // sweep.
            try {
                CachedCompile cc = compileThroughCache(
                    memo, config.programs[cell.programIndex].circuit, dev,
                    cell.day, day_calib[cell.deviceIndex].at(cell.day).calib,
                    level_opts[ci % nl], config.driftThreshold,
                    lowered[cell.programIndex][variant].get(),
                    &cell.fingerprint);
                cell.result = cc.result;
                cell.source = cc.source;
                cell.esp = cc.esp;
                cell.espAtCompile = cc.espAtCompile;
                if (cc.source == CellSource::Compiled) {
                    const CompileReport &rep = cc.result->report;
                    std::lock_guard<std::mutex> lock(stats_mutex);
                    if (cc.driftRecompiled)
                        ++out.stats.driftRecompiles;
                    out.stats.mapperNodes += rep.mapperNodes;
                    out.stats.mapperBoundPruned += rep.mapperBoundPruned;
                    out.stats.mapperSymmetryPruned +=
                        rep.mapperSymmetryPruned;
                    out.stats.mapperDominancePruned +=
                        rep.mapperDominancePruned;
                    if (rep.mapperEngine != rep.requestedMapper)
                        ++out.stats.mapperFallbacks;
                    if (rep.mapperWarmStarted)
                        ++out.stats.mapperWarmStarts;
                }
            } catch (const std::exception &e) {
                cell.result.reset();
                cell.source = CellSource::Error;
                cell.error = e.what();
                cell.esp = 0.0;
                cell.espAtCompile = 0.0;
            }
            cell.ms = msSince(t0);
            journal_cell(ci);
        });
        out.stats.threads = std::max(out.stats.threads, dec.threads);

        // Members share their representative's artifact: within one
        // run that sharing *is* a cache hit (the entry the rep just
        // inserted or found). Each is scored under its own device's
        // calibration for the day.
        for (auto &[k, idxs] : members) {
            const SweepCell &rep = out.cells[rep_of.at(k)];
            for (int ci : idxs) {
                SweepCell &cell = out.cells[ci];
                cell.result = rep.result;
                cell.source = rep.source == CellSource::Compiled
                                  ? CellSource::CacheHit
                                  : rep.source;
                cell.espAtCompile = rep.espAtCompile;
                cell.error = rep.error; // Error reps poison their twins
                cell.ms = 0.0;
                if (cell.result)
                    cell.esp = estimatedSuccessProbability(
                        cell.result->hwCircuit,
                        config.devices[cell.deviceIndex].topology(),
                        day_calib[cell.deviceIndex].at(day).calib);
                journal_cell(ci);
            }
        }
    }

    // Count sources. A restored cell that reused an artifact is scored
    // again under its own day's calibration: journals written before
    // members were scored on resolution carry 0 for a drift-reuse
    // member's ESP.
    for (SweepCell &cell : out.cells) {
        if (cell.source == CellSource::Skipped) {
            ++out.stats.skipped;
            continue;
        }
        if (cell.source == CellSource::Error) {
            ++out.stats.errors;
            continue;
        }
        ++out.stats.cells;
        if (!cell.result)
            continue;
        if (cell.source == CellSource::Compiled) {
            ++out.stats.compiles;
            continue;
        }
        if (cell.source == CellSource::CacheHit)
            ++out.stats.cacheHits;
        else
            ++out.stats.driftReuses;
        if (cell.restored)
            cell.esp = estimatedSuccessProbability(
                cell.result->hwCircuit,
                config.devices[cell.deviceIndex].topology(),
                day_calib[cell.deviceIndex].at(cell.day).calib);
    }
    if (out.stats.errors > 0)
        warn("runSweep: ", out.stats.errors,
             " cell(s) failed and were recorded as errors; ",
             out.stats.cells, " cell(s) completed");
    out.stats.wallMs = msSince(t_start);
    return out;
}

} // namespace triq
