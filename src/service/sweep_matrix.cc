#include "service/sweep_matrix.hh"

#include "common/json.hh"

namespace triq
{

void
writeSweepMatrix(std::ostream &os, const SweepConfig &config,
                 const SweepResult &result,
                 const CompileCache::Stats *cache_stats,
                 bool deterministic)
{
    JsonWriter w;
    w.beginObject().key("cells").beginArray();
    for (const SweepCell &c : result.cells) {
        w.beginObject();
        w.key("program").value(config.programs[c.programIndex].name);
        w.key("device").value(config.devices[c.deviceIndex].name());
        w.key("day").value(c.day).key("level").value(optLevelToken(c.level));
        w.key("source").value(cellSourceName(c.source));
        if (c.source == CellSource::Error) {
            w.key("error").value(c.error);
        } else if (c.source != CellSource::Skipped) {
            w.key("fingerprint").value(c.fingerprint.str());
            w.key("esp").value(c.esp);
            w.key("esp_at_compile").value(c.espAtCompile);
            w.key("cnots").value(c.result->stats.twoQ);
            w.key("swaps").value(c.result->swapCount);
            w.key("degraded").value(c.result->report.degraded);
            if (!deterministic) {
                // Mapper detail is only meaningful for cells this run
                // compiled (restored/reused cells carry no fresh
                // search), and lives outside the deterministic matrix:
                // the resume journal round-trips only `degraded`.
                const CompileReport &rep = c.result->report;
                w.key("ms").value(c.ms);
                w.key("mapper_engine").value(rep.mapperEngine);
                w.key("mapper_nodes").value(rep.mapperNodes);
                w.key("mapper_bound_pruned").value(rep.mapperBoundPruned);
                w.key("mapper_warm_start").value(rep.mapperWarmStarted);
            }
        }
        w.endObject();
    }
    w.endArray();

    const SweepStats &st = result.stats;
    w.key("stats").beginObject();
    w.key("cells").value(st.cells).key("errors").value(st.errors);
    w.key("skipped").value(st.skipped).key("compiles").value(st.compiles);
    w.key("cache_hits").value(st.cacheHits);
    w.key("drift_reuses").value(st.driftReuses);
    if (!deterministic) {
        w.key("drift_recompiles").value(st.driftRecompiles);
        w.key("restored_cells").value(st.restoredCells);
        w.key("threads").value(st.threads).key("wall_ms").value(st.wallMs);
        w.key("mapper_nodes").value(st.mapperNodes);
        w.key("mapper_bound_pruned").value(st.mapperBoundPruned);
        w.key("mapper_symmetry_pruned").value(st.mapperSymmetryPruned);
        w.key("mapper_dominance_pruned").value(st.mapperDominancePruned);
        w.key("mapper_fallbacks").value(st.mapperFallbacks);
        w.key("mapper_warm_starts").value(st.mapperWarmStarts);
    }
    w.endObject();

    if (cache_stats && !deterministic) {
        const CompileCache::Stats &cs = *cache_stats;
        w.key("cache").beginObject();
        w.key("lookups").value(cs.lookups).key("hits").value(cs.hits);
        w.key("misses").value(cs.misses).key("inserts").value(cs.inserts);
        w.key("drift_checks").value(cs.driftChecks);
        w.key("drift_reuses").value(cs.driftReuses);
        w.key("drift_invalidations").value(cs.driftInvalidations);
        w.endObject();
    }
    w.endObject();
    os << w.str() << "\n";
}

} // namespace triq
