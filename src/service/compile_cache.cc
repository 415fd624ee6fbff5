#include "service/compile_cache.hh"

#include "common/env.hh"
#include "core/esp.hh"

namespace triq
{

std::optional<CompileCache::Entry>
CompileCache::find(const CompileFingerprint &key)
{
    std::lock_guard<std::mutex> lock(mutex_);
    ++stats_.lookups;
    auto it = map_.find(key);
    if (it == map_.end()) {
        ++stats_.misses;
        return std::nullopt;
    }
    ++stats_.hits;
    return it->second;
}

void
CompileCache::insert(const CompileFingerprint &key,
                     std::shared_ptr<const CompileResult> result,
                     double esp_at_compile, int day)
{
    std::lock_guard<std::mutex> lock(mutex_);
    Entry e;
    e.result = std::move(result);
    e.espAtCompile = esp_at_compile;
    e.calibrationSig = key.calibration;
    e.day = day;
    auto [it, fresh] = map_.insert_or_assign(key, std::move(e));
    (void)it;
    ++stats_.inserts;
    if (fresh) {
        order_.push_back(key);
        evictIfFullLocked();
    }
    newestByStable_[key.stableKey()] = key;
}

std::optional<CompileCache::Entry>
CompileCache::findDriftTolerant(const CompileFingerprint &key,
                                const Topology &topo,
                                const Calibration &new_calib,
                                double threshold, double *esp_new_out,
                                std::optional<Entry> *stale_out)
{
    if (esp_new_out)
        *esp_new_out = 0.0;

    Entry candidate;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        ++stats_.driftChecks;
        if (threshold < 0.0)
            return std::nullopt;
        auto ns = newestByStable_.find(key.stableKey());
        if (ns == newestByStable_.end())
            return std::nullopt;
        auto it = map_.find(ns->second);
        if (it == map_.end())
            return std::nullopt; // evicted
        candidate = it->second;
    }
    if (stale_out)
        *stale_out = candidate;

    // ESP evaluation outside the lock: it walks the whole routed
    // circuit, and concurrent sweep workers must not serialize on it.
    double esp_new = estimatedSuccessProbability(
        candidate.result->hwCircuit, topo, new_calib);
    if (esp_new_out)
        *esp_new_out = esp_new;

    bool within =
        esp_new >= candidate.espAtCompile * (1.0 - threshold);
    {
        std::lock_guard<std::mutex> lock(mutex_);
        if (within)
            ++stats_.driftReuses;
        else
            ++stats_.driftInvalidations;
    }
    if (!within)
        return std::nullopt;
    return candidate;
}

CompileCache::Stats
CompileCache::stats() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return stats_;
}

size_t
CompileCache::size() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return map_.size();
}

void
CompileCache::clear()
{
    std::lock_guard<std::mutex> lock(mutex_);
    map_.clear();
    newestByStable_.clear();
    order_.clear();
}

void
CompileCache::evictIfFullLocked()
{
    if (maxEntries_ == 0)
        return;
    while (map_.size() > maxEntries_ && !order_.empty()) {
        CompileFingerprint victim = order_.front();
        order_.pop_front();
        auto it = map_.find(victim);
        if (it == map_.end())
            continue;
        auto ns = newestByStable_.find(victim.stableKey());
        if (ns != newestByStable_.end() && ns->second == victim)
            newestByStable_.erase(ns);
        map_.erase(it);
        ++stats_.evictions;
    }
}

bool
cacheEnabledFromEnv()
{
    return envInt("TRIQ_CACHE", 1, 0) != 0;
}

} // namespace triq
