#include "trace.hh"

#include <map>

#include "metrics.hh"
#include "service/wire.hh"

namespace triqbench
{

std::string
layerOf(const std::string &span_name)
{
    return span_name.substr(0, span_name.find('.'));
}

double
Tracer::nowUs() const
{
    return std::chrono::duration<double, std::micro>(Clock::now() - origin_)
        .count();
}

int
Tracer::begin(const std::string &name)
{
    if (!enabled_)
        return -1;
    Record r;
    r.name = name;
    r.startUs = nowUs();
    r.parent = current();
    r.op = op_;
    int id;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        id = static_cast<int>(records_.size());
        records_.push_back(std::move(r));
    }
    stack_.push_back(id);
    return id;
}

void
Tracer::end(int id)
{
    if (id < 0)
        return;
    double now = nowUs();
    {
        std::lock_guard<std::mutex> lock(mutex_);
        records_[id].endUs = now;
    }
    // Spans close in LIFO order on the benchmark thread.
    if (!stack_.empty() && stack_.back() == id)
        stack_.pop_back();
}

void
Tracer::record(const std::string &name, double start_us, double end_us,
               int parent, long op, int tid)
{
    if (!enabled_)
        return;
    std::lock_guard<std::mutex> lock(mutex_);
    records_.push_back({name, start_us, end_us, parent, op, tid});
}

double
Tracer::totalMs(const std::string &name) const
{
    double us = 0.0;
    for (const Record &r : records_)
        if (r.endUs >= 0.0 && r.name == name)
            us += r.endUs - r.startUs;
    return us / 1000.0;
}

long
Tracer::count(const std::string &name) const
{
    long n = 0;
    for (const Record &r : records_)
        if (r.endUs >= 0.0 && r.name == name)
            ++n;
    return n;
}

std::vector<Tracer::LayerRow>
Tracer::selfTimeByLayer() const
{
    std::vector<std::vector<Interval>> children(records_.size());
    for (const Record &r : records_)
        if (r.endUs >= 0.0 && r.parent >= 0)
            children[r.parent].push_back({r.startUs, r.endUs});
    std::map<std::string, LayerRow> rows;
    for (size_t i = 0; i < records_.size(); ++i) {
        const Record &r = records_[i];
        if (r.endUs < 0.0)
            continue;
        LayerRow &row = rows[layerOf(r.name)];
        row.layer = layerOf(r.name);
        row.selfMs += selfTime(r.startUs, r.endUs, children[i]) / 1000.0;
        row.totalMs += (r.endUs - r.startUs) / 1000.0;
        ++row.spans;
    }
    std::vector<LayerRow> out;
    for (auto &[layer, row] : rows)
        out.push_back(row);
    return out;
}

std::string
Tracer::chromeJson() const
{
    triq::JsonWriter w;
    w.beginObject().key("displayTimeUnit").value("ms");
    w.key("traceEvents").beginArray();
    for (size_t i = 0; i < records_.size(); ++i) {
        const Record &r = records_[i];
        if (r.endUs < 0.0)
            continue;
        w.beginObject();
        w.key("name").value(r.name).key("cat").value(layerOf(r.name));
        w.key("ph").value("X");
        w.key("ts").value(r.startUs).key("dur").value(r.endUs - r.startUs);
        w.key("pid").value(1).key("tid").value(r.tid);
        w.key("args").beginObject();
        w.key("id").value(static_cast<long>(i));
        w.key("parent").value(r.parent).key("op").value(r.op);
        w.endObject();
        w.endObject();
    }
    w.endArray().endObject();
    return w.str();
}

} // namespace triqbench
