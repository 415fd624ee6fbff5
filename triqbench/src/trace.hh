/**
 * @file
 * The benchmark's span tracer. Spans are recorded by the benchmark's
 * own code around each call into a TriQ layer (lang, device, core, sim,
 * service, common); a span's layer is its name up to the first '.'.
 * Spans stay in memory and are written out when the run ends, as
 * Chrome trace-event JSON (loads offline in Perfetto or
 * chrome://tracing) plus a flat per-layer self-time table.
 *
 * Disabled tracers record nothing: the end-to-end metrics are always
 * taken with tracing off.
 */

#ifndef TRIQBENCH_TRACE_HH
#define TRIQBENCH_TRACE_HH

#include <chrono>
#include <mutex>
#include <string>
#include <vector>

namespace triqbench
{

class Tracer
{
  public:
    /** One finished (or open, end < 0) span. Times in microseconds. */
    struct Record
    {
        std::string name;
        double startUs = 0.0;
        double endUs = -1.0;
        int parent = -1; //!< Index of the enclosing span, -1 at the root.
        long op = -1;    //!< Op id the span belongs to, -1 outside ops.
        int tid = 0;     //!< 0 = the benchmark thread.
    };

    /** Self time aggregated over the spans of one layer. */
    struct LayerRow
    {
        std::string layer;
        double selfMs = 0.0;
        double totalMs = 0.0;
        long spans = 0;
    };

    explicit Tracer(bool enabled) : enabled_(enabled) {}

    bool enabled() const { return enabled_; }

    /** Turn recording on or off between phases (benchmark thread). */
    void setEnabled(bool on) { enabled_ = on; }

    /** Microseconds since the tracer was created. */
    double nowUs() const;

    /** Op id stamped on spans opened from now on. */
    void setOp(long op) { op_ = op; }

    /**
     * Open a span on the benchmark thread, nested in the innermost open
     * one. Returns its index, or -1 when disabled.
     */
    int begin(const std::string &name);

    /** Close span `id` (from begin); ignores -1. */
    void end(int id);

    /** Innermost open span on the benchmark thread, or -1. */
    int current() const { return stack_.empty() ? -1 : stack_.back(); }

    /**
     * Record a finished span measured elsewhere, e.g. a request whose
     * reply arrives on a server thread. Thread-safe.
     */
    void record(const std::string &name, double start_us, double end_us,
                int parent, long op, int tid);

    /** All spans so far (call once no other thread records). */
    const std::vector<Record> &records() const { return records_; }

    /** Summed duration (ms) and count of the closed spans named `name`. */
    double totalMs(const std::string &name) const;
    long count(const std::string &name) const;

    /** Per-layer self time, sorted by layer name. */
    std::vector<LayerRow> selfTimeByLayer() const;

    /** Chrome trace-event JSON of every closed span. */
    std::string chromeJson() const;

  private:
    using Clock = std::chrono::steady_clock;

    bool enabled_;
    Clock::time_point origin_ = Clock::now();
    long op_ = -1;
    std::vector<int> stack_;
    mutable std::mutex mutex_; //!< Guards records_ against record().
    std::vector<Record> records_;
};

/** RAII span on the benchmark thread; free when tracing is off. */
class Span
{
  public:
    Span(Tracer &t, const std::string &name)
        : tracer_(t), id_(t.enabled() ? t.begin(name) : -1)
    {
    }
    ~Span() { tracer_.end(id_); }

    Span(const Span &) = delete;
    Span &operator=(const Span &) = delete;

    /** Index of the span in Tracer::records(), -1 when disabled. */
    int id() const { return id_; }

  private:
    Tracer &tracer_;
    int id_;
};

/** Layer of a span name: the text before the first '.'. */
std::string layerOf(const std::string &span_name);

} // namespace triqbench

#endif // TRIQBENCH_TRACE_HH
