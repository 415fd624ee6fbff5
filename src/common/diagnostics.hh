/**
 * @file
 * Structured diagnostics: the error-reporting channel the front ends
 * and input validators use instead of throwing on the first problem.
 *
 * A Diagnostics collector accumulates any number of Diagnostic records
 * (severity, stable code, message, source span), so one run over a
 * malformed program or calibration feed reports *every* problem it can
 * find. Consumers render the collection as human-readable text
 * (`text()`) or machine-readable JSON (`writeJson()`, the
 * "diagnostics" member of `triqc --diag-json` and of triqd's
 * input.parse replies), or convert it into the legacy throwing
 * contract with `throwIfErrors()`.
 *
 * Error-handling contract (see DESIGN.md, "Error-handling contract"):
 *  - Diagnostics: expected-bad *input* (parse errors, corrupt
 *    calibration). Recoverable, multiple per run, exit code 1.
 *  - FatalError: user-correctable error raised where no collector is
 *    threaded through (CLI misuse, unreadable files). Exit code 1.
 *  - PanicError: internal invariant violation — a TriQ bug. Exit code 2.
 */

#ifndef TRIQ_COMMON_DIAGNOSTICS_HH
#define TRIQ_COMMON_DIAGNOSTICS_HH

#include <string>
#include <vector>

#include "common/json.hh"

namespace triq
{

/** Diagnostic severity, ordered by increasing badness. */
enum class DiagSeverity
{
    Note,    //!< Informational context for a previous diagnostic.
    Warning, //!< Suspicious but survivable (e.g. a clamped error rate).
    Error,   //!< The input is invalid; the produced artifact is partial.
};

/** Display name: "note" / "warning" / "error". */
const char *diagSeverityName(DiagSeverity s);

/** Half-open source location; 0 means "not applicable". */
struct SourceSpan
{
    int line = 0;
    int col = 0;
};

/** One structured diagnostic record. */
struct Diagnostic
{
    DiagSeverity severity = DiagSeverity::Error;

    /**
     * Stable machine-readable code, kebab-case within a dotted
     * component prefix, e.g. "qasm.unknown-gate", "calib.nan-error-rate".
     */
    std::string code;

    /** Human-readable description of the problem. */
    std::string message;

    /** Where in the input the problem is (0/0 when not positional). */
    SourceSpan span;

    /** Input name: file path, "<string>", "calibration", ... */
    std::string origin;

    /** "origin:line:col: severity: message [code]" (parts omitted if 0). */
    std::string str() const;
};

/**
 * Accumulator for diagnostics produced by one operation.
 *
 * Collectors cap the number of *errors* they record (`maxErrors`,
 * default 64) so a pathological input cannot flood memory: once the cap
 * is reached further errors are counted but not stored, and
 * `truncated()` reports it.
 */
class Diagnostics
{
  public:
    /** @param origin Default origin stamped on added diagnostics. */
    explicit Diagnostics(std::string origin = "") : origin_(std::move(origin))
    {
    }

    /** Record an error (respecting the cap). */
    void error(std::string code, std::string message, SourceSpan span = {});

    /** Record a warning. */
    void warning(std::string code, std::string message, SourceSpan span = {});

    /** Record a note. */
    void note(std::string code, std::string message, SourceSpan span = {});

    /** All recorded diagnostics in insertion order. */
    const std::vector<Diagnostic> &all() const { return diags_; }

    /** True when at least one error was recorded. */
    bool hasErrors() const { return errorCount_ > 0; }

    /** Total errors seen (including ones dropped past the cap). */
    int errorCount() const { return errorCount_; }

    /** Total warnings seen. */
    int warningCount() const { return warningCount_; }

    /** True when errors past the cap were dropped. */
    bool truncated() const { return truncated_; }

    /** Storage cap for error records. */
    int maxErrors = 64;

    /** Append another collector's records (cap still applies). */
    void merge(const Diagnostics &other);

    /** Human-readable rendering, one diagnostic per line. */
    std::string text() const;

    /**
     * Machine-readable rendering: one JSON object
     * {"errors": N, "warnings": N, "truncated": bool, "diagnostics":
     * [{"severity", "code", "message", "line", "col", "origin"}, ...]}.
     */
    void writeJson(JsonWriter &w) const;

    /** writeJson() as a standalone document. */
    std::string json() const
    {
        JsonWriter w;
        writeJson(w);
        return w.str();
    }

    /**
     * Bridge to the throwing contract: when errors were recorded, throw
     * FatalError carrying `context` plus the full text rendering.
     */
    void throwIfErrors(const std::string &context) const;

  private:
    void add(DiagSeverity sev, std::string code, std::string message,
             SourceSpan span);

    std::string origin_;
    std::vector<Diagnostic> diags_;
    int errorCount_ = 0;
    int warningCount_ = 0;
    bool truncated_ = false;
};

} // namespace triq

#endif // TRIQ_COMMON_DIAGNOSTICS_HH
