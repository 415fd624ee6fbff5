#include "common/diagnostics.hh"

#include <sstream>

#include "common/logging.hh"

namespace triq
{

const char *
diagSeverityName(DiagSeverity s)
{
    switch (s) {
      case DiagSeverity::Note:
        return "note";
      case DiagSeverity::Warning:
        return "warning";
      case DiagSeverity::Error:
        return "error";
    }
    return "unknown";
}

std::string
Diagnostic::str() const
{
    std::ostringstream os;
    if (!origin.empty())
        os << origin << ":";
    if (span.line > 0) {
        os << span.line << ":";
        if (span.col > 0)
            os << span.col << ":";
    }
    if (os.tellp() > 0)
        os << " ";
    os << diagSeverityName(severity) << ": " << message;
    if (!code.empty())
        os << " [" << code << "]";
    return os.str();
}

void
Diagnostics::add(DiagSeverity sev, std::string code, std::string message,
                 SourceSpan span)
{
    if (sev == DiagSeverity::Error) {
        ++errorCount_;
        if (errorCount_ > maxErrors) {
            truncated_ = true;
            return;
        }
    } else if (sev == DiagSeverity::Warning) {
        ++warningCount_;
    }
    Diagnostic d;
    d.severity = sev;
    d.code = std::move(code);
    d.message = std::move(message);
    d.span = span;
    d.origin = origin_;
    diags_.push_back(std::move(d));
}

void
Diagnostics::error(std::string code, std::string message, SourceSpan span)
{
    add(DiagSeverity::Error, std::move(code), std::move(message), span);
}

void
Diagnostics::warning(std::string code, std::string message, SourceSpan span)
{
    add(DiagSeverity::Warning, std::move(code), std::move(message), span);
}

void
Diagnostics::note(std::string code, std::string message, SourceSpan span)
{
    add(DiagSeverity::Note, std::move(code), std::move(message), span);
}

void
Diagnostics::merge(const Diagnostics &other)
{
    for (const auto &d : other.diags_) {
        if (d.severity == DiagSeverity::Error) {
            ++errorCount_;
            if (errorCount_ > maxErrors) {
                truncated_ = true;
                continue;
            }
        } else if (d.severity == DiagSeverity::Warning) {
            ++warningCount_;
        }
        diags_.push_back(d);
    }
    truncated_ = truncated_ || other.truncated_;
}

std::string
Diagnostics::text() const
{
    std::ostringstream os;
    for (const auto &d : diags_)
        os << d.str() << "\n";
    if (truncated_)
        os << "(further errors suppressed: " << errorCount_
           << " total)\n";
    return os.str();
}

void
Diagnostics::writeJson(JsonWriter &w) const
{
    w.beginObject();
    w.key("errors").value(errorCount_);
    w.key("warnings").value(warningCount_);
    w.key("truncated").value(truncated_);
    w.key("diagnostics").beginArray();
    for (const auto &d : diags_) {
        w.beginObject();
        w.key("severity").value(diagSeverityName(d.severity));
        w.key("code").value(d.code).key("message").value(d.message);
        w.key("line").value(d.span.line).key("col").value(d.span.col);
        w.key("origin").value(d.origin);
        w.endObject();
    }
    w.endArray().endObject();
}

void
Diagnostics::throwIfErrors(const std::string &context) const
{
    if (!hasErrors())
        return;
    fatal(context, ": ", errorCount_, " error",
          errorCount_ == 1 ? "" : "s", "\n", text());
}

} // namespace triq
