#include "common/json.hh"

#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>

#include "common/logging.hh"

namespace triq
{

namespace
{

/** Append code point `cp` (at most U+10FFFF) as UTF-8. */
void
appendUtf8(std::string &out, unsigned cp)
{
    static const unsigned lead[] = {0x00, 0xc0, 0xe0, 0xf0};
    int extra = cp < 0x80 ? 0 : cp < 0x800 ? 1 : cp < 0x10000 ? 2 : 3;
    out += static_cast<char>(lead[extra] | (cp >> (6 * extra)));
    for (int k = extra - 1; k >= 0; --k)
        out += static_cast<char>(0x80 | ((cp >> (6 * k)) & 0x3f));
}

/**
 * Length of the well-formed UTF-8 sequence that starts at s[i], or 0
 * when there is none: an ASCII or stray continuation byte, an overlong
 * form, a surrogate, a code point above U+10FFFF or a truncated tail.
 */
size_t
utf8Length(const std::string &s, size_t i)
{
    auto at = [&](size_t k) -> unsigned {
        return i + k < s.size() ? static_cast<unsigned char>(s[i + k]) : 0;
    };
    unsigned c = at(0);
    size_t n = c < 0xc2 ? 0 : c < 0xe0 ? 2 : c < 0xf0 ? 3 : c < 0xf5 ? 4 : 0;
    // The second byte's range carries every lead-specific rule.
    unsigned lo = c == 0xe0 ? 0xa0 : c == 0xf0 ? 0x90 : 0x80;
    unsigned hi = c == 0xed ? 0x9f : c == 0xf4 ? 0x8f : 0xbf;
    if (n == 0 || at(1) < lo || at(1) > hi)
        return 0;
    for (size_t k = 2; k < n; ++k)
        if ((at(k) & 0xc0) != 0x80)
            return 0;
    return n;
}

/** Append `s` as the body of a JSON string literal. */
void
appendEscaped(std::string &out, const std::string &s)
{
    static const char hex[] = "0123456789abcdef";
    for (size_t i = 0; i < s.size(); ++i) {
        unsigned char c = s[i];
        if (size_t n = utf8Length(s, i)) {
            out.append(s, i, n);
            i += n - 1;
        } else if (c == '"' || c == '\\') {
            out += '\\';
            out += static_cast<char>(c);
        } else if (c == '\n' || c == '\r' || c == '\t') {
            out += '\\';
            out += c == '\n' ? 'n' : c == '\r' ? 'r' : 't';
        } else if (c < 0x20 || c >= 0x7f) {
            // Control bytes, and bytes outside any well-formed UTF-8
            // sequence, so garbage input still yields valid JSON.
            out += "\\u00";
            out += hex[c >> 4];
            out += hex[c & 0xf];
        } else {
            out += static_cast<char>(c);
        }
    }
}

} // namespace

// ---------------------------------------------------------------------
// JsonValue accessors.
// ---------------------------------------------------------------------

const JsonValue *
JsonValue::find(const std::string &k) const
{
    if (kind != Kind::Object)
        return nullptr;
    for (const auto &[key, val] : members)
        if (key == k)
            return &val;
    return nullptr;
}

std::string
JsonValue::getString(const std::string &k, const std::string &fallback) const
{
    const JsonValue *v = find(k);
    return v && v->isString() ? v->string : fallback;
}

double
JsonValue::getNumber(const std::string &k, double fallback) const
{
    const JsonValue *v = find(k);
    return v && v->isNumber() ? v->number : fallback;
}

bool
JsonValue::getBool(const std::string &k, bool fallback) const
{
    const JsonValue *v = find(k);
    return v && v->isBool() ? v->boolean : fallback;
}

// ---------------------------------------------------------------------
// Parser: recursive descent, no exceptions, bounded depth.
// ---------------------------------------------------------------------

namespace
{

class Parser
{
  public:
    Parser(const std::string &text, int max_depth)
        : text_(text), maxDepth_(max_depth)
    {
    }

    JsonParseResult
    run()
    {
        JsonParseResult res;
        skipWs();
        if (!parseValue(res.value, 0)) {
            res.error = error_;
            res.errorAt = errorAt_;
            return res;
        }
        skipWs();
        if (pos_ != text_.size()) {
            fail("trailing garbage after JSON value");
            res.error = error_;
            res.errorAt = errorAt_;
            return res;
        }
        res.ok = true;
        return res;
    }

  private:
    bool
    fail(const std::string &msg)
    {
        // Keep the first (deepest-relevant) failure only.
        if (error_.empty()) {
            error_ = msg;
            errorAt_ = pos_;
        }
        return false;
    }

    void
    skipWs()
    {
        while (pos_ < text_.size()) {
            char c = text_[pos_];
            if (c != ' ' && c != '\t' && c != '\n' && c != '\r')
                break;
            ++pos_;
        }
    }

    bool
    literal(const char *word)
    {
        size_t n = 0;
        while (word[n])
            ++n;
        if (text_.compare(pos_, n, word) != 0)
            return fail(std::string("expected '") + word + "'");
        pos_ += n;
        return true;
    }

    /** The four hex digits at `at` as `code`; false when not hex. */
    bool
    hex4(size_t at, unsigned &code) const
    {
        if (at + 4 > text_.size())
            return false;
        for (size_t i = at; i < at + 4; ++i)
            if (!std::isxdigit(static_cast<unsigned char>(text_[i])))
                return false;
        code = std::stoul(text_.substr(at, 4), nullptr, 16);
        return true;
    }

    bool
    parseValue(JsonValue &out, int depth)
    {
        if (depth > maxDepth_)
            return fail("nesting too deep");
        if (pos_ >= text_.size())
            return fail("unexpected end of input");
        char c = text_[pos_];
        switch (c) {
          case '{':
            return parseObject(out, depth);
          case '[':
            return parseArray(out, depth);
          case '"':
            out.kind = JsonValue::Kind::String;
            return parseString(out.string);
          case 't':
            out.kind = JsonValue::Kind::Bool;
            out.boolean = true;
            return literal("true");
          case 'f':
            out.kind = JsonValue::Kind::Bool;
            out.boolean = false;
            return literal("false");
          case 'n':
            out.kind = JsonValue::Kind::Null;
            return literal("null");
          default:
            if (c == '-' || (c >= '0' && c <= '9')) {
                out.kind = JsonValue::Kind::Number;
                return parseNumber(out.number);
            }
            return fail("unexpected character");
        }
    }

    bool
    parseObject(JsonValue &out, int depth)
    {
        out.kind = JsonValue::Kind::Object;
        ++pos_; // '{'
        skipWs();
        if (pos_ < text_.size() && text_[pos_] == '}') {
            ++pos_;
            return true;
        }
        while (true) {
            skipWs();
            if (pos_ >= text_.size() || text_[pos_] != '"')
                return fail("expected object key");
            std::string key;
            if (!parseString(key))
                return false;
            skipWs();
            if (pos_ >= text_.size() || text_[pos_] != ':')
                return fail("expected ':' after object key");
            ++pos_;
            skipWs();
            JsonValue val;
            if (!parseValue(val, depth + 1))
                return false;
            out.members.emplace_back(std::move(key), std::move(val));
            skipWs();
            if (pos_ >= text_.size())
                return fail("unterminated object");
            if (text_[pos_] == ',') {
                ++pos_;
                continue;
            }
            if (text_[pos_] == '}') {
                ++pos_;
                return true;
            }
            return fail("expected ',' or '}' in object");
        }
    }

    bool
    parseArray(JsonValue &out, int depth)
    {
        out.kind = JsonValue::Kind::Array;
        ++pos_; // '['
        skipWs();
        if (pos_ < text_.size() && text_[pos_] == ']') {
            ++pos_;
            return true;
        }
        while (true) {
            skipWs();
            JsonValue val;
            if (!parseValue(val, depth + 1))
                return false;
            out.array.push_back(std::move(val));
            skipWs();
            if (pos_ >= text_.size())
                return fail("unterminated array");
            if (text_[pos_] == ',') {
                ++pos_;
                continue;
            }
            if (text_[pos_] == ']') {
                ++pos_;
                return true;
            }
            return fail("expected ',' or ']' in array");
        }
    }

    bool
    parseString(std::string &out)
    {
        ++pos_; // '"'
        while (pos_ < text_.size()) {
            unsigned char c = text_[pos_];
            if (c == '"') {
                ++pos_;
                return true;
            }
            if (c == '\\') {
                if (pos_ + 1 >= text_.size())
                    return fail("unterminated escape");
                char e = text_[pos_ + 1];
                pos_ += 2;
                switch (e) {
                  case '"':
                    out += '"';
                    break;
                  case '\\':
                    out += '\\';
                    break;
                  case '/':
                    out += '/';
                    break;
                  case 'b':
                    out += '\b';
                    break;
                  case 'f':
                    out += '\f';
                    break;
                  case 'n':
                    out += '\n';
                    break;
                  case 'r':
                    out += '\r';
                    break;
                  case 't':
                    out += '\t';
                    break;
                  case 'u': {
                    if (pos_ + 4 > text_.size())
                        return fail("truncated \\u escape");
                    unsigned code = 0;
                    if (!hex4(pos_, code))
                        return fail("bad \\u escape digit");
                    pos_ += 4;
                    // A high surrogate joins the low one escaped right
                    // after it; any other surrogate stands alone and
                    // becomes U+FFFD.
                    unsigned low = 0;
                    if (code >= 0xd800 && code <= 0xdbff &&
                        text_.compare(pos_, 2, "\\u") == 0 &&
                        hex4(pos_ + 2, low) && low >= 0xdc00 &&
                        low <= 0xdfff) {
                        code = 0x10000 + ((code - 0xd800) << 10) +
                               (low - 0xdc00);
                        pos_ += 6;
                    } else if (code >= 0xd800 && code <= 0xdfff) {
                        code = 0xfffd;
                    }
                    appendUtf8(out, code);
                    break;
                  }
                  default:
                    return fail("unknown escape");
                }
                continue;
            }
            // Raw control bytes are invalid JSON; rejecting them keeps
            // spliced binary garbage from masquerading as a valid
            // frame (the fault-mode loadgen sends exactly that).
            if (c < 0x20)
                return fail("raw control byte in string");
            out += static_cast<char>(c);
            ++pos_;
        }
        return fail("unterminated string");
    }

    bool
    parseNumber(double &out)
    {
        size_t start = pos_;
        if (pos_ < text_.size() && text_[pos_] == '-')
            ++pos_;
        while (pos_ < text_.size() &&
               (std::isdigit(static_cast<unsigned char>(text_[pos_])) ||
                text_[pos_] == '.' || text_[pos_] == 'e' ||
                text_[pos_] == 'E' || text_[pos_] == '+' ||
                text_[pos_] == '-'))
            ++pos_;
        std::string tok = text_.substr(start, pos_ - start);
        char *end = nullptr;
        out = std::strtod(tok.c_str(), &end);
        if (end != tok.c_str() + tok.size() || tok.empty())
            return fail("malformed number");
        if (!std::isfinite(out))
            return fail("number out of range");
        return true;
    }

    const std::string &text_;
    size_t pos_ = 0;
    int maxDepth_;
    std::string error_;
    size_t errorAt_ = 0;
};

} // namespace

JsonParseResult
parseJson(const std::string &text, int max_depth)
{
    return Parser(text, max_depth).run();
}

// ---------------------------------------------------------------------
// Writer.
// ---------------------------------------------------------------------

void
JsonWriter::separate()
{
    if (pendingKey_) {
        pendingKey_ = false;
        return;
    }
    if (!hasItem_.empty()) {
        if (hasItem_.back())
            out_ += ", ";
        hasItem_.back() = true;
    }
}

JsonWriter &
JsonWriter::beginObject()
{
    separate();
    out_ += '{';
    hasItem_.push_back(false);
    return *this;
}

JsonWriter &
JsonWriter::endObject()
{
    if (hasItem_.empty())
        panic("JsonWriter: endObject without beginObject");
    hasItem_.pop_back();
    out_ += '}';
    return *this;
}

JsonWriter &
JsonWriter::beginArray()
{
    separate();
    out_ += '[';
    hasItem_.push_back(false);
    return *this;
}

JsonWriter &
JsonWriter::endArray()
{
    if (hasItem_.empty())
        panic("JsonWriter: endArray without beginArray");
    hasItem_.pop_back();
    out_ += ']';
    return *this;
}

JsonWriter &
JsonWriter::key(const std::string &k)
{
    separate();
    out_ += '"';
    appendEscaped(out_, k);
    out_ += "\": ";
    pendingKey_ = true;
    return *this;
}

JsonWriter &
JsonWriter::value(const std::string &v)
{
    separate();
    out_ += '"';
    appendEscaped(out_, v);
    out_ += '"';
    return *this;
}

JsonWriter &
JsonWriter::value(const char *v)
{
    return value(std::string(v));
}

JsonWriter &
JsonWriter::value(double v)
{
    separate();
    if (!std::isfinite(v)) {
        out_ += "null";
        return *this;
    }
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    out_ += buf;
    return *this;
}

JsonWriter &
JsonWriter::value(long v)
{
    separate();
    out_ += std::to_string(v);
    return *this;
}

JsonWriter &
JsonWriter::value(uint64_t v)
{
    separate();
    out_ += std::to_string(v);
    return *this;
}

JsonWriter &
JsonWriter::value(bool v)
{
    separate();
    out_ += v ? "true" : "false";
    return *this;
}

JsonWriter &
JsonWriter::null()
{
    separate();
    out_ += "null";
    return *this;
}

JsonWriter &
JsonWriter::value(const JsonValue &v)
{
    switch (v.kind) {
      case JsonValue::Kind::Null:
        return null();
      case JsonValue::Kind::Bool:
        return value(v.boolean);
      case JsonValue::Kind::Number:
        return value(v.number);
      case JsonValue::Kind::String:
        return value(v.string);
      case JsonValue::Kind::Array:
        beginArray();
        for (const JsonValue &x : v.array)
            value(x);
        return endArray();
      case JsonValue::Kind::Object:
        beginObject();
        for (const auto &[k, x] : v.members)
            key(k).value(x);
        return endObject();
    }
    panic("JsonWriter: unknown JsonValue kind");
}

} // namespace triq
