/**
 * @file
 * JSON, the one module that knows the format: every JSON document the
 * repository writes (triqd replies, the triq-sweep matrix and journal,
 * `triqc --diag-json`, triq-loadgen and micro-bench reports) is built
 * with JsonWriter, and every one it reads goes through parseJson.
 *
 * The parser faces adversarial input (anything can connect to triqd's
 * socket): it never throws, never reads past the buffer, bounds its
 * recursion depth, and reports the first problem as a position +
 * message. Numbers are doubles (the protocol has no integer wider than
 * 2^53).
 *
 * Text is UTF-8 both ways. The writer passes well-formed UTF-8 through,
 * escapes control bytes, and escapes each byte outside a well-formed
 * sequence (overlong, surrogate, above U+10FFFF, truncated) as \u00XX,
 * so garbage input still yields valid JSON. The parser decodes \uXXXX
 * to UTF-8, a surrogate pair to one 4-byte sequence and a lone
 * surrogate to U+FFFD. Well-formed text survives a round trip.
 *
 * Output: ", " between items, ": " after keys, no line breaks,
 * numbers at %.17g (round-trips a double), non-finite numbers as null.
 */

#ifndef TRIQ_COMMON_JSON_HH
#define TRIQ_COMMON_JSON_HH

#include <cstdint>
#include <string>
#include <vector>

namespace triq
{

/** One parsed JSON value (object members keep insertion order). */
class JsonValue
{
  public:
    enum class Kind
    {
        Null,
        Bool,
        Number,
        String,
        Array,
        Object,
    };

    Kind kind = Kind::Null;
    bool boolean = false;
    double number = 0.0;
    std::string string;
    std::vector<JsonValue> array;
    std::vector<std::pair<std::string, JsonValue>> members;

    bool isNull() const { return kind == Kind::Null; }
    bool isBool() const { return kind == Kind::Bool; }
    bool isNumber() const { return kind == Kind::Number; }
    bool isString() const { return kind == Kind::String; }
    bool isArray() const { return kind == Kind::Array; }
    bool isObject() const { return kind == Kind::Object; }

    /** Member lookup (objects only); nullptr when absent. */
    const JsonValue *find(const std::string &key) const;

    /** Member as string with a fallback (absent or wrong type). */
    std::string getString(const std::string &key,
                          const std::string &fallback = "") const;

    /** Member as number with a fallback (absent or wrong type). */
    double getNumber(const std::string &key, double fallback = 0.0) const;

    /** Member as bool with a fallback (absent or wrong type). */
    bool getBool(const std::string &key, bool fallback = false) const;
};

/** Outcome of parseJson: a value or a position + message. */
struct JsonParseResult
{
    bool ok = false;
    JsonValue value;
    std::string error;  //!< First problem found ("" when ok).
    size_t errorAt = 0; //!< Byte offset of the problem.
};

/**
 * Parse one JSON value from `text` (leading/trailing whitespace
 * allowed; trailing garbage is an error). Never throws; recursion is
 * capped at `max_depth` so a deeply nested frame cannot blow the
 * stack.
 */
JsonParseResult parseJson(const std::string &text, int max_depth = 48);

/**
 * Streaming JSON builder; it places every separator and escapes every
 * string, so its output is well-formed by construction. Usage:
 *   JsonWriter w;
 *   w.beginObject().key("id").value("r1").key("ok").value(true);
 *   w.endObject();
 *   send(w.str());
 */
class JsonWriter
{
  public:
    JsonWriter &beginObject();
    JsonWriter &endObject();
    JsonWriter &beginArray();
    JsonWriter &endArray();
    JsonWriter &key(const std::string &k);
    JsonWriter &value(const std::string &v);
    JsonWriter &value(const char *v);
    JsonWriter &value(double v);
    JsonWriter &value(long v);
    JsonWriter &value(uint64_t v);
    JsonWriter &value(int v) { return value(static_cast<long>(v)); }
    JsonWriter &value(bool v);
    /** Re-emit a parsed value (numbers at %.17g, like value(double)). */
    JsonWriter &value(const JsonValue &v);
    JsonWriter &null();

    const std::string &str() const { return out_; }

  private:
    void separate();

    std::string out_;
    /** true = a value was already written at this nesting level. */
    std::vector<bool> hasItem_{};
    bool pendingKey_ = false;
};

} // namespace triq

#endif // TRIQ_COMMON_JSON_HH
