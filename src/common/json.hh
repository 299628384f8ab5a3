/**
 * @file
 * A minimal JSON document model and recursive-descent parser, plus a
 * string escaper for writers. This exists so the exporters
 * (sim/run_stats_json, sim/event_trace, bench reports) can be
 * round-trip tested without pulling a third-party JSON dependency
 * into the image.
 *
 * The parser accepts strict RFC 8259 JSON (no comments, no trailing
 * commas). Numbers are held as double, which is exact for the 53-bit
 * integer range — far beyond any counter a run of this simulator
 * produces.
 */

#ifndef VCOMA_COMMON_JSON_HH
#define VCOMA_COMMON_JSON_HH

#include <cstdint>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace vcoma
{

/** Thrown on malformed JSON text or a wrong-kind accessor. */
class JsonError : public std::runtime_error
{
  public:
    using std::runtime_error::runtime_error;
};

/** One parsed JSON value (null / bool / number / string / array / object). */
class JsonValue
{
  public:
    enum class Kind { Null, Bool, Number, String, Array, Object };

    JsonValue() = default;

    /** Parse a complete JSON document; throws JsonError on bad input. */
    static JsonValue parse(std::string_view text);

    Kind kind() const { return kind_; }
    bool isNull() const { return kind_ == Kind::Null; }
    bool isArray() const { return kind_ == Kind::Array; }
    bool isObject() const { return kind_ == Kind::Object; }

    bool asBool() const;
    double asNumber() const;
    /** Number as a uint64; throws if negative, fractional or >= 2^64. */
    std::uint64_t asUint() const;
    const std::string &asString() const;

    /** Array element count or object member count. */
    std::size_t size() const;

    /** Array element access; throws on out-of-range or non-array. */
    const JsonValue &at(std::size_t i) const;

    /** Object member lookup; nullptr when absent. */
    const JsonValue *find(const std::string &key) const;
    /** Object member access; throws JsonError when absent. */
    const JsonValue &at(const std::string &key) const;

    const std::vector<JsonValue> &asArray() const;
    const std::vector<std::pair<std::string, JsonValue>> &asObject() const;

  private:
    friend class JsonParser;

    Kind kind_ = Kind::Null;
    bool bool_ = false;
    double number_ = 0.0;
    std::string string_;
    std::vector<JsonValue> array_;
    std::vector<std::pair<std::string, JsonValue>> object_;
};

/**
 * Escape @p s for inclusion inside a JSON string literal (adds no
 * surrounding quotes). Control characters become \\u00XX.
 */
std::string jsonEscape(std::string_view s);

} // namespace vcoma

#endif // VCOMA_COMMON_JSON_HH
