#include "common/json.hh"

#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>

namespace vcoma
{

namespace
{

std::string
describePosition(std::string_view text, std::size_t pos)
{
    std::size_t line = 1, col = 1;
    for (std::size_t i = 0; i < pos && i < text.size(); ++i) {
        if (text[i] == '\n') {
            ++line;
            col = 1;
        } else {
            ++col;
        }
    }
    return "line " + std::to_string(line) + ", column " + std::to_string(col);
}

} // namespace

/** Recursive-descent parser over a string_view. */
class JsonParser
{
  public:
    explicit JsonParser(std::string_view text) : text_(text) {}

    JsonValue
    document()
    {
        JsonValue v = value();
        skipWs();
        if (pos_ != text_.size())
            fail("trailing content after document");
        return v;
    }

  private:
    [[noreturn]] void
    fail(const std::string &what) const
    {
        throw JsonError("JSON parse error at " +
                        describePosition(text_, pos_) + ": " + what);
    }

    void
    skipWs()
    {
        while (pos_ < text_.size()) {
            const char c = text_[pos_];
            if (c != ' ' && c != '\t' && c != '\n' && c != '\r')
                break;
            ++pos_;
        }
    }

    char
    peek()
    {
        if (pos_ >= text_.size())
            fail("unexpected end of input");
        return text_[pos_];
    }

    void
    expect(char c)
    {
        if (peek() != c)
            fail(std::string("expected '") + c + "'");
        ++pos_;
    }

    bool
    consumeLiteral(std::string_view lit)
    {
        if (text_.substr(pos_, lit.size()) != lit)
            return false;
        pos_ += lit.size();
        return true;
    }

    JsonValue
    value()
    {
        skipWs();
        switch (peek()) {
          case '{': return object();
          case '[': return array();
          case '"': return string();
          case 't':
            if (!consumeLiteral("true"))
                fail("bad literal");
            return boolean(true);
          case 'f':
            if (!consumeLiteral("false"))
                fail("bad literal");
            return boolean(false);
          case 'n':
            if (!consumeLiteral("null"))
                fail("bad literal");
            return JsonValue{};
          default:
            return number();
        }
    }

    static JsonValue
    boolean(bool b)
    {
        JsonValue v;
        v.kind_ = JsonValue::Kind::Bool;
        v.bool_ = b;
        return v;
    }

    JsonValue
    object()
    {
        expect('{');
        JsonValue v;
        v.kind_ = JsonValue::Kind::Object;
        skipWs();
        if (peek() == '}') {
            ++pos_;
            return v;
        }
        while (true) {
            skipWs();
            if (peek() != '"')
                fail("expected object key");
            JsonValue key = string();
            skipWs();
            expect(':');
            v.object_.emplace_back(key.string_, value());
            skipWs();
            const char c = peek();
            ++pos_;
            if (c == '}')
                return v;
            if (c != ',')
                fail("expected ',' or '}' in object");
        }
    }

    JsonValue
    array()
    {
        expect('[');
        JsonValue v;
        v.kind_ = JsonValue::Kind::Array;
        skipWs();
        if (peek() == ']') {
            ++pos_;
            return v;
        }
        while (true) {
            v.array_.push_back(value());
            skipWs();
            const char c = peek();
            ++pos_;
            if (c == ']')
                return v;
            if (c != ',')
                fail("expected ',' or ']' in array");
        }
    }

    unsigned
    hex4()
    {
        unsigned out = 0;
        for (int i = 0; i < 4; ++i) {
            const char c = peek();
            ++pos_;
            out <<= 4;
            if (c >= '0' && c <= '9')
                out |= static_cast<unsigned>(c - '0');
            else if (c >= 'a' && c <= 'f')
                out |= static_cast<unsigned>(c - 'a' + 10);
            else if (c >= 'A' && c <= 'F')
                out |= static_cast<unsigned>(c - 'A' + 10);
            else
                fail("bad \\u escape");
        }
        return out;
    }

    void
    appendUtf8(std::string &s, unsigned cp)
    {
        if (cp < 0x80) {
            s += static_cast<char>(cp);
        } else if (cp < 0x800) {
            s += static_cast<char>(0xC0 | (cp >> 6));
            s += static_cast<char>(0x80 | (cp & 0x3F));
        } else if (cp < 0x10000) {
            s += static_cast<char>(0xE0 | (cp >> 12));
            s += static_cast<char>(0x80 | ((cp >> 6) & 0x3F));
            s += static_cast<char>(0x80 | (cp & 0x3F));
        } else {
            s += static_cast<char>(0xF0 | (cp >> 18));
            s += static_cast<char>(0x80 | ((cp >> 12) & 0x3F));
            s += static_cast<char>(0x80 | ((cp >> 6) & 0x3F));
            s += static_cast<char>(0x80 | (cp & 0x3F));
        }
    }

    JsonValue
    string()
    {
        expect('"');
        JsonValue v;
        v.kind_ = JsonValue::Kind::String;
        while (true) {
            if (pos_ >= text_.size())
                fail("unterminated string");
            char c = text_[pos_++];
            if (c == '"')
                return v;
            if (c == '\\') {
                c = peek();
                ++pos_;
                switch (c) {
                  case '"': v.string_ += '"'; break;
                  case '\\': v.string_ += '\\'; break;
                  case '/': v.string_ += '/'; break;
                  case 'b': v.string_ += '\b'; break;
                  case 'f': v.string_ += '\f'; break;
                  case 'n': v.string_ += '\n'; break;
                  case 'r': v.string_ += '\r'; break;
                  case 't': v.string_ += '\t'; break;
                  case 'u': {
                    unsigned cp = hex4();
                    if (cp >= 0xD800 && cp <= 0xDBFF) {
                        // Surrogate pair.
                        if (pos_ + 1 < text_.size() && text_[pos_] == '\\' &&
                            text_[pos_ + 1] == 'u') {
                            pos_ += 2;
                            const unsigned lo = hex4();
                            if (lo < 0xDC00 || lo > 0xDFFF)
                                fail("bad low surrogate");
                            cp = 0x10000 + ((cp - 0xD800) << 10) +
                                 (lo - 0xDC00);
                        } else {
                            fail("lone high surrogate");
                        }
                    }
                    appendUtf8(v.string_, cp);
                    break;
                  }
                  default:
                    fail("bad escape");
                }
            } else if (static_cast<unsigned char>(c) < 0x20) {
                fail("raw control character in string");
            } else {
                v.string_ += c;
            }
        }
    }

    JsonValue
    number()
    {
        const std::size_t start = pos_;
        if (peek() == '-')
            ++pos_;
        const auto digits = [&] {
            std::size_t n = 0;
            while (pos_ < text_.size() &&
                   std::isdigit(static_cast<unsigned char>(text_[pos_]))) {
                ++pos_;
                ++n;
            }
            return n;
        };
        const std::size_t intStart = pos_;
        if (digits() == 0)
            fail("expected number");
        // RFC 8259: no leading zeros ("01" is two tokens, not a number).
        if (pos_ - intStart > 1 && text_[intStart] == '0')
            fail("leading zero in number");
        if (pos_ < text_.size() && text_[pos_] == '.') {
            ++pos_;
            if (digits() == 0)
                fail("expected fraction digits");
        }
        if (pos_ < text_.size() && (text_[pos_] == 'e' || text_[pos_] == 'E')) {
            ++pos_;
            if (pos_ < text_.size() &&
                (text_[pos_] == '+' || text_[pos_] == '-'))
                ++pos_;
            if (digits() == 0)
                fail("expected exponent digits");
        }
        JsonValue v;
        v.kind_ = JsonValue::Kind::Number;
        v.number_ = std::strtod(std::string(text_.substr(start, pos_ - start))
                                    .c_str(),
                                nullptr);
        return v;
    }

    std::string_view text_;
    std::size_t pos_ = 0;
};

JsonValue
JsonValue::parse(std::string_view text)
{
    return JsonParser(text).document();
}

bool
JsonValue::asBool() const
{
    if (kind_ != Kind::Bool)
        throw JsonError("value is not a bool");
    return bool_;
}

double
JsonValue::asNumber() const
{
    if (kind_ != Kind::Number)
        throw JsonError("value is not a number");
    return number_;
}

std::uint64_t
JsonValue::asUint() const
{
    const double n = asNumber();
    // 2^64 and up (including "1e999", which parses as infinity) has
    // no uint64 value; casting it would be undefined behaviour.
    if (n < 0.0 || n != std::floor(n) || !(n < 0x1p64))
        throw JsonError("number is not a non-negative integer");
    return static_cast<std::uint64_t>(n);
}

const std::string &
JsonValue::asString() const
{
    if (kind_ != Kind::String)
        throw JsonError("value is not a string");
    return string_;
}

std::size_t
JsonValue::size() const
{
    if (kind_ == Kind::Array)
        return array_.size();
    if (kind_ == Kind::Object)
        return object_.size();
    throw JsonError("value has no size");
}

const JsonValue &
JsonValue::at(std::size_t i) const
{
    if (kind_ != Kind::Array)
        throw JsonError("value is not an array");
    if (i >= array_.size())
        throw JsonError("array index out of range");
    return array_[i];
}

const JsonValue *
JsonValue::find(const std::string &key) const
{
    if (kind_ != Kind::Object)
        throw JsonError("value is not an object");
    for (const auto &[k, v] : object_) {
        if (k == key)
            return &v;
    }
    return nullptr;
}

const JsonValue &
JsonValue::at(const std::string &key) const
{
    const JsonValue *v = find(key);
    if (!v)
        throw JsonError("missing object key: " + key);
    return *v;
}

const std::vector<JsonValue> &
JsonValue::asArray() const
{
    if (kind_ != Kind::Array)
        throw JsonError("value is not an array");
    return array_;
}

const std::vector<std::pair<std::string, JsonValue>> &
JsonValue::asObject() const
{
    if (kind_ != Kind::Object)
        throw JsonError("value is not an object");
    return object_;
}

std::string
jsonEscape(std::string_view s)
{
    std::string out;
    out.reserve(s.size());
    for (const char c : s) {
        switch (c) {
          case '"': out += "\\\""; break;
          case '\\': out += "\\\\"; break;
          case '\b': out += "\\b"; break;
          case '\f': out += "\\f"; break;
          case '\n': out += "\\n"; break;
          case '\r': out += "\\r"; break;
          case '\t': out += "\\t"; break;
          default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof buf, "\\u%04x",
                              static_cast<unsigned>(
                                  static_cast<unsigned char>(c)));
                out += buf;
            } else {
                out += c;
            }
        }
    }
    return out;
}

} // namespace vcoma
