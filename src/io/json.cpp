#include "io/json.hpp"

#include <cctype>
#include <cmath>
#include <cstdio>
#include <limits>
#include <sstream>
#include <stdexcept>

namespace lrgp::io {

namespace {

[[noreturn]] void typeError(const char* expected) {
    throw std::runtime_error(std::string("JsonValue: not a ") + expected);
}

void escapeTo(std::string& out, const std::string& s) {
    out += '"';
    for (char ch : s) {
        switch (ch) {
            case '"': out += "\\\""; break;
            case '\\': out += "\\\\"; break;
            case '\n': out += "\\n"; break;
            case '\r': out += "\\r"; break;
            case '\t': out += "\\t"; break;
            default:
                if (static_cast<unsigned char>(ch) < 0x20) {
                    char buf[8];
                    std::snprintf(buf, sizeof buf, "\\u%04x", ch);
                    out += buf;
                } else {
                    out += ch;
                }
        }
    }
    out += '"';
}

void numberTo(std::string& out, double d) {
    if (!std::isfinite(d)) throw std::runtime_error("JsonValue: non-finite number");
    // Round-trippable double formatting.
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.17g", d);
    // Prefer a shorter representation when it round-trips.
    char shorter[32];
    std::snprintf(shorter, sizeof shorter, "%.15g", d);
    double reparsed = 0.0;
    std::sscanf(shorter, "%lf", &reparsed);
    out += (reparsed == d) ? shorter : buf;
}

}  // namespace

bool JsonValue::asBool() const {
    if (const bool* b = std::get_if<bool>(&storage_)) return *b;
    typeError("bool");
}

double JsonValue::asNumber() const {
    if (const double* d = std::get_if<double>(&storage_)) return *d;
    typeError("number");
}

int JsonValue::asInt() const {
    const double d = asNumber();
    if (d >= std::numeric_limits<int>::min() && d <= std::numeric_limits<int>::max() &&
        d == std::trunc(d))
        return static_cast<int>(d);
    std::string text;
    numberTo(text, d);
    throw std::runtime_error("JsonValue: not an int: " + text);
}

const std::string& JsonValue::asString() const {
    if (const std::string* s = std::get_if<std::string>(&storage_)) return *s;
    typeError("string");
}

const JsonArray& JsonValue::asArray() const {
    if (const JsonArray* a = std::get_if<JsonArray>(&storage_)) return *a;
    typeError("array");
}

const JsonObject& JsonValue::asObject() const {
    if (const JsonObject* o = std::get_if<JsonObject>(&storage_)) return *o;
    typeError("object");
}

const JsonValue& JsonValue::at(const std::string& key) const {
    const JsonObject& obj = asObject();
    auto it = obj.find(key);
    if (it == obj.end()) throw std::runtime_error("JsonValue: missing key '" + key + "'");
    return it->second;
}

bool JsonValue::has(const std::string& key) const {
    if (!isObject()) return false;
    const JsonObject& obj = std::get<JsonObject>(storage_);
    return obj.find(key) != obj.end();
}

void JsonValue::dumpTo(std::string& out, bool pretty, int depth) const {
    const std::string indent = pretty ? std::string(2 * (depth + 1), ' ') : "";
    const std::string closing_indent = pretty ? std::string(2 * depth, ' ') : "";
    const char* newline = pretty ? "\n" : "";

    std::visit(
        [&](const auto& v) {
            using T = std::decay_t<decltype(v)>;
            if constexpr (std::is_same_v<T, std::nullptr_t>) {
                out += "null";
            } else if constexpr (std::is_same_v<T, bool>) {
                out += v ? "true" : "false";
            } else if constexpr (std::is_same_v<T, double>) {
                numberTo(out, v);
            } else if constexpr (std::is_same_v<T, std::string>) {
                escapeTo(out, v);
            } else if constexpr (std::is_same_v<T, JsonArray>) {
                if (v.empty()) {
                    out += "[]";
                    return;
                }
                out += '[';
                out += newline;
                for (std::size_t i = 0; i < v.size(); ++i) {
                    out += indent;
                    v[i].dumpTo(out, pretty, depth + 1);
                    if (i + 1 < v.size()) out += ',';
                    out += newline;
                }
                out += closing_indent;
                out += ']';
            } else if constexpr (std::is_same_v<T, JsonObject>) {
                if (v.empty()) {
                    out += "{}";
                    return;
                }
                out += '{';
                out += newline;
                std::size_t i = 0;
                for (const auto& [key, value] : v) {
                    out += indent;
                    escapeTo(out, key);
                    out += pretty ? ": " : ":";
                    value.dumpTo(out, pretty, depth + 1);
                    if (++i < v.size()) out += ',';
                    out += newline;
                }
                out += closing_indent;
                out += '}';
            }
        },
        storage_);
}

std::string JsonValue::dump(bool pretty) const {
    std::string out;
    dumpTo(out, pretty, 0);
    return out;
}

// ------------------------------------------------------------------ parser

namespace {

class Parser {
public:
    explicit Parser(const std::string& text) : text_(text) {}

    JsonValue parseDocument() {
        JsonValue value = parseValue();
        skipWhitespace();
        if (pos_ != text_.size()) fail("trailing characters");
        return value;
    }

private:
    [[noreturn]] void fail(const std::string& what) const {
        std::ostringstream os;
        os << "JSON parse error at byte " << pos_ << ": " << what;
        throw std::runtime_error(os.str());
    }

    void skipWhitespace() {
        while (pos_ < text_.size() && (text_[pos_] == ' ' || text_[pos_] == '\t' ||
                                       text_[pos_] == '\n' || text_[pos_] == '\r'))
            ++pos_;
    }

    char peek() {
        if (pos_ >= text_.size()) fail("unexpected end of input");
        return text_[pos_];
    }

    void expect(char ch) {
        if (peek() != ch) fail(std::string("expected '") + ch + "'");
        ++pos_;
    }

    bool consumeLiteral(const char* literal) {
        const std::size_t len = std::char_traits<char>::length(literal);
        if (text_.compare(pos_, len, literal) == 0) {
            pos_ += len;
            return true;
        }
        return false;
    }

    JsonValue parseValue() {
        skipWhitespace();
        switch (peek()) {
            case '{': return parseNested(&Parser::parseObject);
            case '[': return parseNested(&Parser::parseArray);
            case '"': return JsonValue(parseString());
            case 't':
                if (consumeLiteral("true")) return JsonValue(true);
                fail("bad literal");
            case 'f':
                if (consumeLiteral("false")) return JsonValue(false);
                fail("bad literal");
            case 'n':
                if (consumeLiteral("null")) return JsonValue(nullptr);
                fail("bad literal");
            default: return parseNumber();
        }
    }

    /// Containers recurse, so their depth is capped: a hostile document
    /// of millions of '[' must fail like any other malformed input, not
    /// overflow the stack.
    JsonValue parseNested(JsonValue (Parser::*parse)()) {
        if (depth_ == kMaxDepth)
            fail("nesting deeper than " + std::to_string(kMaxDepth) + " levels");
        ++depth_;
        JsonValue value = (this->*parse)();
        --depth_;
        return value;
    }

    JsonValue parseObject() {
        expect('{');
        JsonObject obj;
        skipWhitespace();
        if (peek() == '}') {
            ++pos_;
            return JsonValue(std::move(obj));
        }
        while (true) {
            skipWhitespace();
            std::string key = parseString();
            skipWhitespace();
            expect(':');
            obj.emplace(std::move(key), parseValue());
            skipWhitespace();
            if (peek() == ',') {
                ++pos_;
                continue;
            }
            expect('}');
            return JsonValue(std::move(obj));
        }
    }

    JsonValue parseArray() {
        expect('[');
        JsonArray arr;
        skipWhitespace();
        if (peek() == ']') {
            ++pos_;
            return JsonValue(std::move(arr));
        }
        while (true) {
            arr.push_back(parseValue());
            skipWhitespace();
            if (peek() == ',') {
                ++pos_;
                continue;
            }
            expect(']');
            return JsonValue(std::move(arr));
        }
    }

    std::string parseString() {
        expect('"');
        std::string out;
        while (true) {
            if (pos_ >= text_.size()) fail("unterminated string");
            char ch = text_[pos_++];
            if (ch == '"') return out;
            if (ch != '\\') {
                out += ch;
                continue;
            }
            if (pos_ >= text_.size()) fail("bad escape");
            char esc = text_[pos_++];
            switch (esc) {
                case '"': out += '"'; break;
                case '\\': out += '\\'; break;
                case '/': out += '/'; break;
                case 'b': out += '\b'; break;
                case 'f': out += '\f'; break;
                case 'n': out += '\n'; break;
                case 'r': out += '\r'; break;
                case 't': out += '\t'; break;
                case 'u': {
                    if (pos_ + 4 > text_.size()) fail("bad \\u escape");
                    unsigned code = 0;
                    for (int k = 0; k < 4; ++k) {
                        const char hex = text_[pos_++];
                        code <<= 4;
                        if (hex >= '0' && hex <= '9') code |= static_cast<unsigned>(hex - '0');
                        else if (hex >= 'a' && hex <= 'f')
                            code |= static_cast<unsigned>(hex - 'a' + 10);
                        else if (hex >= 'A' && hex <= 'F')
                            code |= static_cast<unsigned>(hex - 'A' + 10);
                        else fail("bad hex digit in \\u escape");
                    }
                    if (code > 0x7F) fail("non-ASCII \\u escapes are not supported");
                    out += static_cast<char>(code);
                    break;
                }
                default: fail("unknown escape");
            }
        }
    }

    JsonValue parseNumber() {
        const std::size_t start = pos_;
        if (peek() == '-') ++pos_;
        while (pos_ < text_.size() &&
               (std::isdigit(static_cast<unsigned char>(text_[pos_])) || text_[pos_] == '.' ||
                text_[pos_] == 'e' || text_[pos_] == 'E' || text_[pos_] == '+' ||
                text_[pos_] == '-'))
            ++pos_;
        if (pos_ == start || (pos_ == start + 1 && text_[start] == '-')) fail("bad number");
        const std::string token = text_.substr(start, pos_ - start);
        try {
            std::size_t consumed = 0;
            const double value = std::stod(token, &consumed);
            if (consumed != token.size()) fail("bad number");
            return JsonValue(value);
        } catch (const std::exception&) {
            fail("bad number");
        }
    }

    static constexpr int kMaxDepth = 256;

    const std::string& text_;
    std::size_t pos_ = 0;
    int depth_ = 0;
};

}  // namespace

JsonValue parse_json(const std::string& text) { return Parser(text).parseDocument(); }

}  // namespace lrgp::io
