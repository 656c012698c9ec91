// A minimal JSON value, writer, and recursive-descent parser — just
// enough to persist problem specifications and allocations without an
// external dependency.  Supports the JSON subset the library emits:
// objects, arrays, strings, finite numbers, booleans, null; UTF-8 is
// passed through verbatim; \uXXXX escapes are accepted for ASCII.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <variant>
#include <vector>

namespace lrgp::io {

class JsonValue;
using JsonArray = std::vector<JsonValue>;
using JsonObject = std::map<std::string, JsonValue>;

/// A dynamically-typed JSON value.
class JsonValue {
public:
    using Storage =
        std::variant<std::nullptr_t, bool, double, std::string, JsonArray, JsonObject>;

    JsonValue() : storage_(nullptr) {}
    JsonValue(std::nullptr_t) : storage_(nullptr) {}
    JsonValue(bool b) : storage_(b) {}
    JsonValue(double d) : storage_(d) {}
    JsonValue(int i) : storage_(static_cast<double>(i)) {}
    JsonValue(const char* s) : storage_(std::string(s)) {}
    JsonValue(std::string s) : storage_(std::move(s)) {}
    JsonValue(JsonArray a) : storage_(std::move(a)) {}
    JsonValue(JsonObject o) : storage_(std::move(o)) {}

    [[nodiscard]] bool isNull() const { return std::holds_alternative<std::nullptr_t>(storage_); }
    [[nodiscard]] bool isBool() const { return std::holds_alternative<bool>(storage_); }
    [[nodiscard]] bool isNumber() const { return std::holds_alternative<double>(storage_); }
    [[nodiscard]] bool isString() const { return std::holds_alternative<std::string>(storage_); }
    [[nodiscard]] bool isArray() const { return std::holds_alternative<JsonArray>(storage_); }
    [[nodiscard]] bool isObject() const { return std::holds_alternative<JsonObject>(storage_); }

    /// Typed accessors; throw std::runtime_error on type mismatch.
    [[nodiscard]] bool asBool() const;
    [[nodiscard]] double asNumber() const;
    /// A number that is integral and within int range; throws
    /// std::runtime_error otherwise (never rounds or wraps).
    [[nodiscard]] int asInt() const;
    [[nodiscard]] const std::string& asString() const;
    [[nodiscard]] const JsonArray& asArray() const;
    [[nodiscard]] const JsonObject& asObject() const;

    /// Object member access; throws std::runtime_error if absent or not
    /// an object.
    [[nodiscard]] const JsonValue& at(const std::string& key) const;
    /// True if this is an object containing `key`.
    [[nodiscard]] bool has(const std::string& key) const;

    /// Serializes compactly (no whitespace) or pretty (2-space indent).
    [[nodiscard]] std::string dump(bool pretty = false) const;

private:
    void dumpTo(std::string& out, bool pretty, int depth) const;

    Storage storage_;
};

/// Parses a complete JSON document.  Throws std::runtime_error with a
/// byte offset on malformed input, trailing garbage, or arrays/objects
/// nested deeper than 256 levels.
[[nodiscard]] JsonValue parse_json(const std::string& text);

}  // namespace lrgp::io
