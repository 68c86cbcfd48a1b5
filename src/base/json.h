/**
 * @file
 * A minimal JSON parser for validating the substrate's own output
 * (trace files, stats exports) in tests and tooling, plus the one
 * string escaper every JSON writer uses. Not a general serialization
 * layer: numbers are doubles, objects preserve insertion order in a
 * vector of pairs.
 */

#ifndef BEETHOVEN_BASE_JSON_H
#define BEETHOVEN_BASE_JSON_H

#include <iosfwd>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace beethoven
{

struct JsonValue
{
    enum class Type { Null, Bool, Number, String, Array, Object };

    Type type = Type::Null;
    bool boolean = false;
    double number = 0.0;
    std::string string;
    std::vector<JsonValue> array;
    std::vector<std::pair<std::string, JsonValue>> object;

    bool isNull() const { return type == Type::Null; }
    bool isBool() const { return type == Type::Bool; }
    bool isNumber() const { return type == Type::Number; }
    bool isString() const { return type == Type::String; }
    bool isArray() const { return type == Type::Array; }
    bool isObject() const { return type == Type::Object; }

    /** Object member lookup; nullptr if absent or not an object. */
    const JsonValue *find(const std::string &key) const;
};

/**
 * Parse @p text as a single JSON value (trailing whitespace allowed).
 * @throws ConfigError on malformed input.
 */
JsonValue parseJson(const std::string &text);

/** A string to stream as a quoted JSON literal; see jsonString(). */
struct JsonString
{
    std::string_view text;
};

/**
 * Stream @p s as a JSON string literal, quotes included:
 * `os << "{\"name\":" << jsonString(name)`. Quotes and backslashes
 * are backslash-escaped, newline, tab and carriage return use their
 * short forms, and other bytes below 0x20 become \u00XX. Writes
 * straight into the stream, with no temporary string; the referenced
 * text must outlive the insertion.
 */
inline JsonString
jsonString(std::string_view s)
{
    return JsonString{s};
}

std::ostream &operator<<(std::ostream &os, JsonString s);

} // namespace beethoven

#endif // BEETHOVEN_BASE_JSON_H
