#include "base/json.h"

#include <cctype>
#include <cstdio>
#include <cstdlib>
#include <ostream>

#include "base/log.h"

namespace beethoven
{

const JsonValue *
JsonValue::find(const std::string &key) const
{
    if (type != Type::Object)
        return nullptr;
    for (const auto &[k, v] : object) {
        if (k == key)
            return &v;
    }
    return nullptr;
}

std::ostream &
operator<<(std::ostream &os, JsonString s)
{
    const std::string_view t = s.text;
    os.put('"');
    // Copy runs of plain bytes in one write; stop only at bytes that
    // need an escape.
    std::size_t run = 0;
    for (std::size_t i = 0; i < t.size(); ++i) {
        const auto c = static_cast<unsigned char>(t[i]);
        if (c >= 0x20 && c != '"' && c != '\\')
            continue;
        os.write(t.data() + run, static_cast<std::streamsize>(i - run));
        run = i + 1;
        switch (c) {
          case '"': os << "\\\""; break;
          case '\\': os << "\\\\"; break;
          case '\n': os << "\\n"; break;
          case '\t': os << "\\t"; break;
          case '\r': os << "\\r"; break;
          default: {
            char buf[8];
            std::snprintf(buf, sizeof buf, "\\u%04x", c);
            os << buf;
          }
        }
    }
    os.write(t.data() + run, static_cast<std::streamsize>(t.size() - run));
    os.put('"');
    return os;
}

namespace
{

class Parser
{
  public:
    explicit Parser(const std::string &text) : _text(text) {}

    JsonValue parse()
    {
        JsonValue v = parseValue();
        skipWs();
        if (_pos != _text.size())
            fail("trailing characters after JSON value");
        return v;
    }

  private:
    [[noreturn]] void fail(const std::string &what) const
    {
        throw ConfigError("json: " + what + " at offset " +
                          std::to_string(_pos));
    }

    void skipWs()
    {
        while (_pos < _text.size() &&
               std::isspace(static_cast<unsigned char>(_text[_pos])))
            ++_pos;
    }

    char peek()
    {
        if (_pos >= _text.size())
            fail("unexpected end of input");
        return _text[_pos];
    }

    void expect(char c)
    {
        if (peek() != c)
            fail(std::string("expected '") + c + "'");
        ++_pos;
    }

    bool consumeLiteral(const char *lit)
    {
        std::size_t n = 0;
        while (lit[n] != '\0')
            ++n;
        if (_text.compare(_pos, n, lit) != 0)
            return false;
        _pos += n;
        return true;
    }

    JsonValue parseValue()
    {
        skipWs();
        switch (peek()) {
          case '{': return parseObject();
          case '[': return parseArray();
          case '"': {
            JsonValue v;
            v.type = JsonValue::Type::String;
            v.string = parseString();
            return v;
          }
          case 't':
          case 'f': {
            JsonValue v;
            v.type = JsonValue::Type::Bool;
            if (consumeLiteral("true"))
                v.boolean = true;
            else if (consumeLiteral("false"))
                v.boolean = false;
            else
                fail("bad literal");
            return v;
          }
          case 'n': {
            if (!consumeLiteral("null"))
                fail("bad literal");
            return JsonValue{};
          }
          default:
            return parseNumber();
        }
    }

    JsonValue parseObject()
    {
        expect('{');
        JsonValue v;
        v.type = JsonValue::Type::Object;
        skipWs();
        if (peek() == '}') {
            ++_pos;
            return v;
        }
        for (;;) {
            skipWs();
            std::string key = parseString();
            skipWs();
            expect(':');
            v.object.emplace_back(std::move(key), parseValue());
            skipWs();
            if (peek() == ',') {
                ++_pos;
                continue;
            }
            expect('}');
            return v;
        }
    }

    JsonValue parseArray()
    {
        expect('[');
        JsonValue v;
        v.type = JsonValue::Type::Array;
        skipWs();
        if (peek() == ']') {
            ++_pos;
            return v;
        }
        for (;;) {
            v.array.push_back(parseValue());
            skipWs();
            if (peek() == ',') {
                ++_pos;
                continue;
            }
            expect(']');
            return v;
        }
    }

    std::string parseString()
    {
        expect('"');
        std::string out;
        for (;;) {
            if (_pos >= _text.size())
                fail("unterminated string");
            char c = _text[_pos++];
            if (c == '"')
                return out;
            if (c != '\\') {
                out += c;
                continue;
            }
            if (_pos >= _text.size())
                fail("unterminated escape");
            char e = _text[_pos++];
            switch (e) {
              case '"': out += '"'; break;
              case '\\': out += '\\'; break;
              case '/': out += '/'; break;
              case 'b': out += '\b'; break;
              case 'f': out += '\f'; break;
              case 'n': out += '\n'; break;
              case 'r': out += '\r'; break;
              case 't': out += '\t'; break;
              case 'u': {
                if (_pos + 4 > _text.size())
                    fail("truncated \\u escape");
                unsigned code = 0;
                for (int i = 0; i < 4; ++i) {
                    char h = _text[_pos++];
                    code <<= 4;
                    if (h >= '0' && h <= '9')
                        code |= static_cast<unsigned>(h - '0');
                    else if (h >= 'a' && h <= 'f')
                        code |= static_cast<unsigned>(h - 'a' + 10);
                    else if (h >= 'A' && h <= 'F')
                        code |= static_cast<unsigned>(h - 'A' + 10);
                    else
                        fail("bad \\u escape digit");
                }
                // Validation-only use: keep BMP code points as UTF-8,
                // no surrogate-pair handling.
                if (code < 0x80) {
                    out += static_cast<char>(code);
                } else if (code < 0x800) {
                    out += static_cast<char>(0xC0 | (code >> 6));
                    out += static_cast<char>(0x80 | (code & 0x3F));
                } else {
                    out += static_cast<char>(0xE0 | (code >> 12));
                    out += static_cast<char>(0x80 | ((code >> 6) & 0x3F));
                    out += static_cast<char>(0x80 | (code & 0x3F));
                }
                break;
              }
              default:
                fail("bad escape character");
            }
        }
    }

    JsonValue parseNumber()
    {
        const std::size_t start = _pos;
        if (peek() == '-')
            ++_pos;
        while (_pos < _text.size() &&
               (std::isdigit(static_cast<unsigned char>(_text[_pos])) ||
                _text[_pos] == '.' || _text[_pos] == 'e' ||
                _text[_pos] == 'E' || _text[_pos] == '+' ||
                _text[_pos] == '-'))
            ++_pos;
        if (_pos == start)
            fail("expected a value");
        const std::string tok = _text.substr(start, _pos - start);
        char *end = nullptr;
        const double d = std::strtod(tok.c_str(), &end);
        if (end == nullptr || *end != '\0')
            fail("malformed number '" + tok + "'");
        JsonValue v;
        v.type = JsonValue::Type::Number;
        v.number = d;
        return v;
    }

    const std::string &_text;
    std::size_t _pos = 0;
};

} // namespace

JsonValue
parseJson(const std::string &text)
{
    return Parser(text).parse();
}

} // namespace beethoven
