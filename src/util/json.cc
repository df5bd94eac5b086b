#include "util/json.hh"

#include <cctype>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>

namespace misar {
namespace util {

std::string
jsonEscape(const std::string &s)
{
    std::string out;
    out.reserve(s.size());
    for (unsigned char c : s) {
        switch (c) {
          case '"':
            out += "\\\"";
            break;
          case '\\':
            out += "\\\\";
            break;
          case '\b':
            out += "\\b";
            break;
          case '\f':
            out += "\\f";
            break;
          case '\n':
            out += "\\n";
            break;
          case '\r':
            out += "\\r";
            break;
          case '\t':
            out += "\\t";
            break;
          default:
            if (c < 0x20) {
                static const char *hex = "0123456789abcdef";
                out += "\\u00";
                out += hex[(c >> 4) & 0xf];
                out += hex[c & 0xf];
            } else {
                out += static_cast<char>(c);
            }
        }
    }
    return out;
}

const Json &
Json::at(const std::string &key) const
{
    static const Json none;
    if (kind != Obj)
        return none;
    auto it = obj.find(key);
    return it == obj.end() ? none : it->second;
}

bool
Json::has(const std::string &key) const
{
    return kind == Obj && obj.count(key) > 0;
}

namespace {

class Parser
{
  public:
    explicit Parser(const std::string &text) : s(text) {}

    Json
    parse(std::string *err)
    {
        Json v = value();
        skipWs();
        if (!failed && pos != s.size())
            fail("trailing characters after document");
        if (failed) {
            if (err) {
                std::ostringstream os;
                os << "JSON parse error at offset " << errPos << ": "
                   << errMsg;
                *err = os.str();
            }
            return Json{};
        }
        return v;
    }

  private:
    void
    fail(const std::string &msg)
    {
        if (!failed) {
            failed = true;
            errMsg = msg;
            errPos = pos;
        }
    }

    void
    skipWs()
    {
        while (pos < s.size() &&
               (s[pos] == ' ' || s[pos] == '\t' || s[pos] == '\n' ||
                s[pos] == '\r'))
            ++pos;
    }

    bool
    literal(const char *lit)
    {
        std::size_t n = std::char_traits<char>::length(lit);
        if (s.compare(pos, n, lit) != 0) {
            fail(std::string("expected '") + lit + "'");
            return false;
        }
        pos += n;
        return true;
    }

    Json
    value()
    {
        skipWs();
        if (failed || pos >= s.size()) {
            fail("unexpected end of input");
            return Json{};
        }
        switch (s[pos]) {
          case '{':
            return object();
          case '[':
            return array();
          case '"':
            return string();
          case 't': {
            Json v;
            v.kind = Json::Bool;
            v.boolean = true;
            literal("true");
            return failed ? Json{} : v;
          }
          case 'f': {
            Json v;
            v.kind = Json::Bool;
            v.boolean = false;
            literal("false");
            return failed ? Json{} : v;
          }
          case 'n':
            literal("null");
            return Json{};
          default:
            return number();
        }
    }

    Json
    number()
    {
        const char *begin = s.c_str() + pos;
        char *end = nullptr;
        double d = std::strtod(begin, &end);
        if (end == begin) {
            fail("expected a value");
            return Json{};
        }
        pos += static_cast<std::size_t>(end - begin);
        Json v;
        v.kind = Json::Num;
        v.num = d;
        return v;
    }

    Json
    string()
    {
        Json v;
        v.kind = Json::Str;
        ++pos; // opening quote
        while (pos < s.size() && s[pos] != '"') {
            char c = s[pos++];
            if (c != '\\') {
                v.str.push_back(c);
                continue;
            }
            if (pos >= s.size())
                break;
            char e = s[pos++];
            switch (e) {
              case '"': v.str.push_back('"'); break;
              case '\\': v.str.push_back('\\'); break;
              case '/': v.str.push_back('/'); break;
              case 'b': v.str.push_back('\b'); break;
              case 'f': v.str.push_back('\f'); break;
              case 'n': v.str.push_back('\n'); break;
              case 'r': v.str.push_back('\r'); break;
              case 't': v.str.push_back('\t'); break;
              case 'u': {
                if (pos + 4 > s.size()) {
                    fail("truncated \\u escape");
                    return Json{};
                }
                unsigned cp = 0;
                for (int i = 0; i < 4; ++i) {
                    char h = s[pos++];
                    cp <<= 4;
                    if (h >= '0' && h <= '9')
                        cp |= static_cast<unsigned>(h - '0');
                    else if (h >= 'a' && h <= 'f')
                        cp |= static_cast<unsigned>(h - 'a' + 10);
                    else if (h >= 'A' && h <= 'F')
                        cp |= static_cast<unsigned>(h - 'A' + 10);
                    else {
                        fail("bad \\u escape");
                        return Json{};
                    }
                }
                // UTF-8 encode the code point (no surrogate pairing;
                // our own emitter only escapes control characters).
                if (cp < 0x80) {
                    v.str.push_back(static_cast<char>(cp));
                } else if (cp < 0x800) {
                    v.str.push_back(static_cast<char>(0xC0 | (cp >> 6)));
                    v.str.push_back(static_cast<char>(0x80 | (cp & 0x3F)));
                } else {
                    v.str.push_back(static_cast<char>(0xE0 | (cp >> 12)));
                    v.str.push_back(
                        static_cast<char>(0x80 | ((cp >> 6) & 0x3F)));
                    v.str.push_back(static_cast<char>(0x80 | (cp & 0x3F)));
                }
                break;
              }
              default:
                fail("bad escape character");
                return Json{};
            }
        }
        if (pos >= s.size()) {
            fail("unterminated string");
            return Json{};
        }
        ++pos; // closing quote
        return v;
    }

    Json
    array()
    {
        Json v;
        v.kind = Json::Arr;
        ++pos; // '['
        skipWs();
        if (pos < s.size() && s[pos] == ']') {
            ++pos;
            return v;
        }
        while (!failed) {
            v.arr.push_back(value());
            skipWs();
            if (pos >= s.size()) {
                fail("unterminated array");
                return Json{};
            }
            if (s[pos] == ',') {
                ++pos;
                continue;
            }
            if (s[pos] == ']') {
                ++pos;
                return v;
            }
            fail("expected ',' or ']'");
        }
        return Json{};
    }

    Json
    object()
    {
        Json v;
        v.kind = Json::Obj;
        ++pos; // '{'
        skipWs();
        if (pos < s.size() && s[pos] == '}') {
            ++pos;
            return v;
        }
        while (!failed) {
            skipWs();
            if (pos >= s.size() || s[pos] != '"') {
                fail("expected a member name");
                return Json{};
            }
            Json key = string();
            skipWs();
            if (failed || pos >= s.size() || s[pos] != ':') {
                fail("expected ':'");
                return Json{};
            }
            ++pos;
            v.obj[key.str] = value();
            skipWs();
            if (pos >= s.size()) {
                fail("unterminated object");
                return Json{};
            }
            if (s[pos] == ',') {
                ++pos;
                continue;
            }
            if (s[pos] == '}') {
                ++pos;
                return v;
            }
            fail("expected ',' or '}'");
        }
        return Json{};
    }

    const std::string &s;
    std::size_t pos = 0;
    bool failed = false;
    std::string errMsg;
    std::size_t errPos = 0;
};

} // namespace

Json
parseJson(const std::string &text, std::string *err)
{
    Parser p(text);
    return p.parse(err);
}

Json
parseJsonFile(const std::string &path, std::string *err)
{
    std::ifstream f(path);
    if (!f) {
        if (err)
            *err = "cannot open " + path;
        return Json{};
    }
    std::ostringstream os;
    os << f.rdbuf();
    return parseJson(os.str(), err);
}

// ---------------------------------------------------------- JsonWriter

void
JsonWriter::prefix()
{
    if (afterKey) {
        afterKey = false;
        return;
    }
    if (!hasPrior.empty()) {
        if (hasPrior.back())
            os << ',';
        hasPrior.back() = true;
    }
}

JsonWriter &
JsonWriter::beginObject()
{
    prefix();
    os << '{';
    hasPrior.push_back(false);
    return *this;
}

JsonWriter &
JsonWriter::endObject()
{
    hasPrior.pop_back();
    os << '}';
    return *this;
}

JsonWriter &
JsonWriter::beginArray()
{
    prefix();
    os << '[';
    hasPrior.push_back(false);
    return *this;
}

JsonWriter &
JsonWriter::endArray()
{
    hasPrior.pop_back();
    os << ']';
    return *this;
}

JsonWriter &
JsonWriter::key(const std::string &k)
{
    if (!hasPrior.empty()) {
        if (hasPrior.back())
            os << ',';
        hasPrior.back() = true;
    }
    os << '"' << jsonEscape(k) << "\":";
    afterKey = true;
    return *this;
}

JsonWriter &
JsonWriter::value(const std::string &v)
{
    prefix();
    os << '"' << jsonEscape(v) << '"';
    return *this;
}

JsonWriter &
JsonWriter::value(const char *v)
{
    return value(std::string(v ? v : ""));
}

JsonWriter &
JsonWriter::value(bool v)
{
    prefix();
    os << (v ? "true" : "false");
    return *this;
}

JsonWriter &
JsonWriter::value(std::int64_t v)
{
    prefix();
    os << v;
    return *this;
}

JsonWriter &
JsonWriter::value(std::uint64_t v)
{
    prefix();
    os << v;
    return *this;
}

JsonWriter &
JsonWriter::value(double v, int decimals)
{
    prefix();
    if (!(v == v) || v > 1e300 || v < -1e300)
        v = 0.0; // NaN/inf have no JSON spelling
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.*f", decimals, v);
    os << buf;
    return *this;
}

JsonWriter &
JsonWriter::null()
{
    prefix();
    os << "null";
    return *this;
}

JsonWriter &
JsonWriter::rawValue(const std::string &json)
{
    prefix();
    os << json;
    return *this;
}

JsonWriter &
JsonWriter::newline()
{
    os << '\n';
    return *this;
}

} // namespace util
} // namespace misar
