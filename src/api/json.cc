#include "api/json.hh"

#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>

namespace refrint
{

JsonValue
JsonValue::boolean(bool b)
{
    JsonValue v;
    v.kind_ = Kind::Bool;
    v.bool_ = b;
    return v;
}

JsonValue
JsonValue::number(double d)
{
    JsonValue v;
    v.kind_ = Kind::Number;
    v.num_ = d;
    return v;
}

JsonValue
JsonValue::string(std::string s)
{
    JsonValue v;
    v.kind_ = Kind::String;
    v.str_ = std::move(s);
    return v;
}

JsonValue
JsonValue::array()
{
    JsonValue v;
    v.kind_ = Kind::Array;
    return v;
}

JsonValue
JsonValue::object()
{
    JsonValue v;
    v.kind_ = Kind::Object;
    return v;
}

void
JsonValue::push(JsonValue v)
{
    kind_ = Kind::Array;
    arr_.push_back(std::move(v));
}

void
JsonValue::set(const std::string &key, JsonValue v)
{
    kind_ = Kind::Object;
    for (auto &[k, old] : obj_) {
        if (k == key) {
            old = std::move(v);
            return;
        }
    }
    obj_.emplace_back(key, std::move(v));
}

const JsonValue *
JsonValue::get(const std::string &key) const
{
    for (const auto &[k, v] : obj_)
        if (k == key)
            return &v;
    return nullptr;
}

void
appendJsonString(std::string &out, const std::string &s)
{
    out += '"';
    for (const char c : s) {
        switch (c) {
          case '"':
            out += "\\\"";
            break;
          case '\\':
            out += "\\\\";
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
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof(buf), "\\u%04x", c);
                out += buf;
            } else {
                out += c;
            }
        }
    }
    out += '"';
}

std::string
jsonQuote(const std::string &s)
{
    std::string out;
    appendJsonString(out, s);
    return out;
}

void
appendJsonNumber(std::string &out, double v)
{
    // The longest %.17g text is 24 bytes ("-2.2250738585072014e-308"),
    // so to_chars never runs out of room here.
    char buf[32];
    const std::to_chars_result r = std::to_chars(
        buf, buf + sizeof(buf), v, std::chars_format::general, 17);
    out.append(buf, r.ptr);
}

std::string
jsonNumber(double v)
{
    std::string out;
    appendJsonNumber(out, v);
    return out;
}

void
JsonValue::dumpTo(std::string &out, int indent, int depth) const
{
    const std::string pad(static_cast<std::size_t>(indent) *
                              (static_cast<std::size_t>(depth) + 1),
                          ' ');
    const std::string closePad(
        static_cast<std::size_t>(indent) * static_cast<std::size_t>(depth),
        ' ');
    const char *nl = indent > 0 ? "\n" : "";
    const char *colon = indent > 0 ? ": " : ":";

    switch (kind_) {
      case Kind::Null:
        out += "null";
        break;
      case Kind::Bool:
        out += bool_ ? "true" : "false";
        break;
      case Kind::Number:
        appendJsonNumber(out, num_);
        break;
      case Kind::String:
        appendJsonString(out, str_);
        break;
      case Kind::Array:
        if (arr_.empty()) {
            out += "[]";
            break;
        }
        out += '[';
        out += nl;
        for (std::size_t i = 0; i < arr_.size(); ++i) {
            out += pad;
            arr_[i].dumpTo(out, indent, depth + 1);
            if (i + 1 < arr_.size())
                out += ',';
            out += nl;
        }
        out += closePad;
        out += ']';
        break;
      case Kind::Object:
        if (obj_.empty()) {
            out += "{}";
            break;
        }
        out += '{';
        out += nl;
        for (std::size_t i = 0; i < obj_.size(); ++i) {
            out += pad;
            appendJsonString(out, obj_[i].first);
            out += colon;
            obj_[i].second.dumpTo(out, indent, depth + 1);
            if (i + 1 < obj_.size())
                out += ',';
            out += nl;
        }
        out += closePad;
        out += '}';
        break;
    }
}

std::string
JsonValue::dump(int indent) const
{
    std::string out;
    dumpTo(out, indent, 0);
    return out;
}

namespace
{

/** Recursive-descent parser over a raw character range. */
class Parser
{
  public:
    Parser(const std::string &text, std::string &err)
        : text_(text), err_(err)
    {
    }

    bool
    document(JsonValue &out)
    {
        skipWs();
        if (!value(out, 0))
            return false;
        skipWs();
        if (pos_ != text_.size())
            return fail("trailing characters after document");
        return true;
    }

  private:
    static constexpr int kMaxDepth = 64;

    bool
    fail(const std::string &what)
    {
        err_ = what + " at offset " + std::to_string(pos_);
        return false;
    }

    static int
    hexDigit(char c)
    {
        if (c >= '0' && c <= '9')
            return c - '0';
        if (c >= 'a' && c <= 'f')
            return c - 'a' + 10;
        if (c >= 'A' && c <= 'F')
            return c - 'A' + 10;
        return -1;
    }

    void
    skipWs()
    {
        while (pos_ < text_.size() &&
               std::isspace(static_cast<unsigned char>(text_[pos_])))
            ++pos_;
    }

    bool
    literal(const char *word, JsonValue v, JsonValue &out)
    {
        const std::size_t n = std::string(word).size();
        if (text_.compare(pos_, n, word) != 0)
            return fail("unrecognized token");
        pos_ += n;
        out = std::move(v);
        return true;
    }

    bool
    stringBody(std::string &out)
    {
        ++pos_; // opening quote
        while (pos_ < text_.size()) {
            const char c = text_[pos_];
            if (c == '"') {
                ++pos_;
                return true;
            }
            if (c == '\\') {
                if (pos_ + 1 >= text_.size())
                    return fail("dangling escape");
                const char e = text_[++pos_];
                ++pos_;
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
                    // Exactly four hex digits (strtol would also take
                    // a sign, spaces or a 0x prefix).
                    long cp = 0;
                    for (std::size_t k = 0; k < 4; ++k) {
                        const int d = hexDigit(text_[pos_ + k]);
                        if (d < 0)
                            return fail("bad \\u escape");
                        cp = cp * 16 + d;
                    }
                    pos_ += 4;
                    // Plan files are ASCII; encode BMP code points as
                    // UTF-8 without surrogate-pair handling.
                    if (cp < 0x80) {
                        out += static_cast<char>(cp);
                    } else if (cp < 0x800) {
                        out += static_cast<char>(0xC0 | (cp >> 6));
                        out += static_cast<char>(0x80 | (cp & 0x3F));
                    } else {
                        out += static_cast<char>(0xE0 | (cp >> 12));
                        out += static_cast<char>(0x80 |
                                                 ((cp >> 6) & 0x3F));
                        out += static_cast<char>(0x80 | (cp & 0x3F));
                    }
                    break;
                  }
                  default:
                    return fail("unknown escape");
                }
                continue;
            }
            out += c;
            ++pos_;
        }
        return fail("unterminated string");
    }

    bool
    value(JsonValue &out, int depth)
    {
        if (depth > kMaxDepth)
            return fail("nesting too deep");
        if (pos_ >= text_.size())
            return fail("unexpected end of input");
        const char c = text_[pos_];
        if (c == 'n')
            return literal("null", JsonValue::null(), out);
        if (c == 't')
            return literal("true", JsonValue::boolean(true), out);
        if (c == 'f')
            return literal("false", JsonValue::boolean(false), out);
        if (c == '"') {
            std::string s;
            if (!stringBody(s))
                return false;
            out = JsonValue::string(std::move(s));
            return true;
        }
        if (c == '[') {
            ++pos_;
            out = JsonValue::array();
            skipWs();
            if (pos_ < text_.size() && text_[pos_] == ']') {
                ++pos_;
                return true;
            }
            while (true) {
                JsonValue item;
                skipWs();
                if (!value(item, depth + 1))
                    return false;
                out.push(std::move(item));
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
                return fail("expected ',' or ']'");
            }
        }
        if (c == '{') {
            ++pos_;
            out = JsonValue::object();
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
                if (!stringBody(key))
                    return false;
                skipWs();
                if (pos_ >= text_.size() || text_[pos_] != ':')
                    return fail("expected ':'");
                ++pos_;
                skipWs();
                JsonValue member;
                if (!value(member, depth + 1))
                    return false;
                out.set(key, std::move(member));
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
                return fail("expected ',' or '}'");
            }
        }
        // Number.  strtod also accepts "nan"/"inf", which JSON does
        // not — and which would poison downstream integer casts.
        {
            const char *start = text_.c_str() + pos_;
            char *end = nullptr;
            const double v = std::strtod(start, &end);
            if (end == start || !std::isfinite(v))
                return fail("unrecognized token");
            pos_ += static_cast<std::size_t>(end - start);
            out = JsonValue::number(v);
            return true;
        }
    }

    const std::string &text_;
    std::string &err_;
    std::size_t pos_ = 0;
};

} // namespace

bool
JsonValue::parse(const std::string &text, JsonValue &out,
                 std::string &err)
{
    Parser p(text, err);
    return p.document(out);
}

} // namespace refrint
