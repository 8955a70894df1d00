#include "common/json.hh"

#include <cmath>
#include <cstdio>
#include <cstring>

#include "common/logging.hh"

namespace r2u::json
{

Value
Value::boolean_(bool b)
{
    Value v;
    v.kind = Kind::Bool;
    v.boolean = b;
    return v;
}

Value
Value::number(double n)
{
    Value v;
    v.kind = Kind::Num;
    v.num = n;
    return v;
}

Value
Value::string(std::string s)
{
    Value v;
    v.kind = Kind::Str;
    v.str = std::move(s);
    return v;
}

Value
Value::array()
{
    Value v;
    v.kind = Kind::Arr;
    return v;
}

Value
Value::object()
{
    Value v;
    v.kind = Kind::Obj;
    return v;
}

const Value *
Value::find(const std::string &key) const
{
    if (kind != Kind::Obj)
        return nullptr;
    for (const auto &[k, v] : obj)
        if (k == key)
            return &v;
    return nullptr;
}

Value &
Value::set(const std::string &key, Value v)
{
    R2U_ASSERT(kind == Kind::Obj, "set() on a non-object");
    for (auto &[k, existing] : obj) {
        if (k == key) {
            existing = std::move(v);
            return *this;
        }
    }
    obj.emplace_back(key, std::move(v));
    return *this;
}

Value &
Value::push(Value v)
{
    R2U_ASSERT(kind == Kind::Arr, "push() on a non-array");
    arr.push_back(std::move(v));
    return *this;
}

bool
Value::asBool(bool def) const
{
    return kind == Kind::Bool ? boolean : def;
}

double
Value::asDouble(double def) const
{
    return kind == Kind::Num ? num : def;
}

int64_t
Value::asInt(int64_t def) const
{
    if (kind != Kind::Num)
        return def;
    // Out-of-range doubles must not be UB on the cast.
    if (!(num >= -9.2233720368547758e18 && num <= 9.2233720368547758e18))
        return def;
    return static_cast<int64_t>(num);
}

std::string
Value::asStr(const std::string &def) const
{
    return kind == Kind::Str ? str : def;
}

bool
Value::getBool(const std::string &key, bool def) const
{
    const Value *v = find(key);
    return v ? v->asBool(def) : def;
}

double
Value::getDouble(const std::string &key, double def) const
{
    const Value *v = find(key);
    return v ? v->asDouble(def) : def;
}

int64_t
Value::getInt(const std::string &key, int64_t def) const
{
    const Value *v = find(key);
    return v ? v->asInt(def) : def;
}

std::string
Value::getStr(const std::string &key, const std::string &def) const
{
    const Value *v = find(key);
    return v ? v->asStr(def) : def;
}

std::string
escape(const std::string &s)
{
    std::string out;
    out.reserve(s.size());
    for (unsigned char c : s) {
        switch (c) {
        case '"': out += "\\\""; break;
        case '\\': out += "\\\\"; break;
        case '\n': out += "\\n"; break;
        case '\r': out += "\\r"; break;
        case '\t': out += "\\t"; break;
        case '\b': out += "\\b"; break;
        case '\f': out += "\\f"; break;
        default:
            if (c < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof(buf), "\\u%04x", c);
                out += buf;
            } else {
                out += static_cast<char>(c);
            }
        }
    }
    return out;
}

std::string
Value::dump() const
{
    switch (kind) {
    case Kind::Null:
        return "null";
    case Kind::Bool:
        return boolean ? "true" : "false";
    case Kind::Num: {
        // Integral values print without a fraction (the common case
        // for counters and exit codes); everything else round-trips
        // through %.17g.
        if (std::isfinite(num) && num == std::floor(num) &&
            std::fabs(num) < 9.0e15) {
            char buf[32];
            std::snprintf(buf, sizeof(buf), "%lld",
                          static_cast<long long>(num));
            return buf;
        }
        if (!std::isfinite(num))
            return "null"; // JSON has no Inf/NaN
        char buf[40];
        std::snprintf(buf, sizeof(buf), "%.17g", num);
        return buf;
    }
    case Kind::Str:
        return "\"" + escape(str) + "\"";
    case Kind::Arr: {
        std::string out = "[";
        for (size_t i = 0; i < arr.size(); i++) {
            if (i)
                out += ",";
            out += arr[i].dump();
        }
        return out + "]";
    }
    case Kind::Obj: {
        std::string out = "{";
        for (size_t i = 0; i < obj.size(); i++) {
            if (i)
                out += ",";
            out += "\"" + escape(obj[i].first) + "\":";
            out += obj[i].second.dump();
        }
        return out + "}";
    }
    }
    return "null";
}

namespace
{

/** Recursive-descent parser state over the input text. */
struct Parser
{
    const char *p;
    const char *end;
    const char *begin;
    std::string err;
    int depth = 0;

    static constexpr int kMaxDepth = 64;

    bool fail(const std::string &msg)
    {
        if (err.empty())
            err = msg + " at offset " +
                  std::to_string(static_cast<size_t>(p - begin));
        return false;
    }

    void skipWs()
    {
        while (p < end && (*p == ' ' || *p == '\t' || *p == '\n' ||
                           *p == '\r'))
            p++;
    }

    bool literal(const char *lit)
    {
        size_t n = std::strlen(lit);
        if (static_cast<size_t>(end - p) < n ||
            std::memcmp(p, lit, n) != 0)
            return fail(std::string("expected '") + lit + "'");
        p += n;
        return true;
    }

    bool parseString(std::string &out)
    {
        if (p >= end || *p != '"')
            return fail("expected string");
        p++;
        out.clear();
        while (p < end && *p != '"') {
            unsigned char c = static_cast<unsigned char>(*p);
            if (c < 0x20)
                return fail("raw control character in string");
            if (c != '\\') {
                out += static_cast<char>(c);
                p++;
                continue;
            }
            p++;
            if (p >= end)
                return fail("dangling escape");
            char e = *p++;
            switch (e) {
            case '"': out += '"'; break;
            case '\\': out += '\\'; break;
            case '/': out += '/'; break;
            case 'n': out += '\n'; break;
            case 'r': out += '\r'; break;
            case 't': out += '\t'; break;
            case 'b': out += '\b'; break;
            case 'f': out += '\f'; break;
            case 'u': {
                if (end - p < 4)
                    return fail("truncated \\u escape");
                unsigned code = 0;
                for (int i = 0; i < 4; i++) {
                    char h = *p++;
                    code <<= 4;
                    if (h >= '0' && h <= '9')
                        code |= static_cast<unsigned>(h - '0');
                    else if (h >= 'a' && h <= 'f')
                        code |= static_cast<unsigned>(h - 'a' + 10);
                    else if (h >= 'A' && h <= 'F')
                        code |= static_cast<unsigned>(h - 'A' + 10);
                    else
                        return fail("bad \\u escape");
                }
                // UTF-8 encode the BMP code point (surrogate pairs are
                // passed through as two 3-byte sequences — good enough
                // for a local control protocol that is ASCII in
                // practice).
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
                return fail("unknown escape");
            }
        }
        if (p >= end)
            return fail("unterminated string");
        p++; // closing quote
        return true;
    }

    bool parseNumber(Value &out)
    {
        const char *start = p;
        if (p < end && *p == '-')
            p++;
        while (p < end && *p >= '0' && *p <= '9')
            p++;
        if (p < end && *p == '.') {
            p++;
            while (p < end && *p >= '0' && *p <= '9')
                p++;
        }
        if (p < end && (*p == 'e' || *p == 'E')) {
            p++;
            if (p < end && (*p == '+' || *p == '-'))
                p++;
            while (p < end && *p >= '0' && *p <= '9')
                p++;
        }
        std::string tok(start, p);
        char *tail = nullptr;
        double v = std::strtod(tok.c_str(), &tail);
        if (tok.empty() || tail != tok.c_str() + tok.size())
            return fail("bad number");
        out.kind = Value::Kind::Num;
        out.num = v;
        return true;
    }

    bool parseValue(Value &out)
    {
        if (++depth > kMaxDepth)
            return fail("nesting too deep");
        skipWs();
        if (p >= end)
            return fail("unexpected end of input");
        bool ok = false;
        switch (*p) {
        case '{': {
            p++;
            out.kind = Value::Kind::Obj;
            skipWs();
            if (p < end && *p == '}') {
                p++;
                ok = true;
                break;
            }
            while (true) {
                skipWs();
                std::string key;
                if (!parseString(key))
                    return false;
                if (out.find(key))
                    return fail("duplicate key '" + key + "'");
                skipWs();
                if (p >= end || *p != ':')
                    return fail("expected ':'");
                p++;
                Value member;
                if (!parseValue(member))
                    return false;
                out.obj.emplace_back(std::move(key), std::move(member));
                skipWs();
                if (p < end && *p == ',') {
                    p++;
                    continue;
                }
                if (p < end && *p == '}') {
                    p++;
                    ok = true;
                    break;
                }
                return fail("expected ',' or '}'");
            }
            break;
        }
        case '[': {
            p++;
            out.kind = Value::Kind::Arr;
            skipWs();
            if (p < end && *p == ']') {
                p++;
                ok = true;
                break;
            }
            while (true) {
                Value elem;
                if (!parseValue(elem))
                    return false;
                out.arr.push_back(std::move(elem));
                skipWs();
                if (p < end && *p == ',') {
                    p++;
                    continue;
                }
                if (p < end && *p == ']') {
                    p++;
                    ok = true;
                    break;
                }
                return fail("expected ',' or ']'");
            }
            break;
        }
        case '"':
            out.kind = Value::Kind::Str;
            ok = parseString(out.str);
            break;
        case 't':
            ok = literal("true");
            out.kind = Value::Kind::Bool;
            out.boolean = true;
            break;
        case 'f':
            ok = literal("false");
            out.kind = Value::Kind::Bool;
            out.boolean = false;
            break;
        case 'n':
            ok = literal("null");
            out.kind = Value::Kind::Null;
            break;
        default:
            ok = parseNumber(out);
        }
        depth--;
        return ok;
    }
};

} // namespace

bool
Value::parse(const std::string &text, Value &out, std::string *err)
{
    out = Value{};
    Parser parser{text.data(), text.data() + text.size(), text.data(),
                  "", 0};
    Value v;
    if (!parser.parseValue(v)) {
        if (err)
            *err = parser.err;
        return false;
    }
    parser.skipWs();
    if (parser.p != parser.end) {
        if (err)
            *err = "trailing garbage after document";
        return false;
    }
    out = std::move(v);
    return true;
}

} // namespace r2u::json
