/**
 * @file
 * Minimal JSON value type: the one writer behind the synthesis run
 * report (`rtl2uspec --report`), the litmus campaign report
 * (`uspec_check --report`) and the synthesis service's wire protocol.
 *
 * The service speaks length-prefixed JSON over a Unix-domain socket
 * (see serve/protocol.hh); requests arrive from arbitrary clients, so
 * parsing must be strict — a malformed frame is a protocol error, not
 * undefined behavior. This is deliberately a small recursive-descent
 * parser + serializer over one variant-ish struct, not a general JSON
 * library: objects preserve insertion order (stable output), numbers
 * are doubles (integral values print as integers, the rest as
 * %.17g), and parse failures return an error string instead of
 * throwing.
 */

#ifndef R2U_COMMON_JSON_HH
#define R2U_COMMON_JSON_HH

#include <concepts>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace r2u::json
{

struct Value
{
    enum class Kind : uint8_t { Null, Bool, Num, Str, Arr, Obj };

    Kind kind = Kind::Null;
    bool boolean = false;
    double num = 0.0;
    std::string str;
    std::vector<Value> arr;
    /** Insertion-ordered members (no duplicate keys on parse). */
    std::vector<std::pair<std::string, Value>> obj;

    // --- constructors for building documents ---
    static Value null() { return Value{}; }
    static Value boolean_(bool b);
    static Value number(double n);
    /** Any integer type (counts, sizes, exit codes). */
    template <std::integral T> static Value number(T n)
    {
        return number(static_cast<double>(n));
    }
    static Value string(std::string s);
    static Value array();
    static Value object();

    bool isNull() const { return kind == Kind::Null; }
    bool isObj() const { return kind == Kind::Obj; }
    bool isArr() const { return kind == Kind::Arr; }
    bool isStr() const { return kind == Kind::Str; }
    bool isNum() const { return kind == Kind::Num; }
    bool isBool() const { return kind == Kind::Bool; }

    /** Object member lookup; nullptr when absent or not an object. */
    const Value *find(const std::string &key) const;

    /** Set (insert or replace) an object member; panics off-kind. */
    Value &set(const std::string &key, Value v);
    /** Append an array element; panics off-kind. */
    Value &push(Value v);

    // --- leaf accessors with defaults (never throw) ---
    bool asBool(bool def = false) const;
    double asDouble(double def = 0.0) const;
    int64_t asInt(int64_t def = 0) const;
    std::string asStr(const std::string &def = "") const;

    /** Member accessors: find(key) then the leaf accessor. */
    bool getBool(const std::string &key, bool def = false) const;
    double getDouble(const std::string &key, double def = 0.0) const;
    int64_t getInt(const std::string &key, int64_t def = 0) const;
    std::string getStr(const std::string &key,
                       const std::string &def = "") const;

    /** Compact single-line serialization (stable member order). */
    std::string dump() const;

    /**
     * Strict parse of exactly one JSON document (trailing garbage is
     * an error). On failure returns false and fills @p err with a
     * position-annotated message; @p out is left Null.
     */
    static bool parse(const std::string &text, Value &out,
                      std::string *err);
};

/** JSON string escaping (quotes not included). */
std::string escape(const std::string &s);

} // namespace r2u::json

#endif // R2U_COMMON_JSON_HH
