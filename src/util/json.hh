/**
 * @file
 * Minimal JSON document model, recursive-descent parser, and a
 * deterministic streaming writer.
 *
 * Everything in the repo that reads JSON (campaign specs, per-job run
 * reports, manifest lines) parses through Json/parseJson; the run
 * reports, profiler dumps, campaign reports, heatmaps and status files
 * emit through JsonWriter, so escaping and number formatting cannot
 * drift between them. The two other JSON emitters, tracer events and
 * manifest lines, write their text directly and escape every string
 * with jsonEscape(), the escaping JsonWriter applies. JsonWriter
 * formats doubles with an explicit fixed decimal count (never %g,
 * never locale-dependent) because several consumers byte-compare
 * reports across worker counts and resume boundaries.
 * The parser accepts exactly the JSON we emit plus ordinary
 * hand-written specs: objects, arrays, strings with the standard
 * escapes, finite numbers, booleans and null.
 */

#ifndef MISAR_UTIL_JSON_HH
#define MISAR_UTIL_JSON_HH

#include <cstdint>
#include <map>
#include <ostream>
#include <string>
#include <vector>

namespace misar {
namespace util {

/** One parsed JSON value (a tagged union over the JSON kinds). */
struct Json
{
    enum Kind { Null, Bool, Num, Str, Arr, Obj };

    Kind kind = Null;
    bool boolean = false;
    double num = 0.0;
    std::string str;
    std::vector<Json> arr;
    std::map<std::string, Json> obj;

    bool isNull() const { return kind == Null; }
    bool isObj() const { return kind == Obj; }
    bool isArr() const { return kind == Arr; }
    bool isStr() const { return kind == Str; }
    bool isNum() const { return kind == Num; }

    /** Object member lookup; a shared Null value when absent. */
    const Json &at(const std::string &key) const;

    /** Member present (objects only)? */
    bool has(const std::string &key) const;

    /** This value as a number, or @p def when not a number. */
    double numberOr(double def) const { return isNum() ? num : def; }

    /** This value as a non-negative integer, or @p def. */
    std::uint64_t
    uintOr(std::uint64_t def) const
    {
        if (!isNum() || num < 0)
            return def;
        return static_cast<std::uint64_t>(num);
    }

    /** This value as a string, or @p def when not a string. */
    std::string
    stringOr(const std::string &def) const
    {
        return isStr() ? str : def;
    }

    /** This value as a bool, or @p def when not a bool. */
    bool boolOr(bool def) const { return kind == Bool ? boolean : def; }
};

/** Escape @p s for embedding inside a JSON string literal. */
std::string jsonEscape(const std::string &s);

/**
 * Parse @p text. On failure returns a Null value and, when @p err is
 * non-null, stores a one-line message with the byte offset.
 */
Json parseJson(const std::string &text, std::string *err = nullptr);

/** parseJson over a file's entire contents ("" read errors too). */
Json parseJsonFile(const std::string &path, std::string *err = nullptr);

/**
 * Streaming JSON emitter with deterministic byte output.
 *
 * The writer tracks container nesting and inserts commas, so call
 * sites read as a flat sequence of key()/value()/begin*()/end*()
 * calls. It emits no whitespace of its own; newline() exists for the
 * few reports that keep one-line-per-record layouts. Doubles must be
 * written with an explicit decimal count — snprintf("%.*f") with
 * non-finite values clamped to 0 — which reproduces the byte format
 * the hand-rolled emitters used (std::fixed << setprecision(n)).
 */
class JsonWriter
{
  public:
    explicit JsonWriter(std::ostream &os) : os(os) {}

    JsonWriter &beginObject();
    JsonWriter &endObject();
    JsonWriter &beginArray();
    JsonWriter &endArray();

    /** Emit an (escaped) member key; the next value attaches to it. */
    JsonWriter &key(const std::string &k);

    JsonWriter &value(const std::string &v);
    JsonWriter &value(const char *v);
    JsonWriter &value(bool v);
    JsonWriter &value(std::int64_t v);
    JsonWriter &value(std::uint64_t v);
    JsonWriter &value(unsigned v) { return value(std::uint64_t(v)); }
    JsonWriter &value(int v) { return value(std::int64_t(v)); }
    /** Fixed-decimal double; non-finite values are written as 0. */
    JsonWriter &value(double v, int decimals);
    JsonWriter &null();

    /** Pre-rendered JSON (already valid, already escaped). */
    JsonWriter &rawValue(const std::string &json);

    /** @name key+value in one call. @{ */
    template <typename T>
    JsonWriter &
    kv(const std::string &k, const T &v)
    {
        return key(k).value(v);
    }
    JsonWriter &
    kv(const std::string &k, double v, int decimals)
    {
        return key(k).value(v, decimals);
    }
    /** @} */

    /** Cosmetic newline (between one-line records). */
    JsonWriter &newline();

  private:
    /** Comma/continuation bookkeeping before any value or key. */
    void prefix();

    std::ostream &os;
    std::vector<bool> hasPrior; ///< per open container
    bool afterKey = false;
};

} // namespace util
} // namespace misar

#endif // MISAR_UTIL_JSON_HH
