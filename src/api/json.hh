/**
 * @file
 * Minimal JSON value tree used by the experiment API: plan files
 * (ExperimentPlan load/dump) and the JSON Lines result sink.
 *
 * Deliberately small and dependency-free: objects keep insertion
 * order (so a dumped plan is stable and diffs cleanly), numbers are
 * doubles printed exactly as %.17g prints them (appendJsonNumber), and
 * parse errors carry a character offset.
 *
 * The two append helpers at the bottom are the building blocks of
 * every number and string the program writes as text: the tree's
 * dump() uses them, and so do the JSON Lines row writer and the store
 * row codec, which append straight into one buffer without a tree.
 */

#ifndef REFRINT_API_JSON_HH
#define REFRINT_API_JSON_HH

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace refrint
{

class JsonValue
{
  public:
    enum class Kind : std::uint8_t
    {
        Null = 0,
        Bool,
        Number,
        String,
        Array,
        Object,
    };

    JsonValue() = default;
    static JsonValue null() { return JsonValue(); }
    static JsonValue boolean(bool b);
    static JsonValue number(double v);
    static JsonValue string(std::string s);
    static JsonValue array();
    static JsonValue object();

    Kind kind() const { return kind_; }
    bool isNull() const { return kind_ == Kind::Null; }
    bool isBool() const { return kind_ == Kind::Bool; }
    bool isNumber() const { return kind_ == Kind::Number; }
    bool isString() const { return kind_ == Kind::String; }
    bool isArray() const { return kind_ == Kind::Array; }
    bool isObject() const { return kind_ == Kind::Object; }

    bool asBool() const { return bool_; }
    double asNumber() const { return num_; }
    const std::string &asString() const { return str_; }

    const std::vector<JsonValue> &items() const { return arr_; }
    const std::vector<std::pair<std::string, JsonValue>> &
    members() const
    {
        return obj_;
    }

    /** Append to an array value. */
    void push(JsonValue v);

    /** Set (or append) an object member, keeping insertion order. */
    void set(const std::string &key, JsonValue v);

    /** Object member lookup; null when absent or not an object. */
    const JsonValue *get(const std::string &key) const;

    /**
     * Serialize.  @p indent 0 renders one compact line (JSON Lines
     * friendly); > 0 pretty-prints with that many spaces per level.
     */
    std::string dump(int indent = 0) const;

    /** Parse @p text (one complete JSON document, trailing whitespace
     *  allowed).  On failure returns false and sets @p err. */
    static bool parse(const std::string &text, JsonValue &out,
                      std::string &err);

  private:
    Kind kind_ = Kind::Null;
    bool bool_ = false;
    double num_ = 0;
    std::string str_;
    std::vector<JsonValue> arr_;
    std::vector<std::pair<std::string, JsonValue>> obj_;

    void dumpTo(std::string &out, int indent, int depth) const;
};

/** Append @p s to @p out as a JSON string literal, quotes included. */
void appendJsonString(std::string &out, const std::string &s);

/** Escape @p s as a JSON string literal, including the quotes. */
std::string jsonQuote(const std::string &s);

/**
 * Append @p v to @p out exactly as printf("%.17g") prints it: 17
 * significant digits, enough to round-trip any double, with trailing
 * zeros stripped, so integral values below 1e17 print as plain
 * integers.  The one formatter for every exact double the program
 * writes as text: JSON numbers, JSON Lines rows and store rows.
 *
 * It is std::to_chars(chars_format::general, 17), which the standard
 * defines as %.17g in the "C" locale.  The program never calls
 * setlocale, so the two agree byte for byte; a caller that switched
 * LC_NUMERIC would change printf's decimal point, not this output.
 */
void appendJsonNumber(std::string &out, double v);

/** appendJsonNumber into a fresh string. */
std::string jsonNumber(double v);

} // namespace refrint

#endif // REFRINT_API_JSON_HH
