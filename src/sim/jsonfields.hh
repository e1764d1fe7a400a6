/**
 * @file
 * The one JSON codec of every persisted record: the campaign records
 * and the checkpoint. A record type names its members once, in
 * document order, in a field list: a visitFields(record, v) template,
 * constrained by RecordOf (common/types.hh) and found by
 * argument-dependent lookup, that calls v(name, member) for each
 * member. writeJsonObject prints a record through jsonEscape/
 * jsonNumber; readJsonObject reads it back through jsonspan, exactly:
 * integers never round through double, and a double jsonNumber printed
 * as null (NaN, infinity) reads back as NaN.
 *
 * Member kinds:
 *  - bool; a non-negative integer, range-checked against its C++ type
 *    on reading; a double; a std::string; a RunStatus (by name);
 *  - std::vector<uint8_t>: one string of lowercase hex digit pairs;
 *  - std::vector<T> and std::array<T, N> of any member kind: an array,
 *    read back only at exactly N elements for a std::array;
 *  - another record: a nested object.
 */

#ifndef ZMT_SIM_JSONFIELDS_HH
#define ZMT_SIM_JSONFIELDS_HH

#include <array>
#include <limits>
#include <ostream>
#include <string>
#include <type_traits>
#include <vector>

#include "common/json.hh"
#include "common/jsonparse.hh"
#include "common/types.hh"
#include "core/core.hh"

namespace zmt
{

/** Whether @p T is a member kind written as a JSON array. */
template <typename T>
inline constexpr bool IsJsonArray = false;
template <typename T>
inline constexpr bool IsJsonArray<std::vector<T>> = true;
template <typename T, size_t N>
inline constexpr bool IsJsonArray<std::array<T, N>> = true;

template <typename Record>
void writeJsonObject(std::ostream &os, const Record &record);

template <typename Record>
bool readJsonObject(const std::string &doc, jsonspan::Span object,
                    Record *record);

/** Print @p value as its member kind's JSON. */
template <typename T>
void
writeJsonValue(std::ostream &os, const T &value)
{
    if constexpr (std::is_same_v<T, bool>) {
        os << (value ? "true" : "false");
    } else if constexpr (std::is_integral_v<T>) {
        os << value;
    } else if constexpr (std::is_floating_point_v<T>) {
        os << jsonNumber(value);
    } else if constexpr (std::is_same_v<T, std::string>) {
        os << '"' << jsonEscape(value) << '"';
    } else if constexpr (std::is_same_v<T, RunStatus>) {
        os << '"' << runStatusName(value) << '"';
    } else if constexpr (std::is_same_v<T, std::vector<uint8_t>>) {
        static const char digits[] = "0123456789abcdef";
        std::string text(2 * value.size() + 2, '"');
        for (size_t i = 0; i < value.size(); ++i) {
            text[2 * i + 1] = digits[value[i] >> 4];
            text[2 * i + 2] = digits[value[i] & 0xf];
        }
        os << text;
    } else if constexpr (IsJsonArray<T>) {
        os << '[';
        for (size_t i = 0; i < value.size(); ++i) {
            if (i)
                os << ',';
            writeJsonValue(os, value[i]);
        }
        os << ']';
    } else {
        writeJsonObject(os, value);
    }
}

/** Prints each member it is called with as "name":value. */
class JsonFieldWriter
{
  public:
    explicit JsonFieldWriter(std::ostream &os) : os(os) {}

    template <typename T>
    void
    operator()(const std::string &name, const T &value)
    {
        os << (first ? "\"" : ",\"") << name << "\":";
        first = false;
        writeJsonValue(os, value);
    }

  private:
    std::ostream &os;
    bool first = true;
};

/** Reads each member it is called with from one object of @p doc;
 *  ok() turns false at the first missing or malformed member. */
class JsonFieldReader
{
  public:
    JsonFieldReader(const std::string &doc, jsonspan::Span object)
        : doc(doc), object(object)
    {}

    bool ok() const { return good; }

    template <typename T>
    void
    operator()(const std::string &name, T &field)
    {
        jsonspan::Span span;
        good = good && jsonspan::objectField(doc, object, name, &span) &&
               decode(span, field);
    }

  private:
    template <typename T>
    bool
    decode(jsonspan::Span span, T &field)
    {
        if constexpr (std::is_same_v<T, bool>) {
            field = span.text(doc) == "true";
            return field || span.text(doc) == "false";
        } else if constexpr (std::is_integral_v<T>) {
            uint64_t value = 0;
            if (!jsonspan::decodeUnsigned(doc, span, &value) ||
                value > uint64_t(std::numeric_limits<T>::max()))
                return false;
            field = T(value);
            return true;
        } else if constexpr (std::is_floating_point_v<T>) {
            field = std::numeric_limits<T>::quiet_NaN();
            return jsonspan::isNull(doc, span) ||
                   jsonspan::decodeNumber(doc, span, &field);
        } else if constexpr (std::is_same_v<T, std::string>) {
            return jsonspan::decodeString(doc, span, &field);
        } else if constexpr (std::is_same_v<T, RunStatus>) {
            std::string name;
            return jsonspan::decodeString(doc, span, &name) &&
                   parseRunStatus(name, field);
        } else if constexpr (std::is_same_v<T, std::vector<uint8_t>>) {
            std::string text;
            return jsonspan::decodeString(doc, span, &text) &&
                   decodeHex(text, field);
        } else if constexpr (IsJsonArray<T>) {
            std::vector<jsonspan::Span> elements;
            if (!jsonspan::arrayElements(doc, span, &elements))
                return false;
            if constexpr (std::is_same_v<T, std::vector<
                                                typename T::value_type>>)
                field.resize(elements.size());
            else if (elements.size() != field.size())
                return false;
            for (size_t i = 0; i < elements.size(); ++i)
                if (!decode(elements[i], field[i]))
                    return false;
            return true;
        } else {
            return readJsonObject(doc, span, &field);
        }
    }

    static bool
    decodeHex(const std::string &text, std::vector<uint8_t> &bytes)
    {
        auto nibble = [](char c) {
            return c >= '0' && c <= '9'   ? c - '0'
                   : c >= 'a' && c <= 'f' ? c - 'a' + 10
                                          : -1;
        };
        if (text.size() % 2 != 0)
            return false;
        bytes.resize(text.size() / 2);
        for (size_t i = 0; i < bytes.size(); ++i) {
            int hi = nibble(text[2 * i]), lo = nibble(text[2 * i + 1]);
            if (hi < 0 || lo < 0)
                return false;
            bytes[i] = uint8_t(hi << 4 | lo);
        }
        return true;
    }

    const std::string &doc;
    jsonspan::Span object;
    bool good = true;
};

/** Print @p record as one JSON object. */
template <typename Record>
void
writeJsonObject(std::ostream &os, const Record &record)
{
    os << '{';
    visitFields(record, JsonFieldWriter(os));
    os << '}';
}

/**
 * Read @p record from the object at @p object, a span of a document
 * jsonspan::validate accepted. Every listed member must be present and
 * well-formed; @p record is left untouched otherwise.
 */
template <typename Record>
bool
readJsonObject(const std::string &doc, jsonspan::Span object,
               Record *record)
{
    Record read;
    JsonFieldReader reader(doc, object);
    visitFields(read, reader);
    if (reader.ok())
        *record = std::move(read);
    return reader.ok();
}

/** Validate @p text as one JSON value and read @p record from it. */
template <typename Record>
bool
parseJsonObject(const std::string &text, Record *record)
{
    jsonspan::Span root;
    return jsonspan::validate(text, &root) &&
           readJsonObject(text, root, record);
}

} // namespace zmt

#endif // ZMT_SIM_JSONFIELDS_HH
