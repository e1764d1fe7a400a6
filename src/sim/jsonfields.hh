/**
 * @file
 * The one JSON codec of the campaign records. A record type names its
 * members once, in document order, in a field list: a
 * visitFields(record, v) template, found by argument-dependent lookup,
 * that calls v(name, member) for each member. writeJsonObject prints a
 * record through jsonEscape/jsonNumber; readJsonObject reads it back
 * through jsonspan, exactly: integers never round through double, and
 * a double jsonNumber printed as null (NaN, infinity) reads back as
 * NaN. A member is a bool, a non-negative integer, a double, a
 * std::string, a RunStatus (by name) or another record (a nested
 * object).
 */

#ifndef ZMT_SIM_JSONFIELDS_HH
#define ZMT_SIM_JSONFIELDS_HH

#include <limits>
#include <ostream>
#include <string>
#include <type_traits>

#include "common/json.hh"
#include "common/jsonparse.hh"
#include "core/core.hh"

namespace zmt
{

/** The record parameter of a field list: @p T, or const @p T when the
 *  list is walked for writing. */
template <typename R, typename T>
concept RecordOf = std::is_same_v<std::remove_const_t<R>, T>;

template <typename Record>
void writeJsonObject(std::ostream &os, const Record &record);

template <typename Record>
bool readJsonObject(const std::string &doc, jsonspan::Span object,
                    Record *record);

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
        if constexpr (std::is_same_v<T, bool>)
            os << (value ? "true" : "false");
        else if constexpr (std::is_integral_v<T>)
            os << value;
        else if constexpr (std::is_floating_point_v<T>)
            os << jsonNumber(value);
        else if constexpr (std::is_same_v<T, std::string>)
            os << '"' << jsonEscape(value) << '"';
        else if constexpr (std::is_same_v<T, RunStatus>)
            os << '"' << runStatusName(value) << '"';
        else
            writeJsonObject(os, value);
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
        } else {
            return readJsonObject(doc, span, &field);
        }
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
