/**
 * @file
 * Span-based JSON reader for tools that must consume the simulator's
 * own machine-readable outputs (sweep shards, campaign results)
 * without re-serializing them. Instead of building a value tree, every
 * query returns the [begin,end) byte span of a value inside the
 * original document; the merge tool operates on raw spans so merged
 * cells stay byte-identical to what the emitter wrote — no
 * float-reformatting drift, ever.
 *
 * This is a validator + locator, not a general-purpose parser: it
 * accepts exactly the JSON subset our emitters produce (and rejects
 * malformed documents, including ones nested deeper than 64 levels),
 * which is all the merge path and the record reader
 * (sim/jsonfields.hh) need.
 */

#ifndef ZMT_COMMON_JSONPARSE_HH
#define ZMT_COMMON_JSONPARSE_HH

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace zmt
{
namespace jsonspan
{

/** Half-open byte range [begin,end) inside a document. */
struct Span
{
    size_t begin = 0;
    size_t end = 0;

    size_t size() const { return end - begin; }
    std::string text(const std::string &doc) const
    {
        return doc.substr(begin, end - begin);
    }
};

/**
 * Validate @p doc as one complete JSON value (plus surrounding
 * whitespace). On success @p out (if given) receives the value's span.
 */
bool validate(const std::string &doc, Span *out = nullptr,
              std::string *error = nullptr);

/**
 * Given the span of an object value, locate the value of direct
 * member @p key. Returns false if the span is not an object or the
 * key is absent.
 */
bool objectField(const std::string &doc, Span object,
                 const std::string &key, Span *value);

/**
 * Given the span of an array value, collect the spans of its
 * elements. Returns false if the span is not an array.
 */
bool arrayElements(const std::string &doc, Span array,
                   std::vector<Span> *elements);

/** Decode a string value span (unescape) into @p out. */
bool decodeString(const std::string &doc, Span value, std::string *out);

/** Parse a number value span into @p out. */
bool decodeNumber(const std::string &doc, Span value, double *out);

/** Parse a number span of decimal digits only, exactly, into @p out;
 *  false on a sign, fraction, exponent or overflow. */
bool decodeUnsigned(const std::string &doc, Span value, uint64_t *out);

/** True if the value span is the literal null. */
bool isNull(const std::string &doc, Span value);

} // namespace jsonspan
} // namespace zmt

#endif // ZMT_COMMON_JSONPARSE_HH
