#include "common/jsonparse.hh"

#include <cctype>
#include <cstdlib>
#include <cstring>

namespace zmt
{
namespace jsonspan
{

namespace
{

size_t
skipWs(const std::string &s, size_t i)
{
    while (i < s.size() &&
           std::isspace(static_cast<unsigned char>(s[i])))
        ++i;
    return i;
}

/**
 * Deepest container nesting accepted. The scan recurses once per level,
 * so without a bound a long run of '[' overflows the stack; our
 * documents nest five levels deep.
 */
constexpr unsigned MaxDepth = 64;

/**
 * Scan one complete value starting at @p i, @p depth containers deep;
 * npos on malformed input. Nesting past MaxDepth is malformed too, and
 * also sets *@p tooDeep when given.
 */
size_t skipValue(const std::string &s, size_t i, unsigned depth = 0,
                 bool *tooDeep = nullptr);

size_t
skipString(const std::string &s, size_t i)
{
    if (i >= s.size() || s[i] != '"')
        return std::string::npos;
    for (++i; i < s.size(); ++i) {
        if (s[i] == '\\')
            ++i; // skip the escaped character
        else if (s[i] == '"')
            return i + 1;
    }
    return std::string::npos;
}

size_t
skipContainer(const std::string &s, size_t i, char close, bool object,
              unsigned depth, bool *tooDeep)
{
    if (depth >= MaxDepth) {
        if (tooDeep)
            *tooDeep = true;
        return std::string::npos;
    }
    i = skipWs(s, i + 1); // past the opener
    if (i < s.size() && s[i] == close)
        return i + 1;
    while (i != std::string::npos && i < s.size()) {
        if (object) {
            i = skipString(s, skipWs(s, i));
            if (i == std::string::npos)
                return i;
            i = skipWs(s, i);
            if (i >= s.size() || s[i] != ':')
                return std::string::npos;
            ++i;
        }
        i = skipValue(s, skipWs(s, i), depth + 1, tooDeep);
        if (i == std::string::npos)
            return i;
        i = skipWs(s, i);
        if (i < s.size() && s[i] == ',') {
            i = skipWs(s, i + 1);
            continue;
        }
        if (i < s.size() && s[i] == close)
            return i + 1;
        return std::string::npos;
    }
    return std::string::npos;
}

size_t
skipValue(const std::string &s, size_t i, unsigned depth, bool *tooDeep)
{
    i = skipWs(s, i);
    if (i >= s.size())
        return std::string::npos;
    switch (s[i]) {
      case '"': return skipString(s, i);
      case '{': return skipContainer(s, i, '}', true, depth, tooDeep);
      case '[': return skipContainer(s, i, ']', false, depth, tooDeep);
      default: break;
    }
    static const char *literals[] = {"true", "false", "null"};
    for (const char *lit : literals)
        if (s.compare(i, std::strlen(lit), lit) == 0)
            return i + std::strlen(lit);
    size_t start = i;
    while (i < s.size() &&
           (std::isdigit(static_cast<unsigned char>(s[i])) ||
            std::strchr("+-.eE", s[i])))
        ++i;
    return i > start ? i : std::string::npos;
}

} // anonymous namespace

bool
validate(const std::string &doc, Span *out, std::string *error)
{
    size_t begin = skipWs(doc, 0);
    bool tooDeep = false;
    size_t end = skipValue(doc, begin, 0, &tooDeep);
    if (end == std::string::npos || skipWs(doc, end) != doc.size()) {
        if (error) {
            *error = tooDeep ? "JSON nested deeper than " +
                                   std::to_string(MaxDepth) + " levels"
                     : end == std::string::npos
                         ? "malformed JSON value"
                         : "trailing garbage after JSON value";
        }
        return false;
    }
    if (out)
        *out = {begin, end};
    return true;
}

bool
objectField(const std::string &doc, Span object, const std::string &key,
            Span *value)
{
    size_t i = object.begin;
    if (i >= doc.size() || doc[i] != '{')
        return false;
    i = skipWs(doc, i + 1);
    while (i < object.end && doc[i] != '}') {
        size_t key_begin = i;
        size_t key_end = skipString(doc, i);
        if (key_end == std::string::npos)
            return false;
        i = skipWs(doc, key_end);
        if (i >= doc.size() || doc[i] != ':')
            return false;
        size_t val_begin = skipWs(doc, i + 1);
        size_t val_end = skipValue(doc, val_begin);
        if (val_end == std::string::npos)
            return false;
        // Raw comparison works because our emitters escape keys, and
        // keys are plain identifiers ("schema", "cells", ...).
        if (doc.compare(key_begin + 1, key_end - key_begin - 2, key) ==
            0) {
            if (value)
                *value = {val_begin, val_end};
            return true;
        }
        i = skipWs(doc, val_end);
        if (i < doc.size() && doc[i] == ',')
            i = skipWs(doc, i + 1);
    }
    return false;
}

bool
arrayElements(const std::string &doc, Span array,
              std::vector<Span> *elements)
{
    size_t i = array.begin;
    if (i >= doc.size() || doc[i] != '[')
        return false;
    i = skipWs(doc, i + 1);
    while (i < array.end && doc[i] != ']') {
        size_t begin = i;
        size_t end = skipValue(doc, begin);
        if (end == std::string::npos)
            return false;
        if (elements)
            elements->push_back({begin, end});
        i = skipWs(doc, end);
        if (i < doc.size() && doc[i] == ',')
            i = skipWs(doc, i + 1);
    }
    return i < array.end || (i < doc.size() && doc[i] == ']');
}

bool
decodeString(const std::string &doc, Span value, std::string *out)
{
    if (value.begin >= doc.size() || doc[value.begin] != '"' ||
        value.size() < 2)
        return false;
    std::string result;
    result.reserve(value.size());
    for (size_t i = value.begin + 1; i + 1 < value.end; ++i) {
        char c = doc[i];
        if (c != '\\') {
            result += c;
            continue;
        }
        if (++i + 1 > value.end)
            return false;
        switch (doc[i]) {
          case '"':  result += '"';  break;
          case '\\': result += '\\'; break;
          case '/':  result += '/';  break;
          case 'n':  result += '\n'; break;
          case 't':  result += '\t'; break;
          case 'r':  result += '\r'; break;
          case 'b':  result += '\b'; break;
          case 'f':  result += '\f'; break;
          case 'u': {
            if (i + 4 >= value.end)
                return false;
            unsigned code = unsigned(
                std::strtoul(doc.substr(i + 1, 4).c_str(), nullptr, 16));
            // Our emitters only \u-escape control characters.
            result += char(code & 0xff);
            i += 4;
            break;
          }
          default: return false;
        }
    }
    if (out)
        *out = std::move(result);
    return true;
}

bool
decodeNumber(const std::string &doc, Span value, double *out)
{
    if (value.size() == 0 || value.size() >= 64)
        return false;
    char buf[64];
    std::memcpy(buf, doc.data() + value.begin, value.size());
    buf[value.size()] = '\0';
    char *end = nullptr;
    double v = std::strtod(buf, &end);
    if (end != buf + value.size())
        return false;
    if (out)
        *out = v;
    return true;
}

bool
decodeUnsigned(const std::string &doc, Span value, uint64_t *out)
{
    // Digits only: no sign, fraction or exponent, so a counter never
    // takes a detour through double.
    if (value.size() == 0)
        return false;
    uint64_t v = 0;
    for (size_t i = value.begin; i < value.end; ++i) {
        unsigned digit = unsigned(doc[i] - '0');
        if (digit > 9 || v > (UINT64_MAX - digit) / 10)
            return false;
        v = v * 10 + digit;
    }
    if (out)
        *out = v;
    return true;
}

bool
isNull(const std::string &doc, Span value)
{
    return value.size() == 4 && doc.compare(value.begin, 4, "null") == 0;
}

} // namespace jsonspan
} // namespace zmt
