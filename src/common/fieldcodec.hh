/**
 * @file
 * Token-oriented field encoding of the zmt-checkpoint-v1 simulator
 * checkpoint (sim/checkpoint.cc), its only user. A record is a single
 * line of whitespace-separated "key=value" tokens; values are
 * percent-encoded so arbitrary strings stay one token.
 */

#ifndef ZMT_COMMON_FIELDCODEC_HH
#define ZMT_COMMON_FIELDCODEC_HH

#include <cstdint>
#include <cstdlib>
#include <map>
#include <string>

namespace zmt::fieldcodec
{

/** Percent-encode so any string becomes one whitespace-free token. */
inline std::string
encodeField(const std::string &s)
{
    static const char hexDigits[] = "0123456789abcdef";
    std::string out;
    out.reserve(s.size() + 1);
    for (unsigned char c : s) {
        if (c > ' ' && c != '%' && c != 0x7f) {
            out += char(c);
        } else {
            out += '%';
            out += hexDigits[c >> 4];
            out += hexDigits[c & 0xf];
        }
    }
    // An empty value still needs a token body ("k=" parses fine, but
    // being explicit costs nothing and reads better in journals).
    return out;
}

inline int
hexNibble(char c)
{
    if (c >= '0' && c <= '9')
        return c - '0';
    if (c >= 'a' && c <= 'f')
        return c - 'a' + 10;
    if (c >= 'A' && c <= 'F')
        return c - 'A' + 10;
    return -1;
}

inline bool
decodeField(const std::string &s, std::string *out)
{
    std::string result;
    result.reserve(s.size());
    for (size_t i = 0; i < s.size(); ++i) {
        if (s[i] != '%') {
            result += s[i];
            continue;
        }
        if (i + 2 >= s.size())
            return false;
        int hi = hexNibble(s[i + 1]);
        int lo = hexNibble(s[i + 2]);
        if (hi < 0 || lo < 0)
            return false;
        result += char(hi << 4 | lo);
        i += 2;
    }
    *out = std::move(result);
    return true;
}

using TokenMap = std::map<std::string, std::string>;

inline bool
splitTokens(const std::string &text, TokenMap *kv)
{
    size_t i = 0;
    while (i < text.size()) {
        size_t space = text.find(' ', i);
        size_t end = space == std::string::npos ? text.size() : space;
        if (end > i) {
            size_t eq = text.find('=', i);
            if (eq == std::string::npos || eq >= end)
                return false;
            (*kv)[text.substr(i, eq - i)] =
                text.substr(eq + 1, end - eq - 1);
        }
        i = end + 1;
    }
    return true;
}

inline bool
getU64(const TokenMap &kv, const std::string &key, uint64_t *out)
{
    auto it = kv.find(key);
    if (it == kv.end())
        return false;
    char *end = nullptr;
    *out = std::strtoull(it->second.c_str(), &end, 10);
    return end != it->second.c_str() && *end == '\0';
}

inline bool
getString(const TokenMap &kv, const std::string &key, std::string *out)
{
    auto it = kv.find(key);
    return it != kv.end() && decodeField(it->second, out);
}

} // namespace zmt::fieldcodec

#endif // ZMT_COMMON_FIELDCODEC_HH
