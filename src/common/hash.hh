/**
 * @file
 * Small non-cryptographic hashes shared by the persisted records and
 * result-integrity checks. FNV-1a is the repo's standard fingerprint
 * (the golden-run tests checksum stat dumps with it): simple, stable
 * across platforms, and byte-order independent by construction.
 *
 * Also the one framing of a checksummed record line, which the
 * campaign journal and the checkpoint both use:
 * "<hex64(fnv1a64(payload))> <payload>", the checksum covering exactly
 * the payload bytes. sealRecord writes it and openRecord checks it.
 */

#ifndef ZMT_COMMON_HASH_HH
#define ZMT_COMMON_HASH_HH

#include <cstdint>
#include <string>

namespace zmt
{

/** 64-bit FNV-1a over a byte string. */
inline uint64_t
fnv1a64(const std::string &s)
{
    uint64_t h = 0xcbf29ce484222325ULL;
    for (unsigned char c : s) {
        h ^= c;
        h *= 0x100000001b3ULL;
    }
    return h;
}

/** Fixed-width (16 char) lowercase hex rendering of a 64-bit hash. */
inline std::string
hex64(uint64_t v)
{
    static const char digits[] = "0123456789abcdef";
    std::string out(16, '0');
    for (int i = 15; i >= 0; --i) {
        out[size_t(i)] = digits[v & 0xf];
        v >>= 4;
    }
    return out;
}

/** @p payload as one checksummed record line (without the newline). */
inline std::string
sealRecord(const std::string &payload)
{
    return hex64(fnv1a64(payload)) + ' ' + payload;
}

/**
 * The payload of a sealRecord line. False with @p why set when the line
 * is too short to hold a checksum and a payload, or the checksum does
 * not match the payload.
 */
inline bool
openRecord(const std::string &line, std::string *payload,
           std::string *why)
{
    if (line.size() < 18 || line[16] != ' ') {
        *why = "truncated record";
        return false;
    }
    *payload = line.substr(17);
    if (line.compare(0, 16, hex64(fnv1a64(*payload))) != 0) {
        *why = "record checksum mismatch";
        return false;
    }
    return true;
}

} // namespace zmt

#endif // ZMT_COMMON_HASH_HH
