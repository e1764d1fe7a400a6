/**
 * @file
 * Minimal JSON emission helpers shared by every machine-readable
 * output path (sweep results, campaign records, Chrome trace export).
 * Reading goes through jsonspan (common/jsonparse.hh); the record
 * reader in sim/jsonfields.hh takes back every value these print,
 * jsonNumber's null as NaN.
 */

#ifndef ZMT_COMMON_JSON_HH
#define ZMT_COMMON_JSON_HH

#include <string>

namespace zmt
{

/** Escape a string for embedding in a JSON document. */
std::string jsonEscape(const std::string &s);

/**
 * Render a double as a JSON number. Non-finite values (NaN, inf) have
 * no JSON representation and become "null", so consumers see an
 * explicit absent value instead of a parse error.
 */
std::string jsonNumber(double v);

} // namespace zmt

#endif // ZMT_COMMON_JSON_HH
