/**
 * @file
 * Small string utilities used by the notation parser and report printers.
 */

#ifndef TILEFLOW_COMMON_STRINGS_HPP
#define TILEFLOW_COMMON_STRINGS_HPP

#include <string>
#include <utility>
#include <vector>

namespace tileflow {

/** Strip leading/trailing ASCII whitespace. */
std::string trim(const std::string& s);

/** Split on a delimiter character; empty pieces are kept. */
std::vector<std::string> split(const std::string& s, char delim);

/** Join strings with a separator. */
std::string join(const std::vector<std::string>& parts,
                 const std::string& sep);

/** True if s starts with the given prefix. */
bool startsWith(const std::string& s, const std::string& prefix);

/** Parse environment variable `name` as trimmed "key=value,..." pairs
 *  (empty when unset); a piece without one '=' is warned and skipped. */
std::vector<std::pair<std::string, std::string>>
envKeyValues(const char* name);

/** Format a double with fixed precision (report printing helper). */
std::string fmt(double value, int precision = 2);

/** Format a value in engineering units (K/M/G) for human-readable rows. */
std::string humanCount(double value);

} // namespace tileflow

#endif // TILEFLOW_COMMON_STRINGS_HPP
