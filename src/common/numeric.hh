/**
 * @file
 * Locale-independent numeric conversions.
 *
 * std::strtod and printf's %g family honor LC_NUMERIC: under a
 * comma-decimal locale (e.g. LC_NUMERIC=de_DE) "1.5" stops parsing at
 * the '.' and 1.5 prints as "1,5". Every serialized number in this
 * codebase — JSON wire traffic, manifests, shard records,
 * cache-adjacent metadata, failpoint probability specs — is defined
 * over the C locale's '.' separator, so those call sites must not
 * pick up the process locale. These helpers convert through
 * std::from_chars / std::to_chars, which the standard specifies as
 * locale-independent, and they are what common/json and
 * common/failpoint build on.
 */

#ifndef PIPEDEPTH_COMMON_NUMERIC_HH
#define PIPEDEPTH_COMMON_NUMERIC_HH

#include <cstddef>
#include <string>

namespace pipedepth
{

/**
 * Parse a double from [@p begin, @p end) exactly as strtod would in
 * the "C" locale ('.' decimal separator, optional exponent), in any
 * process locale. No leading whitespace or 0x forms are accepted.
 *
 * Out-of-range literals keep strtod's tolerance: an underflow
 * ("1e-999") parses as 0.0 and an overflow ("1e999") as ±infinity,
 * with the whole literal consumed — a producer emitting an extreme
 * value must not make the consumer reject the document as malformed.
 *
 * @param parse_end when non-null, receives a pointer one past the
 *        last character consumed (== @p begin on failure).
 * @return true iff at least one character parsed as a number.
 */
bool parseDoubleC(const char *begin, const char *end, double *out,
                  const char **parse_end = nullptr);

/**
 * Parse a whole NUL-delimited string as a double, rejecting trailing
 * garbage: "0.5x" and "0,5" both fail. Convenience over parseDoubleC
 * for spec parsers (failpoints).
 */
bool parseDoubleFullC(const std::string &text, double *out);

/**
 * Format @p v with @p precision significant digits, like printf
 * "%.*g" in the "C" locale, in any process locale.
 */
std::string formatDoubleC(double v, int precision);

} // namespace pipedepth

#endif // PIPEDEPTH_COMMON_NUMERIC_HH
