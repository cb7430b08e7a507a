/**
 * @file
 * Binary trace file format ("trace tapes").
 *
 * Layout (little-endian):
 *   header:  magic "PPTR", u32 version, u64 seed, u64 record count,
 *            u32 name length, name bytes
 *   records: packed 40-byte records (see trace_io.cc)
 *   footer:  u64 FNV-1a checksum over all record bytes
 *
 * The checksum catches truncated or corrupted tapes, which in a
 * trace-driven methodology silently skew every downstream number.
 */

#ifndef PIPEDEPTH_TRACE_TRACE_IO_HH
#define PIPEDEPTH_TRACE_TRACE_IO_HH

#include <string>

#include "trace/trace.hh"

namespace pipedepth
{

/** Serialize @p trace to @p path. Fatal on I/O failure. */
void writeTrace(const Trace &trace, const std::string &path);

/**
 * Load a trace tape. Fatal on missing file, bad magic, version
 * mismatch, truncation (including a record count the file cannot
 * hold), or checksum failure.
 */
Trace readTrace(const std::string &path);

/** Current trace-format version. */
constexpr std::uint32_t kTraceFormatVersion = 1;

} // namespace pipedepth

#endif // PIPEDEPTH_TRACE_TRACE_IO_HH
