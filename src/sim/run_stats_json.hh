/**
 * @file
 * Structured (JSON) form of a run's statistics sheet — the one
 * serialisation of RunStats. Two entry points:
 *
 *  - writeRunStatsJson() serialises one RunStats as a single JSON
 *    object (one line, no trailing newline) — every counter, the
 *    per-CPU cycle buckets, the shadow sweep, the pressure profile,
 *    the DLB effect counters and the latency distribution summaries.
 *
 *  - readRunStatsJson() is its inverse, used by the result cache. It
 *    accepts exactly the bytes the writer produces and nothing else.
 *
 * A sheet leaves a process one way: `vcoma_client --jsonl` appends
 * writeRunStatsJson() plus a newline per config.
 *
 * The output parses with `python3 -m vcoma_sweep check-stats` and the
 * in-tree vcoma::JsonValue parser (see tests/test_stats_json.cc).
 */

#ifndef VCOMA_SIM_RUN_STATS_JSON_HH
#define VCOMA_SIM_RUN_STATS_JSON_HH

#include <optional>
#include <ostream>
#include <string_view>

#include "sim/run_stats.hh"

namespace vcoma
{

/** Serialise @p stats as one JSON object (no trailing newline). */
void writeRunStatsJson(std::ostream &os, const RunStats &stats);

/**
 * Parse a sheet written by writeRunStatsJson(). Fails closed: returns
 * nothing on malformed JSON, a missing or mistyped field, an unknown
 * scheme name, or any text that writeRunStatsJson() would not
 * reproduce byte for byte from the parsed result. That last check
 * covers key order, extra keys, derived values (totals, accounted,
 * means, xlatOverTotalStallPct) and doubles that do not round-trip.
 */
std::optional<RunStats> readRunStatsJson(std::string_view text);

} // namespace vcoma

#endif // VCOMA_SIM_RUN_STATS_JSON_HH
