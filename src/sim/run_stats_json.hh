/**
 * @file
 * Structured (JSON) export of a run's statistics sheet. Two entry
 * points:
 *
 *  - writeRunStatsJson() serialises one RunStats as a single JSON
 *    object (one line, no trailing newline) — every counter, the
 *    per-CPU cycle buckets, the shadow sweep, the pressure profile,
 *    the DLB effect counters and the latency distribution summaries.
 *
 *  - exportRunStatsJsonFromEnv() appends that object as one JSONL
 *    line to the file named by $VCOMA_STATS_JSON, if set. Appending
 *    (not truncating) makes a whole bench sweep land in one file;
 *    a process-wide lock keeps lines whole when Runner::runAll
 *    finishes several simulations concurrently.
 *
 * The output parses with `python3 -m vcoma_sweep check-stats` and the
 * in-tree vcoma::JsonValue parser (see tests/test_stats_json.cc).
 */

#ifndef VCOMA_SIM_RUN_STATS_JSON_HH
#define VCOMA_SIM_RUN_STATS_JSON_HH

#include <ostream>

namespace vcoma
{

struct RunStats;

/** Environment variable naming the JSONL stats file. */
inline constexpr const char *statsJsonEnvVar = "VCOMA_STATS_JSON";

/** Serialise @p stats as one JSON object (no trailing newline). */
void writeRunStatsJson(std::ostream &os, const RunStats &stats);

/**
 * Append one JSONL line for @p stats to $VCOMA_STATS_JSON.
 * @return true when a line was written (the variable was set and the
 *         file was writable).
 */
bool exportRunStatsJsonFromEnv(const RunStats &stats);

} // namespace vcoma

#endif // VCOMA_SIM_RUN_STATS_JSON_HH
