/**
 * @file
 * The run report every benchmark binary writes (BENCH_<name>.json).
 */

#ifndef VCOMA_BENCH_BENCH_UTIL_HH
#define VCOMA_BENCH_BENCH_UTIL_HH

#include <chrono>
#include <cmath>
#include <fstream>
#include <string>
#include <utility>
#include <vector>

#include "common/json.hh"

namespace vcoma_bench
{

/**
 * Build provenance stamped into every report (set by the build
 * system from `git describe --always --dirty`; "unknown" outside a
 * git checkout). The dashboard keys its staleness rule on schema +
 * this stamp, so a report from an old build can be flagged instead
 * of misplotted.
 */
#ifndef VCOMA_GIT_DESCRIBE
#define VCOMA_GIT_DESCRIBE "unknown"
#endif

/**
 * Machine-readable run report: every bench binary writes
 * BENCH_<name>.json next to its working directory so CI and the
 * dashboard can collect wall time and metrics without scraping
 * stdout.
 *
 * Report format versions: schema 1 had no provenance; schema 2 adds
 * the format version discipline itself plus the `git` build stamp.
 * Bump the schema whenever a field changes meaning, so downstream
 * consumers (tools/vcoma_sweep's dashboard, CI validators) can
 * refuse stale files.
 */
class BenchReport
{
  public:
    explicit BenchReport(std::string name)
        : name_(std::move(name)),
          start_(std::chrono::steady_clock::now())
    {
    }

    /** Attach a named scalar to the report. */
    void
    metric(const std::string &key, double value)
    {
        metrics_.emplace_back(key, value);
    }

    /**
     * Write BENCH_<name>.json. The benches drive components directly,
     * not through a Runner, so the report's executed/failure counts
     * (kept for the report format) are zero.
     */
    void
    finish() const
    {
        const double wallMs =
            std::chrono::duration<double, std::milli>(
                std::chrono::steady_clock::now() - start_)
                .count();
        std::ofstream out("BENCH_" + name_ + ".json");
        if (!out)
            return;  // reports are best-effort; never fail the bench
        out << "{\"bench\":\"" << vcoma::jsonEscape(name_)
            << "\",\"schema\":2,\"git\":\""
            << vcoma::jsonEscape(VCOMA_GIT_DESCRIBE)
            << "\",\"wall_ms\":" << wallMs
            << ",\"executed\":0,\"failures\":0";
        if (!metrics_.empty()) {
            out << ",\"metrics\":{";
            bool first = true;
            for (const auto &[key, value] : metrics_) {
                // inf/nan are not JSON; null keeps the file parsable.
                out << (first ? "" : ",") << "\""
                    << vcoma::jsonEscape(key) << "\":";
                if (std::isfinite(value))
                    out << value;
                else
                    out << "null";
                first = false;
            }
            out << "}";
        }
        out << "}\n";
    }

  private:
    std::string name_;
    std::chrono::steady_clock::time_point start_;
    std::vector<std::pair<std::string, double>> metrics_;
};

} // namespace vcoma_bench

#endif // VCOMA_BENCH_BENCH_UTIL_HH
