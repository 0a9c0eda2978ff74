/**
 * @file
 * visa-bench's run report (one JSON object per run) and the
 * --compare mode that judges two directories of reports against the
 * bounds in BENCHMARK.json.
 */

#ifndef VISA_BENCH_REPORT_HH
#define VISA_BENCH_REPORT_HH

#include <cstdint>
#include <ostream>
#include <string>
#include <vector>

#include "spans.hh"

namespace visa::vbench
{

struct Metric
{
    std::string name;
    double value = 0.0;
    std::string unit;
};

struct RoundRecord
{
    double wallSeconds = 0.0;
    std::uint64_t instructions = 0;
};

struct RunReport
{
    std::string workload;
    std::uint64_t seed = 0;
    double scale = 1.0;
    unsigned threads = 1;
    double seconds = 0.0;
    bool ok = true;
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::vector<std::string> problems;
    std::uint64_t digest = 0;
    std::vector<double> setupSeconds;
    std::vector<RoundRecord> rounds;
    std::vector<Metric> metrics;
    std::vector<SpanSummary> spans;    ///< traced runs only
};

void writeReport(std::ostream &os, const RunReport &r);

/** Print the span table (traced runs) and the metrics to @p os. */
void printSummary(std::ostream &os, const RunReport &r);

/**
 * Compare every report in @p dir_a with every report in @p dir_b, per
 * (workload, metric), against the end_to_end bounds of @p bounds_file.
 * @return 1 if any metric regressed or any digest differs, else 0.
 */
int compareReports(const std::string &dir_a, const std::string &dir_b,
                   const std::string &bounds_file);

} // namespace visa::vbench

#endif // VISA_BENCH_REPORT_HH
