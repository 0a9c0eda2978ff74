#include "report.hh"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <map>
#include <set>

#include "sim/json.hh"
#include "sim/logging.hh"

namespace visa::vbench
{

namespace
{

std::string
quoted(const std::string &s)
{
    std::string out = "\"";
    for (char c : s) {
        if (c == '"' || c == '\\') {
            out.push_back('\\');
            out.push_back(c);
        } else if (static_cast<unsigned char>(c) < 0x20) {
            out += ' ';
        } else {
            out.push_back(c);
        }
    }
    return out + "\"";
}

std::string
number(double v)
{
    if (!std::isfinite(v))
        return "null";
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.10g", v);
    return buf;
}

std::string
hex(std::uint64_t v)
{
    char buf[24];
    std::snprintf(buf, sizeof(buf), "0x%016llx",
                  static_cast<unsigned long long>(v));
    return buf;
}

} // namespace

void
writeReport(std::ostream &os, const RunReport &r)
{
    os << "{\n  \"benchmark\": \"visa-bench\",\n"
       << "  \"workload\": " << quoted(r.workload) << ",\n"
       << "  \"seed\": " << r.seed << ",\n"
       << "  \"scale\": " << number(r.scale) << ",\n"
       << "  \"threads\": " << r.threads << ",\n"
       << "  \"seconds\": " << number(r.seconds) << ",\n"
       << "  \"ok\": " << (r.ok ? "true" : "false") << ",\n"
       << "  \"attempted\": " << r.attempted << ",\n"
       << "  \"failed\": " << r.failed << ",\n"
       << "  \"problems\": [";
    for (std::size_t i = 0; i < r.problems.size(); ++i)
        os << (i ? ", " : "") << quoted(r.problems[i]);
    os << "],\n  \"digest\": \"" << hex(r.digest) << "\",\n"
       << "  \"setup_runs_s\": [";
    for (std::size_t i = 0; i < r.setupSeconds.size(); ++i)
        os << (i ? ", " : "") << number(r.setupSeconds[i]);
    os << "],\n  \"rounds\": [\n";
    for (std::size_t i = 0; i < r.rounds.size(); ++i) {
        const RoundRecord &rr = r.rounds[i];
        os << "    {\"wall_s\": " << number(rr.wallSeconds)
           << ", \"instructions\": " << rr.instructions << ", \"mips\": "
           << number(static_cast<double>(rr.instructions) / 1e6 /
                     rr.wallSeconds)
           << "}" << (i + 1 < r.rounds.size() ? "," : "") << "\n";
    }
    os << "  ],\n  \"metrics\": {\n";
    for (std::size_t i = 0; i < r.metrics.size(); ++i) {
        const Metric &m = r.metrics[i];
        os << "    " << quoted(m.name) << ": {\"value\": "
           << number(m.value) << ", \"unit\": " << quoted(m.unit) << "}"
           << (i + 1 < r.metrics.size() ? "," : "") << "\n";
    }
    os << "  },\n  \"spans\": [\n";
    for (std::size_t i = 0; i < r.spans.size(); ++i) {
        const SpanSummary &s = r.spans[i];
        os << "    {\"name\": " << quoted(s.name)
           << ", \"count\": " << s.count
           << ", \"total_ms\": " << number(s.totalMs)
           << ", \"self_ms\": " << number(s.selfMs)
           << ", \"p50_us\": " << number(s.p50Us)
           << ", \"tail_pct\": " << s.tailPct
           << ", \"tail_us\": " << number(s.tailUs)
           << ", \"instructions\": " << s.work << "}"
           << (i + 1 < r.spans.size() ? "," : "") << "\n";
    }
    os << "  ]\n}\n";
}

void
printSummary(std::ostream &os, const RunReport &r)
{
    char line[256];
    if (!r.spans.empty()) {
        std::snprintf(line, sizeof(line),
                      "%-28s %8s %11s %11s %10s %16s %12s\n", "span",
                      "calls", "total ms", "self ms", "p50 us",
                      "tail us (pct)", "ns/inst");
        os << line;
        for (const SpanSummary &s : r.spans) {
            char tail[32] = "-";
            if (s.tailPct)
                std::snprintf(tail, sizeof(tail), "%.1f (p%d)", s.tailUs,
                              s.tailPct);
            char per[32] = "-";
            if (s.work)
                std::snprintf(per, sizeof(per), "%.2f",
                              1e6 * s.selfMs /
                                  static_cast<double>(s.work));
            std::snprintf(line, sizeof(line),
                          "%-28s %8zu %11.2f %11.2f %10.1f %16s %12s\n",
                          s.name.c_str(), s.count, s.totalMs, s.selfMs,
                          s.p50Us, tail, per);
            os << line;
        }
        os << "(tail: the highest percentile above the median with at "
              "least 10 calls beyond it)\n\n";
    }
    for (const Metric &m : r.metrics) {
        std::snprintf(line, sizeof(line), "%-36s %14.6g %s\n",
                      m.name.c_str(), m.value, m.unit.c_str());
        os << line;
    }
    std::snprintf(line, sizeof(line),
                  "%s seed %llu: %zu rounds, %llu/%llu units failed, "
                  "digest %s, %s\n",
                  r.workload.c_str(),
                  static_cast<unsigned long long>(r.seed), r.rounds.size(),
                  static_cast<unsigned long long>(r.failed),
                  static_cast<unsigned long long>(r.attempted),
                  hex(r.digest).c_str(), r.ok ? "ok" : "NOT OK");
    os << line;
    for (const std::string &p : r.problems)
        os << "  problem: " << p << "\n";
}

namespace
{

/**
 * Python's statistics.quantiles(values, n=4) ("exclusive" method): the
 * first and third quartiles. One value gives that value twice.
 */
void
quartiles(std::vector<double> values, double &q1, double &q3)
{
    std::sort(values.begin(), values.end());
    const std::size_t n = values.size();
    if (n == 0) {
        q1 = q3 = 0.0;
        return;
    }
    if (n == 1) {
        q1 = q3 = values[0];
        return;
    }
    const auto at = [&](std::size_t i) {
        const std::size_t m = n + 1;
        std::size_t j = i * m / 4;
        j = std::clamp<std::size_t>(j, 1, n - 1);
        const double delta =
            static_cast<double>(i * m) - static_cast<double>(j * 4);
        return (values[j - 1] * (4.0 - delta) + values[j] * delta) / 4.0;
    };
    q1 = at(1);
    q3 = at(3);
}

/** Reports of one side: per workload, per metric, every run's value. */
struct Side
{
    std::map<std::string, std::map<std::string, std::vector<double>>>
        values;
    /** (workload, seed, scale) -> digests seen. */
    std::map<std::string, std::set<std::string>> digests;
    int runs = 0;
};

Side
loadSide(const std::string &dir)
{
    Side side;
    std::vector<std::filesystem::path> paths;
    for (const auto &e : std::filesystem::directory_iterator(dir))
        if (e.is_regular_file() && e.path().extension() == ".json")
            paths.push_back(e.path());
    std::sort(paths.begin(), paths.end());
    for (const auto &p : paths) {
        const json::Value v = json::parseFile(p.string());
        const json::Value *tag = v.find("benchmark");
        if (!tag || tag->string != "visa-bench")
            continue;    // e.g. a Chrome trace written beside the report
        ++side.runs;
        const std::string wl = v.at("workload").string;
        for (const auto &[name, m] : v.at("metrics").object) {
            if (m.at("value").type != json::Value::Type::Number)
                continue;
            side.values[wl][name].push_back(m.at("value").number);
        }
        const std::string key = wl + " seed " +
                                number(v.at("seed").number) + " scale " +
                                number(v.at("scale").number);
        side.digests[key].insert(v.at("digest").string);
    }
    if (side.runs == 0)
        fatal("--compare: no visa-bench reports in %s", dir.c_str());
    return side;
}

struct Bound
{
    bool lowerIsBetter = true;
    double bound = 0.0;
};

} // namespace

int
compareReports(const std::string &dir_a, const std::string &dir_b,
               const std::string &bounds_file)
{
    std::map<std::string, Bound> bounds;
    const json::Value spec = json::parseFile(bounds_file);
    for (const json::Value &m : spec.at("end_to_end").array)
        bounds[m.at("name").string] = {m.at("better").string == "lower",
                                       m.at("bound").number};

    const Side a = loadSide(dir_a);
    const Side b = loadSide(dir_b);
    std::printf("A = %s (%d runs), B = %s (%d runs); spread = "
                "(q3 - q1) / median\n\n",
                dir_a.c_str(), a.runs, dir_b.c_str(), b.runs);
    std::printf("%-15s %-34s %12s %8s %12s %8s %8s  %s\n", "workload",
                "metric", "A median", "spread", "B median", "spread",
                "B/A", "verdict");
    int status = 0;
    for (const auto &[wl, metrics] : a.values) {
        const auto bw = b.values.find(wl);
        if (bw == b.values.end())
            continue;
        for (const auto &[name, va] : metrics) {
            const auto bm = bw->second.find(name);
            if (bm == bw->second.end())
                continue;
            const std::vector<double> &vb = bm->second;
            double qa1, qa3, qb1, qb3;
            quartiles(va, qa1, qa3);
            quartiles(vb, qb1, qb3);
            const double ma = median(va);
            const double mb = median(vb);
            const double sa = ma != 0.0 ? (qa3 - qa1) / std::fabs(ma) : 0.0;
            const double sb = mb != 0.0 ? (qb3 - qb1) / std::fabs(mb) : 0.0;
            std::string verdict = "-";
            const auto bd = bounds.find(name);
            if (bd != bounds.end()) {
                const Bound &bnd = bd->second;
                const double worse =
                    ma == 0.0 ? 0.0
                              : (bnd.lowerIsBetter ? mb - ma : ma - mb) /
                                    std::fabs(ma);
                if (sa > bnd.bound || sb > bnd.bound) {
                    verdict = "unresolved";
                } else if (worse > bnd.bound) {
                    verdict = "regressed";
                    status = 1;
                } else {
                    verdict = "within bound";
                }
            }
            std::printf("%-15s %-34s %12.6g %7.2f%% %12.6g %7.2f%% %8.4f  "
                        "%s\n",
                        wl.c_str(), name.c_str(), ma, 100.0 * sa, mb,
                        100.0 * sb, ma != 0.0 ? mb / ma : 0.0,
                        verdict.c_str());
        }
    }
    std::printf("\n");
    int compared = 0;
    int differing = 0;
    for (const auto &[key, da] : a.digests) {
        const auto db = b.digests.find(key);
        if (db == b.digests.end())
            continue;
        ++compared;
        if (da.size() != 1 || db->second != da) {
            std::printf("digest DIFFERS: %s\n", key.c_str());
            ++differing;
        }
    }
    std::printf("\ndigests: %d of %d (workload, seed, scale) keys run on "
                "both sides differ\n",
                differing, compared);
    return status || differing ? 1 : 0;
}

} // namespace visa::vbench
