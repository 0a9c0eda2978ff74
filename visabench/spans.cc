#include "spans.hh"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <map>

namespace visa::vbench
{

namespace
{

SpanLog *activeLog = nullptr;

std::int64_t
nowNs()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

/**
 * Value at the highest whole percentile above the median of @p sorted
 * that leaves at least 10 samples beyond it; outputs stay untouched when
 * there are too few samples for one.
 */
void
tailPercentile(const std::vector<double> &sorted, int &pct, double &value)
{
    const std::size_t n = sorted.size();
    for (int q = 99; q > 50; --q) {
        // Nearest-rank index of the q-th percentile.
        const auto rank = static_cast<std::size_t>(
            std::ceil(static_cast<double>(q) * static_cast<double>(n) /
                      100.0));
        if (rank == 0 || n - rank < 10)
            continue;
        pct = q;
        value = sorted[rank - 1];
        return;
    }
}

} // namespace

SpanLog::SpanLog() : originNs_(nowNs()) {}

int
SpanLog::open(const char *name)
{
    Span s;
    s.name = name;
    s.parent = stack_.empty() ? -1 : stack_.back();
    s.startNs = nowNs();
    spans_.push_back(s);
    const int id = static_cast<int>(spans_.size()) - 1;
    stack_.push_back(id);
    return id;
}

void
SpanLog::close(int id, std::uint64_t work)
{
    Span &s = spans_[static_cast<std::size_t>(id)];
    s.endNs = nowNs();
    s.work = work;
    stack_.pop_back();
}

void
SpanLog::writeChromeTrace(std::ostream &os) const
{
    os << "{\"traceEvents\": [\n";
    char buf[256];
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const Span &s = spans_[i];
        const double tsUs = 1e-3 * static_cast<double>(s.startNs - originNs_);
        const double durUs = 1e-3 * static_cast<double>(s.endNs - s.startNs);
        std::snprintf(buf, sizeof(buf),
                      "{\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, "
                      "\"tid\": 1, \"ts\": %.3f, \"dur\": %.3f, "
                      "\"args\": {\"id\": %zu, \"parent\": %d, "
                      "\"work\": %llu}}%s\n",
                      s.name, tsUs, durUs, i, s.parent,
                      static_cast<unsigned long long>(s.work),
                      i + 1 < spans_.size() ? "," : "");
        os << buf;
    }
    os << "]}\n";
}

void
setSpanLog(SpanLog *log)
{
    activeLog = log;
}

SpanScope::SpanScope(const char *name) : log_(activeLog)
{
    if (log_)
        id_ = log_->open(name);
}

SpanScope::~SpanScope()
{
    if (log_)
        log_->close(id_, work_);
}

double
median(std::vector<double> values)
{
    if (values.empty())
        return 0.0;
    std::sort(values.begin(), values.end());
    const std::size_t n = values.size();
    return n % 2 ? values[n / 2]
                 : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

std::vector<SpanSummary>
summarize(const SpanLog &log)
{
    const std::vector<Span> &spans = log.spans();
    std::vector<std::int64_t> childNs(spans.size(), 0);
    for (const Span &s : spans)
        if (s.parent >= 0)
            childNs[static_cast<std::size_t>(s.parent)] +=
                s.endNs - s.startNs;

    struct Acc
    {
        std::vector<double> durUs;
        double selfMs = 0.0;
        std::uint64_t work = 0;
    };
    std::map<std::string, Acc> byName;
    for (std::size_t i = 0; i < spans.size(); ++i) {
        const Span &s = spans[i];
        Acc &a = byName[s.name];
        const std::int64_t dur = s.endNs - s.startNs;
        a.durUs.push_back(1e-3 * static_cast<double>(dur));
        a.selfMs += 1e-6 * static_cast<double>(dur - childNs[i]);
        a.work += s.work;
    }

    std::vector<SpanSummary> out;
    for (auto &[name, a] : byName) {
        std::sort(a.durUs.begin(), a.durUs.end());
        SpanSummary r;
        r.name = name;
        r.count = a.durUs.size();
        for (double d : a.durUs)
            r.totalMs += 1e-3 * d;
        r.selfMs = a.selfMs;
        r.p50Us = median(a.durUs);
        tailPercentile(a.durUs, r.tailPct, r.tailUs);
        r.work = a.work;
        out.push_back(std::move(r));
    }
    return out;
}

} // namespace visa::vbench
