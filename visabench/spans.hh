/**
 * @file
 * Host-time spans for visa-bench's traced run. The benchmark opens a
 * span around every public call it makes into a simulator layer; spans
 * nest on one thread, so each span's parent is the span that was open
 * when it started (a call's parent is the unit span it belongs to).
 * Spans are kept in memory and exported as Chrome trace-event JSON
 * when the run ends. With no log installed a SpanScope costs one
 * branch, so the untraced rounds run the same code.
 */

#ifndef VISA_BENCH_SPANS_HH
#define VISA_BENCH_SPANS_HH

#include <cstdint>
#include <ostream>
#include <string>
#include <vector>

namespace visa::vbench
{

struct Span
{
    const char *name = "";
    std::int64_t startNs = 0;
    std::int64_t endNs = 0;
    int parent = -1;            ///< enclosing span, -1 at top level
    std::uint64_t work = 0;     ///< simulated instructions inside, 0 = n/a
};

class SpanLog
{
  public:
    SpanLog();

    /** Open a span under the innermost open one; @return its id. */
    int open(const char *name);
    void close(int id, std::uint64_t work);

    const std::vector<Span> &spans() const { return spans_; }

    /** Chrome trace-event JSON ("X" events, microseconds). */
    void writeChromeTrace(std::ostream &os) const;

  private:
    std::vector<Span> spans_;
    std::vector<int> stack_;
    std::int64_t originNs_;
};

/** Install @p log as the span sink (nullptr turns tracing off). */
void setSpanLog(SpanLog *log);

/** RAII span on the installed log; no-op when none is installed. */
class SpanScope
{
  public:
    explicit SpanScope(const char *name);
    ~SpanScope();

    SpanScope(const SpanScope &) = delete;
    SpanScope &operator=(const SpanScope &) = delete;

    /** Attribute @p insts simulated instructions to this span. */
    void work(std::uint64_t insts) { work_ = insts; }

  private:
    SpanLog *log_;
    int id_ = -1;
    std::uint64_t work_ = 0;
};

/** Per-name summary of a span log. */
struct SpanSummary
{
    std::string name;
    std::size_t count = 0;
    double totalMs = 0.0;
    double selfMs = 0.0;        ///< total minus time covered by children
    double p50Us = 0.0;
    /** Highest whole percentile above the median with >= 10 calls
     *  beyond it (0 = too few calls). */
    int tailPct = 0;
    double tailUs = 0.0;
    std::uint64_t work = 0;
};

std::vector<SpanSummary> summarize(const SpanLog &log);

/** Median of @p values (copied; empty -> 0). */
double median(std::vector<double> values);

} // namespace visa::vbench

#endif // VISA_BENCH_SPANS_HH
