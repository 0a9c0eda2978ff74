/**
 * @file
 * visa-trace: reads a trace produced by `visa-sim --trace-jsonl` (flat
 * JSONL) or `visa-sim --trace` (Chrome trace-event JSON) and reports
 *
 *  - event counts per kind,
 *  - per-sub-task checkpoint slack (PET - AET detection margin),
 *  - a checkpoint-margin histogram (power-of-two buckets),
 *  - fault injection / recovery (per-class detections, latency,
 *    restart cost) when the trace carries the 'fault' category,
 *  - frequency residency (cycles spent at each operating point),
 *
 * or, with --validate, checks the file against the trace schema (known
 * event names, matching categories, required fields, numeric argument
 * types) and exits non-zero on any violation. The schema is the kind
 * table in sim/trace.cc — the validator and the emitter cannot drift
 * apart because both link the same table. Counter tracks ("C" phase
 * events, including the profiler's slack/AET sinks) are checked
 * against the known counter names; event or counter names this build
 * does not know are *listed as warnings* rather than failing or being
 * skipped silently, so newer files degrade loudly but gracefully.
 *
 * Older files — headerless schema 1, and schema 2 from before the
 * per-event core field — are rejected with a pointer at re-recording:
 * schema 3 is the only format visa-sim writes.
 */

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "sim/cli.hh"
#include "sim/json.hh"
#include "sim/logging.hh"
#include "sim/trace.hh"
#include "verify/inject.hh"

using namespace visa;

namespace
{

using JsonValue = json::Value;
using JsonParser = json::Parser;

// ---- schema ----

const EventKindInfo *
lookupKind(const std::string &name, EventKind *kind_out)
{
    for (int k = 0; k < numEventKinds; ++k) {
        const EventKindInfo &info =
            eventKindInfo(static_cast<EventKind>(k));
        if (name == info.name) {
            if (kind_out)
                *kind_out = static_cast<EventKind>(k);
            return &info;
        }
    }
    return nullptr;
}

int schemaErrors = 0;

/**
 * Non-fatal findings: unknown event kinds or counter names. Collected
 * and listed (deduplicated, with occurrence counts) instead of either
 * failing validation or vanishing silently.
 */
std::map<std::string, std::size_t> schemaWarnings;

void
schemaWarning(const std::string &what)
{
    ++schemaWarnings[what];
}

void
printWarnings()
{
    if (schemaWarnings.empty())
        return;
    std::size_t total = 0;
    for (const auto &[what, n] : schemaWarnings)
        total += n;
    std::printf("%zu warning(s):\n", total);
    for (const auto &[what, n] : schemaWarnings)
        std::printf("  %s (x%zu)\n", what.c_str(), n);
}

/**
 * Counter tracks this build's sinks emit: the tracer's Chrome export
 * (sim/trace.cc) and the profiler's counter sink (sim/prof/prof.cc).
 */
const std::set<std::string> knownCounters = {
    "mshr_outstanding",
    "frequency_mhz",
    "subtask_slack",
    "subtask_aet",
    "checkpoint_headroom_pct",
};

/**
 * Declared version of the file being read (0 until a header is seen).
 * Files lead with it (a `{"schema":N}` header line in JSONL, a root
 * "schema" key in Chrome traces). Only schema 3 is read: headerless
 * schema-1 files and schema-2 files (no per-event core field) are
 * rejected with a pointer at re-recording, and files newer than this
 * build's table are rejected rather than mis-validated.
 */
int fileSchemaVersion = 0;

void
noteSchemaVersion(double declared)
{
    fileSchemaVersion = static_cast<int>(declared);
    if (fileSchemaVersion > traceSchemaVersion)
        fatal("trace declares schema %d but this build understands "
              "up to %d",
              fileSchemaVersion, traceSchemaVersion);
    if (fileSchemaVersion < 3)
        fatal("trace declares schema %d: files older than schema 3 are "
              "no longer readable; re-record with a current visa-sim",
              fileSchemaVersion);
}

/** The v1 shim ("no header means schema 1") is gone: headerless files
 *  are rejected after the sniff instead of silently mis-read. */
void
requireSchemaHeader()
{
    if (fileSchemaVersion == 0)
        fatal("trace carries no schema header: schema-1 files are no "
              "longer readable (the v1 shim was removed); re-record "
              "with a current visa-sim");
}

void
schemaError(std::size_t where, const char *fmt, const std::string &arg)
{
    std::fprintf(stderr, "schema: event %zu: ", where);
    std::fprintf(stderr, fmt, arg.c_str());
    std::fputc('\n', stderr);
    ++schemaErrors;
}

/** One decoded event, normalized across the two input formats. */
struct DecodedEvent
{
    EventKind kind{};
    double cycle = 0.0;
    std::map<std::string, double> args;
};

/**
 * Validate one flat event object (JSONL line or Chrome "args"-carrying
 * instant event) against the kind table; append to @p out on success.
 */
void
decodeEvent(std::size_t index, const std::string &name,
            const std::string &cat, double cycle, const JsonValue *args,
            std::vector<DecodedEvent> &out)
{
    EventKind kind;
    const EventKindInfo *info = lookupKind(name, &kind);
    if (!info) {
        // Likely a kind from a newer build: degrade to a listed
        // warning so older validators don't reject newer traces.
        schemaWarning("unknown event kind '" + name + "'");
        return;
    }
    if (!cat.empty() && cat != info->category) {
        schemaError(index, "category mismatch for '%s'",
                    name + "' (got '" + cat);
        return;
    }
    DecodedEvent ev;
    ev.kind = kind;
    ev.cycle = cycle;
    for (int slot = 0; slot < 4; ++slot) {
        if (!info->args[slot])
            continue;
        if (!args) {
            schemaError(index, "missing args object for '%s'", name);
            return;
        }
        const JsonValue *v = args->find(info->args[slot]);
        if (!v || v->type != JsonValue::Type::Number) {
            schemaError(index, "missing/non-numeric argument '%s'",
                        std::string(info->args[slot]));
            return;
        }
        ev.args[info->args[slot]] = v->number;
    }
    out.push_back(std::move(ev));
}

std::vector<DecodedEvent>
loadJsonl(const std::string &text)
{
    std::vector<DecodedEvent> events;
    std::istringstream in(text);
    std::string line;
    std::size_t lineno = 0;
    while (std::getline(in, line)) {
        ++lineno;
        if (line.empty())
            continue;
        JsonValue v = JsonParser(line).parse();
        if (v.type != JsonValue::Type::Object) {
            schemaError(lineno, "line is not a JSON object%s", "");
            continue;
        }
        const JsonValue *schema = v.find("schema");
        if (schema && !v.find("ev")) {
            // The schema header line; v1 files simply don't have one.
            if (schema->type != JsonValue::Type::Number)
                schemaError(lineno, "non-numeric schema version%s", "");
            else
                noteSchemaVersion(schema->number);
            continue;
        }
        const JsonValue *ev = v.find("ev");
        const JsonValue *cat = v.find("cat");
        const JsonValue *cycle = v.find("cycle");
        if (!ev || ev->type != JsonValue::Type::String || !cat ||
            cat->type != JsonValue::Type::String || !cycle ||
            cycle->type != JsonValue::Type::Number) {
            schemaError(lineno, "missing ev/cat/cycle fields%s", "");
            continue;
        }
        // Schema 3: an optional per-event core id (multi-core traces;
        // single-core events omit it).
        const JsonValue *core = v.find("core");
        if (core && (core->type != JsonValue::Type::Number ||
                     core->number < 0)) {
            schemaError(lineno, "non-numeric/negative 'core' field%s",
                        "");
            continue;
        }
        // JSONL carries the arguments inline; the decoder looks them
        // up in the same object.
        decodeEvent(lineno, ev->string, cat->string, cycle->number, &v,
                    events);
    }
    return events;
}

std::vector<DecodedEvent>
loadChrome(const std::string &text)
{
    std::vector<DecodedEvent> events;
    JsonValue root = JsonParser(text).parse();
    const JsonValue *schema = root.find("schema");
    if (schema && schema->type == JsonValue::Type::Number)
        noteSchemaVersion(schema->number);
    const JsonValue *list = root.find("traceEvents");
    if (!list || list->type != JsonValue::Type::Array)
        fatal("Chrome trace has no traceEvents array");
    std::size_t index = 0;
    for (const JsonValue &e : list->array) {
        ++index;
        if (e.type != JsonValue::Type::Object) {
            schemaError(index, "traceEvents entry is not an object%s",
                        "");
            continue;
        }
        const JsonValue *ph = e.find("ph");
        const JsonValue *name = e.find("name");
        if (!ph || ph->type != JsonValue::Type::String || !name ||
            name->type != JsonValue::Type::String) {
            schemaError(index, "entry lacks ph/name%s", "");
            continue;
        }
        // Metadata events carry no schema'd payload.
        if (ph->string == "M")
            continue;
        // Counter tracks: known name, numeric ts, and a non-empty args
        // object whose values are all numbers (what the viewers plot).
        if (ph->string == "C") {
            if (!knownCounters.count(name->string)) {
                schemaWarning("unknown counter track '" + name->string +
                              "'");
                continue;
            }
            const JsonValue *ts = e.find("ts");
            if (!ts || ts->type != JsonValue::Type::Number) {
                schemaError(index, "counter '%s' lacks a numeric ts",
                            name->string);
                continue;
            }
            const JsonValue *args = e.find("args");
            if (!args || args->type != JsonValue::Type::Object ||
                args->object.empty()) {
                schemaError(index, "counter '%s' lacks an args object",
                            name->string);
                continue;
            }
            bool ok = true;
            for (const auto &[k, v] : args->object) {
                if (v.type != JsonValue::Type::Number) {
                    schemaError(index,
                                "counter '%s' has a non-numeric value",
                                name->string);
                    ok = false;
                    break;
                }
            }
            (void)ok;
            continue;
        }
        if (ph->string != "i" && ph->string != "B" &&
            ph->string != "E") {
            schemaWarning("unexpected phase '" + ph->string + "'");
            continue;
        }
        const JsonValue *ts = e.find("ts");
        if (!ts || ts->type != JsonValue::Type::Number) {
            schemaError(index, "entry lacks a numeric ts%s", "");
            continue;
        }
        const JsonValue *cat = e.find("cat");
        decodeEvent(index, name->string,
                    cat && cat->type == JsonValue::Type::String
                        ? cat->string
                        : "",
                    ts->number, e.find("args"), events);
    }
    return events;
}

// ---- reports ----

void
reportCounts(const std::vector<DecodedEvent> &events)
{
    std::map<std::string, std::size_t> counts;
    for (const DecodedEvent &e : events)
        ++counts[eventKindInfo(e.kind).name];
    std::printf("event counts (%zu total):\n", events.size());
    for (const auto &[name, n] : counts)
        std::printf("  %-20s %zu\n", name.c_str(), n);
}

void
reportSlack(const std::vector<DecodedEvent> &events)
{
    struct Agg
    {
        std::size_t n = 0;
        double sum = 0.0, min = 0.0, max = 0.0;
    };
    std::map<int, Agg> per_subtask;
    for (const DecodedEvent &e : events) {
        if (e.kind != EventKind::CheckpointHit)
            continue;
        double slack = e.args.at("slack_cycles");
        Agg &a = per_subtask[static_cast<int>(e.args.at("subtask"))];
        if (a.n == 0) {
            a.min = a.max = slack;
        } else {
            a.min = std::min(a.min, slack);
            a.max = std::max(a.max, slack);
        }
        ++a.n;
        a.sum += slack;
    }
    if (per_subtask.empty()) {
        std::printf("\nno checkpoint_hit events (watchdog not armed, or "
                    "the 'checkpoint' category was filtered out)\n");
        return;
    }
    std::printf("\nper-sub-task checkpoint slack (PET - AET, cycles):\n");
    std::printf("  %-8s %8s %12s %12s %12s\n", "subtask", "hits", "min",
                "mean", "max");
    for (const auto &[sub, a] : per_subtask)
        std::printf("  %-8d %8zu %12.0f %12.1f %12.0f\n", sub, a.n,
                    a.min, a.sum / static_cast<double>(a.n), a.max);
}

void
reportMarginHistogram(const std::vector<DecodedEvent> &events)
{
    // Power-of-two buckets keep the histogram readable across the wide
    // dynamic range slack can span.
    std::map<int, std::size_t> hist;
    std::size_t total = 0;
    for (const DecodedEvent &e : events) {
        if (e.kind != EventKind::CheckpointHit)
            continue;
        double slack = e.args.at("slack_cycles");
        int bucket = 0;
        while (slack >= (1u << bucket) && bucket < 31)
            ++bucket;
        ++hist[bucket];
        ++total;
    }
    if (!total)
        return;
    std::printf("\ncheckpoint-margin histogram:\n");
    for (const auto &[bucket, n] : hist) {
        unsigned lo = bucket ? 1u << (bucket - 1) : 0;
        std::printf("  [%10u, %10u) %8zu  %5.1f%%\n", lo, 1u << bucket,
                    n, 100.0 * static_cast<double>(n) /
                           static_cast<double>(total));
    }
}

void
reportFaults(const std::vector<DecodedEvent> &events)
{
    // Injection campaigns (visa-fuzz --inject) and restart recovery
    // emit the 'fault' category; join injections to detections and
    // summarize restart cost.
    struct Agg
    {
        std::size_t injected = 0;
        std::size_t byDetector[2] = {0, 0};    // watchdog, lockstep
        double latencySum = 0.0;
        double latencyMax = 0.0;
        std::size_t detections = 0;
    };
    std::map<int, Agg> per_class;
    std::size_t restarts = 0;
    double restore_sum = 0.0;
    for (const DecodedEvent &e : events) {
        if (e.kind == EventKind::FaultInject) {
            ++per_class[static_cast<int>(e.args.at("class"))].injected;
        } else if (e.kind == EventKind::FaultDetect) {
            Agg &a = per_class[static_cast<int>(e.args.at("class"))];
            const int det = static_cast<int>(e.args.at("detector"));
            if (det == 0 || det == 1)
                ++a.byDetector[det];
            const double lat = e.args.at("latency_cycles");
            a.latencySum += lat;
            a.latencyMax = std::max(a.latencyMax, lat);
            ++a.detections;
        } else if (e.kind == EventKind::RecoveryRestart) {
            ++restarts;
            restore_sum += e.args.at("restore_cycles");
        }
    }
    if (per_class.empty() && !restarts)
        return;    // not an injection trace; keep the report quiet
    std::printf("\nfault injection / recovery:\n");
    std::printf("  %-16s %8s %9s %9s %12s %12s\n", "class", "injected",
                "watchdog", "lockstep", "latency-avg", "latency-max");
    for (const auto &[cls, a] : per_class) {
        const char *name =
            cls >= 0 && cls < verify::numFaultClasses
                ? verify::faultClassName(
                      static_cast<verify::FaultClass>(cls))
                : "?";
        std::printf("  %-16s %8zu %9zu %9zu %12.0f %12.0f\n", name,
                    a.injected, a.byDetector[0], a.byDetector[1],
                    a.detections
                        ? a.latencySum /
                              static_cast<double>(a.detections)
                        : 0.0,
                    a.latencyMax);
    }
    if (restarts)
        std::printf("  restarts: %zu (restore %.0f cycles total, "
                    "%.0f avg)\n",
                    restarts, restore_sum,
                    restore_sum / static_cast<double>(restarts));
}

void
reportFrequencyResidency(const std::vector<DecodedEvent> &events)
{
    // Integrate cycles between successive freq_change events; the tail
    // (after the last change) runs to the last event of its segment.
    // A task_begin whose timestamp goes backwards marks a trace that
    // concatenates several runs (e.g. the visa-fuzz --inject demo
    // legs), each restarting at cycle 0: close the open interval at
    // the old segment's end instead of integrating a negative span.
    // Spans are also clamped at 0 because a few event kinds (squash)
    // are stamped with a future cycle, so file order is only
    // near-monotonic within one run.
    std::map<unsigned, double> cycles_at;
    double last_cycle = 0.0;
    unsigned current = 0;
    bool have_freq = false;
    bool any_freq = false;
    double seg_end = 0.0;
    double prev_cycle = 0.0;
    for (const DecodedEvent &e : events) {
        if (e.kind == EventKind::TaskBegin && e.cycle < prev_cycle) {
            if (have_freq)
                cycles_at[current] +=
                    std::max(0.0, seg_end - last_cycle);
            have_freq = false;
            last_cycle = 0.0;
            seg_end = 0.0;
        }
        prev_cycle = e.cycle;
        seg_end = std::max(seg_end, e.cycle);
        if (e.kind != EventKind::FreqChange)
            continue;
        if (have_freq)
            cycles_at[current] += std::max(0.0, e.cycle - last_cycle);
        current = static_cast<unsigned>(e.args.at("to_mhz"));
        last_cycle = e.cycle;
        have_freq = true;
        any_freq = true;
    }
    if (!any_freq) {
        std::printf("\nno freq_change events (single-frequency run, or "
                    "the 'dvs' category was filtered out)\n");
        return;
    }
    if (have_freq)
        cycles_at[current] += std::max(0.0, seg_end - last_cycle);
    double total = 0.0;
    for (const auto &[f, c] : cycles_at)
        total += c;
    std::printf("\nfrequency residency (cycles on the trace timeline):\n");
    for (const auto &[f, c] : cycles_at)
        std::printf("  %4u MHz %14.0f  %5.1f%%\n", f, c,
                    total > 0 ? 100.0 * c / total : 0.0);
}

} // anonymous namespace

int
main(int argc, char **argv)
{
    CliParser cli("visa-trace", "trace.{json,jsonl}",
                  "a visa-sim event trace (JSONL or Chrome "
                  "trace-event JSON)");
    bool &validate_only = cli.boolFlag(
        "--validate",
        "schema-check only; exit non-zero on any violation");

    std::string path;
    try {
        cli.parse(argc, argv);
        path = cli.positional();
        if (path.empty())
            fatal("no trace file given");
    } catch (const FatalError &e) {
        std::fprintf(stderr, "error: %s\n", e.what());
        return 2;
    }

    try {
        std::ifstream in(path);
        if (!in)
            fatal("cannot open '%s'", path.c_str());
        std::ostringstream ss;
        ss << in.rdbuf();
        std::string text = ss.str();

        // Chrome traces are one big object; JSONL starts with a
        // one-line object. Sniff for the traceEvents key.
        bool chrome =
            text.find("\"traceEvents\"") != std::string::npos &&
            text.find("\"traceEvents\"") < 64;
        std::vector<DecodedEvent> events =
            chrome ? loadChrome(text) : loadJsonl(text);
        requireSchemaHeader();

        if (schemaErrors) {
            printWarnings();
            std::fprintf(stderr, "%d schema violation(s) in '%s'\n",
                         schemaErrors, path.c_str());
            return 1;
        }
        if (validate_only) {
            printWarnings();
            std::printf("OK: %zu events, schema v%d clean (%s format, "
                        "%zu warning(s))\n",
                        events.size(), fileSchemaVersion,
                        chrome ? "chrome" : "jsonl",
                        schemaWarnings.size());
            return 0;
        }

        std::printf("%s: %s format, schema v%d\n", path.c_str(),
                    chrome ? "chrome trace-event" : "jsonl",
                    fileSchemaVersion);
        printWarnings();
        reportCounts(events);
        reportSlack(events);
        reportMarginHistogram(events);
        reportFaults(events);
        reportFrequencyResidency(events);
    } catch (const FatalError &e) {
        std::fprintf(stderr, "error: %s\n", e.what());
        return 1;
    }
    return 0;
}
