/**
 * @file
 * visa-prof: reads a block-granular execution profile produced by
 * `visa-sim --profile-json` (or produces one itself, see below) and
 * reports
 *
 *  - the top-N hottest blocks with their disassembly (--top),
 *  - the block-to-block edge graph (--edges),
 *  - the per-sub-task WCET-vs-AET slack table with headroom
 *    histograms per DVS frequency (--slack), optionally reconciled
 *    against a `--stats-json` stats dump (--reconcile),
 *  - a per-block diff between two profiles (--diff), for comparing a
 *    fast run against a slow one,
 *  - a fault join (--faults): fault_inject / fault_detect /
 *    recovery_restart events from a trace JSONL (visa-fuzz --inject
 *    --trace-jsonl, or visa-sim under a restart policy) attributed to
 *    the profile's basic blocks, so injection coverage is reported
 *    per block.
 *
 * With --workload/--cpu instead of a profile file, the tool builds the
 * rig itself through SimBuilder, runs the program once under an
 * installed profiler, and reports (writing the profile with --out).
 */

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <fstream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "sim/builder.hh"
#include "sim/cli.hh"
#include "sim/json.hh"
#include "sim/logging.hh"
#include "sim/prof/prof.hh"
#include "verify/inject.hh"
#include "workloads/clab.hh"

using namespace visa;

namespace
{

std::uint64_t
num(const json::Value &v)
{
    if (v.type != json::Value::Type::Number)
        fatal("profile: expected a number");
    return static_cast<std::uint64_t>(v.number);
}

const json::Value &
loadProfile(json::Value &slot, const std::string &path)
{
    slot = json::parseFile(path);
    const json::Value *kind = slot.find("kind");
    if (!kind || kind->string != "visa-profile")
        fatal("'%s' is not a visa-profile document", path.c_str());
    return slot;
}

void
reportSummary(const json::Value &p)
{
    const json::Value &t = p.at("total");
    std::printf("profile: %" PRIu64 " instructions, %" PRIu64
                " block entries, %zu profiled blocks, %zu edges\n",
                num(t.at("insts")), num(t.at("block_entries")),
                p.at("blocks").array.size(), p.at("edges").array.size());
    const std::uint64_t attr = num(t.at("attributed_cycles"));
    const std::uint64_t unattr = num(t.at("unattributed_cycles"));
    if (attr || unattr)
        std::printf("cycles: %" PRIu64 " attributed to instructions, %"
                    PRIu64 " idle/DVS software\n", attr, unattr);
    if (num(t.at("checkpoints")))
        std::printf("checkpoints: %" PRIu64 " observations, %" PRIu64
                    " AET cycles total\n",
                    num(t.at("checkpoints")), num(t.at("aet_cycles_total")));
}

void
reportHotBlocks(const json::Value &p, int top)
{
    const auto &blocks = p.at("blocks").array;
    const json::Value &t = p.at("total");
    const double tot_insts =
        std::max<double>(1.0, static_cast<double>(num(t.at("insts"))));
    const double tot_cycles = std::max<double>(
        1.0, static_cast<double>(num(t.at("attributed_cycles"))));
    std::printf("\nhottest blocks (of %zu):\n", blocks.size());
    int shown = 0;
    for (const json::Value &b : blocks) {
        if (shown++ >= top)
            break;
        const std::uint64_t cycles = num(b.at("cycles"));
        const std::uint64_t insts = num(b.at("insts"));
        std::printf("  0x%08" PRIx64 "  %8" PRIu64 " entries  %10" PRIu64
                    " insts (%5.1f%%)",
                    num(b.at("pc")), num(b.at("entries")), insts,
                    100.0 * static_cast<double>(insts) / tot_insts);
        if (cycles)
            std::printf("  %10" PRIu64 " cycles (%5.1f%%)", cycles,
                        100.0 * static_cast<double>(cycles) / tot_cycles);
        std::printf("\n");
        for (const json::Value &d : b.at("disasm").array)
            std::printf("      %s\n", d.string.c_str());
    }
}

void
reportEdges(const json::Value &p)
{
    std::printf("\nedge graph (from -> to: count):\n");
    for (const json::Value &e : p.at("edges").array) {
        const json::Value &from = e.at("from");
        if (from.number < 0)
            std::printf("  %-12s", "(start)");
        else
            std::printf("  0x%08" PRIx64 "  ", num(from));
        std::printf("-> 0x%08" PRIx64 "  %10" PRIu64 "\n",
                    num(e.at("to")), num(e.at("count")));
    }
}

void
reportSlack(const json::Value &p)
{
    const auto &subs = p.at("slack").at("subtasks").array;
    if (subs.empty()) {
        std::printf("\nno checkpoint observations (free run, or the "
                    "program has no sub-task markers)\n");
        return;
    }
    std::printf("\nper-sub-task WCET vs AET (cycles, all observations):"
                "\n  %-8s %5s %12s %12s %12s %12s %9s\n",
                "subtask", "n", "aet_total", "wcet_total", "pet_total",
                "slack_tot", "headroom");
    std::uint64_t aet_total = 0;
    for (const json::Value &s : subs) {
        const std::uint64_t aet = num(s.at("aet_total"));
        const std::uint64_t wcet = num(s.at("wcet_total"));
        aet_total += aet;
        const double headroom =
            wcet > 0 ? 100.0 *
                           static_cast<double>(wcet > aet ? wcet - aet : 0) /
                           static_cast<double>(wcet)
                     : 0.0;
        std::printf("  %-8" PRIu64 " %5" PRIu64 " %12" PRIu64 " %12" PRIu64
                    " %12" PRIu64 " %12" PRIu64 "  %7.1f%%\n",
                    num(s.at("subtask")), num(s.at("n")), aet, wcet,
                    num(s.at("pet_total")), num(s.at("slack_total")),
                    headroom);
    }
    std::printf("  AET total across sub-tasks: %" PRIu64
                " cycles (profile total %" PRIu64 ")\n",
                aet_total, num(p.at("total").at("aet_cycles_total")));

    for (const json::Value &h : p.at("slack").at("headroom_hist").array) {
        std::printf("  headroom at %" PRIu64 " MHz (10%% buckets, "
                    "overruns %" PRIu64 "):",
                    num(h.at("freq")), num(h.at("overruns")));
        for (const json::Value &b : h.at("buckets_pct10").array)
            std::printf(" %" PRIu64, num(b));
        std::printf("\n");
    }

    const auto &attr = p.at("wcet_attribution").array;
    if (!attr.empty()) {
        std::printf("\nbound-side attribution (analyzer worst-case path "
                    "at the top DVS setting):\n");
        for (const json::Value &a : attr) {
            std::printf("  subtask %" PRIu64 ": %" PRIu64 " cycles\n",
                        num(a.at("subtask")), num(a.at("cycles")));
            for (const json::Value &c : a.at("charges").array) {
                std::printf("    %-10s 0x%08" PRIx64 "  x%-8" PRIu64
                            " %10" PRIu64 " cycles\n",
                            c.at("kind").string.c_str(), num(c.at("pc")),
                            num(c.at("count")), num(c.at("cycles")));
            }
        }
    }
}

/**
 * Check the profile's AET totals against a stats JSON dump from the
 * same run (`visa-sim --stats-json`): the runtime's aet_cycles_total
 * counter must match the profile's exactly.
 */
int
reconcile(const json::Value &p, const std::string &stats_path)
{
    const json::Value stats = json::parseFile(stats_path);
    const json::Value *rt = stats.find("runtime");
    if (!rt)
        fatal("'%s' has no 'runtime' stats group", stats_path.c_str());
    const std::uint64_t stat_aet = num(rt->at("aet_cycles_total"));
    const std::uint64_t prof_aet =
        num(p.at("total").at("aet_cycles_total"));
    if (stat_aet != prof_aet) {
        std::printf("RECONCILE FAIL: profile AET total %" PRIu64
                    " != runtime counter %" PRIu64 "\n",
                    prof_aet, stat_aet);
        return 1;
    }
    std::printf("reconciled: profile AET total == runtime counter (%"
                PRIu64 " cycles)\n", prof_aet);
    return 0;
}

struct BlockRow
{
    std::uint64_t entries = 0, insts = 0, cycles = 0;
};

std::map<std::uint64_t, BlockRow>
blockTable(const json::Value &p)
{
    std::map<std::uint64_t, BlockRow> out;
    for (const json::Value &b : p.at("blocks").array) {
        BlockRow r;
        r.entries = num(b.at("entries"));
        r.insts = num(b.at("insts"));
        r.cycles = num(b.at("cycles"));
        out[num(b.at("pc"))] = r;
    }
    return out;
}

void
reportDiff(const json::Value &a, const json::Value &b,
           const std::string &path_a, const std::string &path_b)
{
    const auto ta = blockTable(a);
    const auto tb = blockTable(b);
    std::printf("\nper-block diff (%s -> %s):\n  %-12s %12s %12s %12s\n",
                path_a.c_str(), path_b.c_str(), "pc", "d_entries",
                "d_insts", "d_cycles");
    std::vector<std::uint64_t> pcs;
    for (const auto &[pc, r] : ta)
        pcs.push_back(pc);
    for (const auto &[pc, r] : tb)
        if (!ta.count(pc))
            pcs.push_back(pc);
    std::sort(pcs.begin(), pcs.end());
    for (std::uint64_t pc : pcs) {
        const BlockRow ra = ta.count(pc) ? ta.at(pc) : BlockRow{};
        const BlockRow rb = tb.count(pc) ? tb.at(pc) : BlockRow{};
        if (ra.entries == rb.entries && ra.insts == rb.insts &&
            ra.cycles == rb.cycles)
            continue;
        std::printf("  0x%08" PRIx64 " %+12" PRId64 " %+12" PRId64
                    " %+12" PRId64 "\n",
                    pc,
                    static_cast<std::int64_t>(rb.entries) -
                        static_cast<std::int64_t>(ra.entries),
                    static_cast<std::int64_t>(rb.insts) -
                        static_cast<std::int64_t>(ra.insts),
                    static_cast<std::int64_t>(rb.cycles) -
                        static_cast<std::int64_t>(ra.cycles));
    }
}

/**
 * Join fault events from a trace JSONL against the profile's blocks:
 * each fault_inject lands in the basic block whose [pc, pc+4*words)
 * range contains the corrupted pc. Detections and restarts are global
 * (they carry no pc), so they are summarized underneath.
 */
void
reportFaultJoin(const json::Value &p, const std::string &trace_path)
{
    struct BlockFaults
    {
        std::uint64_t entries = 0;
        std::map<int, std::uint64_t> injectedByClass;
    };
    // block pc -> extent + profile entries
    std::map<std::uint64_t, std::pair<std::uint64_t, std::uint64_t>>
        extents;    // pc -> {end, entries}
    for (const json::Value &b : p.at("blocks").array)
        extents[num(b.at("pc"))] = {
            num(b.at("pc")) + 4 * num(b.at("words")),
            num(b.at("entries"))};

    std::map<std::uint64_t, BlockFaults> joined;
    std::uint64_t injected = 0, unattributed = 0, detections = 0,
                  restarts = 0;
    std::ifstream in(trace_path);
    if (!in)
        fatal("cannot open '%s'", trace_path.c_str());
    std::string line;
    while (std::getline(in, line)) {
        if (line.empty() || line.find("\"ev\"") == std::string::npos)
            continue;
        json::Value v = json::Parser(line).parse();
        const json::Value *ev = v.find("ev");
        if (!ev || ev->type != json::Value::Type::String)
            continue;
        if (ev->string == "fault_detect") {
            ++detections;
        } else if (ev->string == "recovery_restart") {
            ++restarts;
        } else if (ev->string == "fault_inject") {
            ++injected;
            const std::uint64_t pc = num(v.at("pc"));
            const int cls = static_cast<int>(num(v.at("class")));
            // largest block pc <= fault pc, then range check
            auto it = extents.upper_bound(pc);
            if (it == extents.begin() ||
                pc >= (--it)->second.first) {
                ++unattributed;
                continue;
            }
            BlockFaults &bf = joined[it->first];
            bf.entries = it->second.second;
            ++bf.injectedByClass[cls];
        }
    }
    std::printf("\nfault join (%s):\n", trace_path.c_str());
    if (!injected && !detections && !restarts) {
        std::printf("  no fault events in the trace\n");
        return;
    }
    std::printf("  %-12s %10s %10s  %s\n", "block", "entries",
                "injected", "classes");
    for (const auto &[pc, bf] : joined) {
        std::uint64_t total = 0;
        std::string classes;
        for (const auto &[cls, n] : bf.injectedByClass) {
            total += n;
            if (!classes.empty())
                classes += ", ";
            classes += verify::faultClassName(
                static_cast<verify::FaultClass>(cls));
        }
        std::printf("  0x%08" PRIx64 " %10" PRIu64 " %10" PRIu64 "  %s\n",
                    pc, bf.entries, total, classes.c_str());
    }
    if (unattributed)
        std::printf("  (%" PRIu64 " injection(s) outside profiled "
                    "blocks)\n", unattributed);
    std::printf("  %" PRIu64 " injected, %" PRIu64 " detected, %" PRIu64
                " restart(s)\n", injected, detections, restarts);
}

} // anonymous namespace

int
main(int argc, char **argv)
{
    CliParser cli("visa-prof", "profile.json",
                  "a visa-sim --profile-json document (or use "
                  "--workload to produce one)");
    std::string &top =
        cli.flag("--top", "N", "hottest blocks to show", "10");
    bool &do_edges = cli.boolFlag("--edges", "dump the edge graph");
    bool &do_slack =
        cli.boolFlag("--slack", "per-sub-task WCET-vs-AET slack table");
    std::string &diff_path =
        cli.flag("--diff", "FILE", "diff against a second profile");
    std::string &reconcile_path =
        cli.flag("--reconcile", "FILE",
                 "check AET totals against a --stats-json dump");
    std::string &faults_path =
        cli.flag("--faults", "FILE",
                 "join fault events from a trace JSONL to blocks");
    std::string &workload =
        cli.flag("--workload", "NAME",
                 "produce: run a built-in benchmark under a profiler");
    std::string &cpu_kind =
        cli.flag("--cpu", "simple|complex|simple-mode",
                 "produce: pipeline for the run", "simple");
    std::string &freq =
        cli.flag("--freq", "MHZ", "produce: core clock", "1000");
    std::string &cores = addCoresFlag(cli);
    std::string &out_path =
        cli.flag("--out", "FILE",
                 "produce: write the profile JSON here ('-' = stdout)");

    try {
        cli.parse(argc, argv);
        const int top_n = parseIntFlag("--top", top, 0);
        const std::string path = cli.positional();
        json::Value doc;

        if (!workload.empty()) {
            if (!path.empty())
                fatal("give either a profile file or --workload, "
                      "not both");
            CpuKind kind;
            if (cpu_kind == "simple")
                kind = CpuKind::Simple;
            else if (cpu_kind == "complex")
                kind = CpuKind::Complex;
            else if (cpu_kind == "simple-mode")
                kind = CpuKind::ComplexSimpleMode;
            else
                fatal("unknown --cpu '%s'", cpu_kind.c_str());
            // --cores N profiles core 0 of an N-core chip: the run
            // goes through the shared bus + L2, so hot blocks shift
            // with the contention model rather than the private rig.
            // Core 0 runs alone inside one bus epoch (Chip::runAlone).
            // With one core nothing is attached to the bus.
            auto chip = SimBuilder()
                            .workload(workload)
                            .cpu(kind)
                            .frequency(parseIntFlag<MHz>("--freq", freq, 1))
                            .cores(parseCoresFlag(cores))
                            .buildChip();
            prof::BlockProfiler profiler(chip->program());
            {
                prof::ScopedProfiler scope(profiler);
                if (chip->runAlone(0, 20'000'000'000ULL).reason !=
                    StopReason::Halted)
                    fatal("program did not halt");
            }
            std::ostringstream ss;
            profiler.writeJson(ss);
            if (!out_path.empty())
                withOutputStream(out_path, [&](std::ostream &os) {
                    os << ss.str();
                });
            doc = json::Parser(ss.str()).parse();
        } else {
            if (path.empty()) {
                cli.printUsage(stderr);
                return 2;
            }
            loadProfile(doc, path);
        }

        reportSummary(doc);
        if (!diff_path.empty()) {
            json::Value other;
            loadProfile(other, diff_path);
            reportDiff(doc, other, path.empty() ? "produced" : path,
                       diff_path);
            return 0;
        }
        reportHotBlocks(doc, top_n);
        if (do_edges)
            reportEdges(doc);
        if (do_slack)
            reportSlack(doc);
        if (!faults_path.empty())
            reportFaultJoin(doc, faults_path);
        if (!reconcile_path.empty())
            return reconcile(doc, reconcile_path);
    } catch (const FatalError &e) {
        std::fprintf(stderr, "error: %s\n", e.what());
        return 1;
    }
    return 0;
}
