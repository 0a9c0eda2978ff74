/**
 * @file
 * Tests for the structured event tracer (sim/trace.hh) and the JSON
 * statistics export (StatSet): wire-format goldens, ring-buffer
 * wraparound, category masks, cycle-offset banking, pipeline and
 * runtime instrumentation, distribution range guards, and formula
 * finiteness.
 */

#include <gtest/gtest.h>

#include <limits>
#include <sstream>
#include <string>

#include "core/experiment.hh"
#include "core/runtime.hh"
#include "cpu/ooo_cpu.hh"
#include "cpu/simple_cpu.hh"
#include "isa/assembler.hh"
#include "sim/logging.hh"
#include "sim/stats.hh"
#include "sim/trace.hh"
#include "tests/test_util.hh"
#include "wcet/analyzer.hh"
#include "workloads/clab.hh"

namespace visa
{
namespace
{

// ---- wire format ----

TEST(TraceFormat, JsonlGoldenBytes)
{
    // The JSONL sink is a stable wire format: hand-recorded events
    // must serialize to these exact bytes (visa-trace and the golden
    // workload traces depend on it).
    Tracer t(8);
    t.record(EventKind::TaskBegin, 0, 3, 900, 700, 125e-6);
    t.record(EventKind::CheckpointHit, 1200, 2, 1100, 1250, 150.0);
    t.record(EventKind::FreqChange, 1300, 900, 700);
    t.record(EventKind::SimpleModeEnter, 1400);
    std::ostringstream os;
    t.writeJsonl(os);
    EXPECT_EQ(os.str(),
              "{\"schema\":3}\n"
              "{\"ev\":\"task_begin\",\"cat\":\"task\",\"cycle\":0,"
              "\"task\":3,\"fspec_mhz\":900,\"frec_mhz\":700,"
              "\"deadline_s\":0.000125}\n"
              "{\"ev\":\"checkpoint_hit\",\"cat\":\"checkpoint\","
              "\"cycle\":1200,\"subtask\":2,\"aet_cycles\":1100,"
              "\"pet_cycles\":1250,\"slack_cycles\":150}\n"
              "{\"ev\":\"freq_change\",\"cat\":\"dvs\",\"cycle\":1300,"
              "\"from_mhz\":900,\"to_mhz\":700}\n"
              "{\"ev\":\"simple_mode_enter\",\"cat\":\"mode\","
              "\"cycle\":1400}\n");
}

TEST(TraceFormat, NonFiniteDoubleArgsDumpAsZero)
{
    Tracer t(4);
    t.record(EventKind::TaskEnd, 10, 0, 1, 0,
             std::numeric_limits<double>::quiet_NaN());
    std::ostringstream os;
    t.writeJsonl(os);
    EXPECT_NE(os.str().find("\"completion_s\":0"), std::string::npos);
    EXPECT_EQ(os.str().find("nan"), std::string::npos);
}

TEST(TraceFormat, ChromeTraceStructure)
{
    Tracer t(16);
    t.record(EventKind::SimpleModeEnter, 100);
    t.record(EventKind::MshrOccupancy, 150, 3);
    t.record(EventKind::FreqChange, 180, 1000, 700);
    t.record(EventKind::SimpleModeExit, 200);
    std::ostringstream os;
    t.writeChromeTrace(os);
    const std::string out = os.str();
    // Top-level object leading with the schema version, then the
    // traceEvents array and track names.
    EXPECT_EQ(out.find("{\"schema\":3,\"traceEvents\":["), 0u);
    EXPECT_NE(out.find("\"thread_name\""), std::string::npos);
    // The simple mode renders as a B/E duration slice.
    EXPECT_NE(out.find("\"ph\":\"B\""), std::string::npos);
    EXPECT_NE(out.find("\"ph\":\"E\""), std::string::npos);
    // MSHR occupancy and the clock are counter tracks.
    EXPECT_NE(out.find("\"name\":\"mshr_outstanding\",\"ph\":\"C\""),
              std::string::npos);
    EXPECT_NE(out.find("\"name\":\"frequency_mhz\",\"ph\":\"C\""),
              std::string::npos);
    EXPECT_NE(out.find("\"dropped_events\":0"), std::string::npos);
}

TEST(TraceFormat, EventKindTableIsComplete)
{
    for (int k = 0; k < numEventKinds; ++k) {
        const EventKindInfo &info =
            eventKindInfo(static_cast<EventKind>(k));
        ASSERT_NE(info.name, nullptr) << k;
        ASSERT_NE(info.category, nullptr) << k;
        EXPECT_NE(Tracer::maskFor(info.category), 0u) << info.name;
    }
    EXPECT_EQ(Tracer::maskFor("all"), Tracer::allKinds());
    EXPECT_EQ(Tracer::maskFor("no-such-category"), 0u);
}

// ---- ring buffer ----

TEST(TraceRing, WraparoundKeepsNewestEvents)
{
    Tracer t(4);
    for (std::uint64_t i = 0; i < 10; ++i)
        t.record(EventKind::Retire, i, /*pc=*/4 * i, /*seq=*/i);
    EXPECT_EQ(t.capacity(), 4u);
    EXPECT_EQ(t.size(), 4u);
    EXPECT_EQ(t.dropped(), 6u);
    // Chronological order over the retained tail (seq 6..9).
    for (std::size_t i = 0; i < 4; ++i) {
        EXPECT_EQ(t.at(i).b, 6 + i);
        EXPECT_EQ(t.at(i).cycle, 6 + i);
    }
    t.clear();
    EXPECT_EQ(t.size(), 0u);
    EXPECT_EQ(t.dropped(), 0u);
    EXPECT_EQ(t.capacity(), 4u);
}

TEST(TraceRing, KindMaskFilters)
{
    Tracer t(16);
    t.setKindMask(Tracer::maskFor("mem"));
    t.record(EventKind::Retire, 1);
    t.record(EventKind::DcacheMiss, 2, 0x100);
    t.record(EventKind::TaskBegin, 3);
    ASSERT_EQ(t.size(), 1u);
    EXPECT_EQ(t.at(0).kind, EventKind::DcacheMiss);
}

TEST(TraceRing, CycleOffsetShiftsTimeline)
{
    Tracer t(8);
    t.record(EventKind::TaskBegin, 0);
    t.setCycleOffset(5000);
    t.record(EventKind::TaskBegin, 0);
    EXPECT_EQ(t.at(0).cycle, 0u);
    EXPECT_EQ(t.at(1).cycle, 5000u);
}

// ---- installation ----

TEST(TraceInstall, ScopedTracerInstallsAndRestores)
{
    EXPECT_EQ(currentTracer(), nullptr);
    Tracer t(8);
    {
        ScopedTracer scope(t);
        EXPECT_EQ(currentTracer(), &t);
        VISA_TRACE(EventKind::WatchdogFire, 42, 2);
    }
    EXPECT_EQ(currentTracer(), nullptr);
    VISA_TRACE(EventKind::WatchdogFire, 43, 3);    // no-op when empty
    ASSERT_EQ(t.size(), 1u);
    EXPECT_EQ(t.at(0).cycle, 42u);
    EXPECT_EQ(t.at(0).a, 2u);
}

// ---- pipeline instrumentation ----

TEST(TracePipelines, SimpleCpuEmitsRetires)
{
    Program prog = assemble("addi r1, r0, 5\n"
                            "addi r2, r0, 7\n"
                            "add  r3, r1, r2\n"
                            "halt\n");
    auto sim = SimBuilder().program(std::move(prog))
                   .cpu(CpuKind::Simple).build();
    Cpu &cpu = sim->cpu();
    Tracer t(1 << 12);
    {
        ScopedTracer scope(t);
        cpu.run();
    }
    std::size_t retires = 0, imisses = 0;
    for (std::size_t i = 0; i < t.size(); ++i) {
        if (t.at(i).kind == EventKind::Retire)
            ++retires;
        if (t.at(i).kind == EventKind::IcacheMiss)
            ++imisses;
    }
    EXPECT_EQ(retires, cpu.retired());
    EXPECT_EQ(imisses, cpu.icache().misses());
    // First retired instruction is the entry instruction.
    EXPECT_EQ(t.at(0).kind, EventKind::IcacheMiss);    // cold cache
}

TEST(TracePipelines, OooCpuEmitsFetchRetireAndMispredicts)
{
    auto sim = SimBuilder().workload("cnt")
                   .cpu(CpuKind::Complex).build();
    OooCpu &cpu = sim->ooo();
    Tracer t(1 << 22);
    {
        ScopedTracer scope(t);
        cpu.run();
    }
    ASSERT_EQ(t.dropped(), 0u);
    std::size_t fetches = 0, retires = 0, mispredicts = 0, squashes = 0;
    for (std::size_t i = 0; i < t.size(); ++i) {
        switch (t.at(i).kind) {
          case EventKind::Fetch: ++fetches; break;
          case EventKind::Retire: ++retires; break;
          case EventKind::BranchMispredict: ++mispredicts; break;
          case EventKind::Squash: ++squashes; break;
          default: break;
        }
    }
    EXPECT_EQ(retires, cpu.retired());
    EXPECT_EQ(fetches, cpu.retired());    // perfect squash: fetch==retire
    EXPECT_EQ(mispredicts, cpu.branchMispredicts());
    EXPECT_EQ(squashes, mispredicts);     // every mispredict resolves
}

TEST(TracePipelines, TracingDoesNotPerturbTiming)
{
    Workload wl = makeWorkload("srt");
    auto run_cycles = [&](bool traced) {
        auto sim = SimBuilder().program(wl.program)
                       .cpu(CpuKind::Complex).build();
        Tracer t(1 << 22);
        if (traced) {
            ScopedTracer scope(t);
            sim->cpu().run();
        } else {
            sim->cpu().run();
        }
        return sim->cpu().cycles();
    };
    EXPECT_EQ(run_cycles(false), run_cycles(true));
}

// ---- runtime instrumentation ----

TEST(TraceRuntime, VisaRunEmitsCheckpointAndDvsEvents)
{
    const KernelAnalysis a("cnt");
    const Workload &wl = a.wl;
    auto sim = SimBuilder()
                   .program(wl.program)
                   .runtime(RuntimeKind::Visa, a.wcet, a.dvs,
                            experimentRuntimeConfig(a.wcet.taskSeconds(650)))
                   .build();
    DvsRuntime &rt = sim->runtime();
    rt.pets().seed(profileComplexAets(wl.program, wl.numSubtasks));

    Tracer t(1 << 20);
    t.setKindMask(Tracer::maskFor("task") | Tracer::maskFor("checkpoint") |
                  Tracer::maskFor("dvs"));
    {
        ScopedTracer scope(t);
        for (int i = 0; i < 3; ++i)
            rt.runTask();
    }
    ASSERT_EQ(t.dropped(), 0u);

    std::size_t begins = 0, ends = 0, arms = 0, hits = 0, decisions = 0;
    Cycles last_cycle = 0;
    for (std::size_t i = 0; i < t.size(); ++i) {
        const TraceEvent &e = t.at(i);
        EXPECT_GE(e.cycle, last_cycle)
            << "timeline must stay monotonic across tasks (event " << i
            << ")";
        last_cycle = e.cycle;
        switch (e.kind) {
          case EventKind::TaskBegin: ++begins; break;
          case EventKind::TaskEnd: ++ends; break;
          case EventKind::CheckpointArm: ++arms; break;
          case EventKind::CheckpointHit: ++hits; break;
          case EventKind::FreqDecision: ++decisions; break;
          default: break;
        }
    }
    EXPECT_EQ(begins, 3u);
    EXPECT_EQ(ends, 3u);
    EXPECT_GE(decisions, 1u);
    // Speculating from task 0 (PETs were seeded from a profile), so
    // every task arms the watchdog and reports per-sub-task hits.
    EXPECT_EQ(arms, 3u);
    EXPECT_EQ(hits, 3u * static_cast<std::size_t>(wl.numSubtasks));
}

TEST(TraceRuntime, RuntimeStatsGroupExportsSlackDistribution)
{
    const KernelAnalysis a("cnt");
    const Workload &wl = a.wl;
    RuntimeConfig cfg;
    cfg.deadlineSeconds = a.wcet.taskSeconds(650);
    cfg.ovhdSeconds = experimentOvhdSeconds;
    auto sim = SimBuilder().program(wl.program)
                   .runtime(RuntimeKind::Visa, a.wcet, a.dvs, cfg).build();
    DvsRuntime &rt = sim->runtime();
    rt.pets().seed(profileComplexAets(wl.program, wl.numSubtasks));

    // Before any task: the miss-rate formula divides 0 by 0 and must
    // still dump as a finite 0 in both sinks.
    {
        StatSet set;
        rt.buildStats(set);
        std::ostringstream text, json;
        set.dump(text);
        set.dumpJson(json);
        EXPECT_NE(text.str().find("runtime.checkpoint_miss_rate 0"),
                  std::string::npos);
        EXPECT_EQ(json.str().find("nan"), std::string::npos);
        EXPECT_EQ(json.str().find("inf"), std::string::npos);
    }

    for (int i = 0; i < 2; ++i)
        rt.runTask();

    StatSet set;
    sim->cpu().buildStats(set);
    rt.buildStats(set);
    std::ostringstream text;
    set.dump(text);
    EXPECT_NE(text.str().find("runtime.tasks 2"), std::string::npos);
    EXPECT_NE(text.str().find("runtime.checkpoint_slack_cycles.samples"),
              std::string::npos);
    std::ostringstream json;
    set.dumpJson(json);
    EXPECT_NE(json.str().find("\"checkpoint_slack_cycles\""),
              std::string::npos);
    EXPECT_NE(json.str().find("\"buckets\""), std::string::npos);
}

// ---- stats guards and JSON export ----

TEST(StatsGuards, DistributionCountsUnderAndOverflow)
{
    StatGroup::Distribution d;
    d.init(100, 200, 10);
    d.sample(50);      // below range -> first bucket, underflow
    d.sample(100);     // in range
    d.sample(199);     // in range
    d.sample(200);     // at max -> overflow bucket
    d.sample(1'000'000'000ULL);    // far beyond -> overflow bucket
    EXPECT_EQ(d.samples(), 5u);
    EXPECT_EQ(d.underflows(), 1u);
    EXPECT_EQ(d.overflows(), 2u);
    EXPECT_EQ(d.buckets().front(), 2u);    // 50 (clamped) + 100
    EXPECT_EQ(d.buckets().back(), 2u);     // 200 + 1e9 (clamped)
    d.reset();
    EXPECT_EQ(d.underflows(), 0u);
    EXPECT_EQ(d.overflows(), 0u);
}

TEST(StatsGuards, FormulaZeroDenominatorDumpsZero)
{
    StatGroup g("g");
    g.formula("rate", [] { return 0.0 / 0.0; });
    g.formula("ratio", [] { return 1.0 / 0.0; });
    std::ostringstream os;
    g.dump(os);
    EXPECT_NE(os.str().find("g.rate 0"), std::string::npos);
    EXPECT_NE(os.str().find("g.ratio 0"), std::string::npos);
    EXPECT_EQ(os.str().find("nan"), std::string::npos);
    EXPECT_EQ(os.str().find("inf"), std::string::npos);

    std::ostringstream json;
    g.dumpJson(json);
    EXPECT_EQ(json.str().find("nan"), std::string::npos);
    EXPECT_EQ(json.str().find("inf"), std::string::npos);
}

TEST(StatsJson, HierarchicalExportNestsDottedGroups)
{
    StatSet set;
    set.group("cpu.core0").scalar("cycles").set(100);
    set.group("cpu.core1").scalar("cycles").set(200);
    set.group("runtime").scalar("tasks").set(7);
    std::ostringstream os;
    set.dumpJson(os);
    const std::string out = os.str();
    // "cpu" appears once as a parent with core0/core1 children.
    EXPECT_NE(out.find("\"cpu\""), std::string::npos);
    EXPECT_NE(out.find("\"core0\""), std::string::npos);
    EXPECT_NE(out.find("\"core1\""), std::string::npos);
    EXPECT_NE(out.find("\"runtime\""), std::string::npos);
    EXPECT_NE(out.find("\"tasks\": 7"), std::string::npos);
}

TEST(StatsJson, CpuJsonDumpIsWellFormedEnough)
{
    auto sim = SimBuilder().source("addi r1, r0, 1\nhalt\n")
                   .cpu(CpuKind::Simple).build();
    sim->cpu().run();
    std::ostringstream os;
    sim->cpu().dumpStatsJson(os);
    const std::string out = os.str();
    EXPECT_EQ(out.front(), '{');
    EXPECT_NE(out.find("\"simple\""), std::string::npos);
    EXPECT_NE(out.find("\"instructions\": "), std::string::npos);
    // Balanced braces (cheap well-formedness check; visa-trace's real
    // parser covers the trace formats).
    int depth = 0;
    bool in_string = false;
    for (char c : out) {
        if (c == '"')
            in_string = !in_string;
        else if (!in_string && c == '{')
            ++depth;
        else if (!in_string && c == '}')
            --depth;
    }
    EXPECT_EQ(depth, 0);
}

// ---- debug flag registry ----

TEST(DebugFlags, RegistryKnowsEveryUsedFlag)
{
    // Every DPRINTF site's flag must be registered, or --debug help
    // lies. (Grep-based: the known list is short.)
    for (const char *flag : {"Exec", "Mode", "Runtime", "Watchdog"})
        EXPECT_TRUE(Debug::isKnown(flag)) << flag;
    EXPECT_FALSE(Debug::isKnown("NoSuchFlag"));
    EXPECT_FALSE(Debug::knownFlags().empty());
}

} // anonymous namespace
} // namespace visa
