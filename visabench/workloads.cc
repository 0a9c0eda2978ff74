#include "workloads.hh"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <sstream>

#include "core/freq_spec.hh"
#include "power/energy_model.hh"
#include "power/meter.hh"
#include "sim/builder.hh"
#include "sim/stats.hh"
#include "spans.hh"
#include "verify/lockstep.hh"
#include "verify/oracle.hh"
#include "verify/progen.hh"

namespace visa::vbench
{

void
Counters::fold(const void *data, std::size_t bytes)
{
    const auto *p = static_cast<const unsigned char *>(data);
    for (std::size_t i = 0; i < bytes; ++i) {
        digest ^= p[i];
        digest *= 0x100000001b3ULL;
    }
}

void
Counters::unit(bool ok, const std::string &what)
{
    ++units;
    fold(std::uint64_t{ok});
    if (ok)
        return;
    ++failed;
    if (failures.size() < 5)
        failures.push_back(what);
}

namespace
{

std::uint64_t
splitmix64(std::uint64_t x)
{
    x += 0x9e3779b97f4a7c15ULL;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    return x ^ (x >> 31);
}

/** Uniform in [0, 1), a pure function of (seed, a, b). */
double
uniform(std::uint64_t seed, std::uint64_t a, std::uint64_t b)
{
    const std::uint64_t x =
        splitmix64(splitmix64(splitmix64(seed) ^ a) + b);
    return static_cast<double>(x >> 11) * 0x1.0p-53;
}

int
scaled(int base, double scale)
{
    return std::max(1, static_cast<int>(std::lround(base * scale)));
}

void
foldDouble(Counters &c, double v)
{
    std::uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof bits);
    c.fold(bits);
}

void
foldStats(Counters &c, const StatSet &set)
{
    std::ostringstream os;
    set.dumpJson(os);
    c.fold(os.str());
}

/** Cache and block-cache counters of a machine at the end of a unit. */
void
absorbCore(Counters &c, Cpu &cpu, bool complex)
{
    if (complex) {
        c.complexCycles += cpu.activity().cycles;
        c.l1dAccesses += cpu.dcache().accesses();
        c.l1dMisses += cpu.dcache().misses();
        c.l1iAccesses += cpu.icache().accesses();
        c.l1iMisses += cpu.icache().misses();
    }
    const BlockCacheStats bc = cpu.execCore().blockCacheStats();
    c.blockHits += bc.blockHits;
    c.blocksDecoded += bc.blocksDecoded;
}

/** Fold the machine's and runtime's stats; read the restart pages. */
void
absorbRuntime(Counters &c, DvsRuntime &rt)
{
    StatSet set;
    rt.cpu().buildStats(set);
    rt.buildStats(set);
    foldStats(c, set);
    c.checkpointMisses +=
        static_cast<std::uint64_t>(rt.stats().checkpointMisses);
    c.restarts += static_cast<std::uint64_t>(rt.stats().restarts);
    c.restartPages +=
        set.group("runtime").scalar("restart_pages_total").value();
}

// ---------------------------------------------------------------- fig2

/**
 * The paper's Fig. 2 campaign: every kernel x {tight, one seeded
 * deadline in [tight, loose]} x {simple-fixed, VISA complex}, a fresh
 * rig and power meter (perfect gating) per arm.
 */
class Fig2Energy final : public BenchWorkload
{
  public:
    Fig2Energy(std::uint64_t seed, double scale)
        : seed_(seed), tasks_(scaled(15, scale))
    {
    }

    void
    setup() override
    {
        analysed_.clear();
        deadlines_.clear();
        const std::vector<std::string> &names = allWorkloadNames();
        for (std::size_t k = 0; k < names.size(); ++k) {
            analysed_.push_back(analyse(assembleKernel(names[k])));
            const Analysed &a = *analysed_.back();
            const double u = uniform(seed_, k, 0);
            deadlines_.push_back(
                {a.tightDeadline,
                 a.tightDeadline +
                     u * (a.looseDeadline - a.tightDeadline)});
        }
    }

    void
    round(Counters &c) override
    {
        for (std::size_t k = 0; k < analysed_.size(); ++k) {
            for (double deadline : deadlines_[k]) {
                const double simple =
                    runArm(*analysed_[k], deadline, false, c);
                const double visa =
                    runArm(*analysed_[k], deadline, true, c);
                c.energySavingsPct.push_back(100.0 *
                                             (1.0 - visa / simple));
            }
        }
    }

  private:
    /** Off-line PET seeding (power_arm.hh): profile at the frequency
     *  the solver would pick, so stalls are measured in its domain. */
    static void
    seedPets(const Analysed &a, DvsRuntime &rt, double deadline,
             const RuntimeConfig &cfg)
    {
        MHz probe = a.dvs.maxFreq();
        for (int it = 0; it < 3; ++it) {
            rt.pets().seed(profileComplexAets(
                a.wl.program, a.wl.numSubtasks, 1.03, probe));
            const FreqPair pair = solveVisaSpeculation(
                *a.wcet, rt.pets(), a.dvs, deadline, cfg.ovhdSeconds,
                cfg.dvsSoftwareCycles + cfg.drainBudgetCycles);
            if (!pair.feasible || pair.fSpec == probe)
                break;
            probe = pair.fSpec;
        }
    }

    /** Run one arm; @return its average power, watts. */
    double
    runArm(const Analysed &a, double deadline, bool complex, Counters &c)
    {
        SpanScope arm("bench.arm");
        const RuntimeConfig cfg = a.runtimeConfig(deadline);
        std::unique_ptr<Sim> sim;
        {
            SpanScope span("sim.builder.rig");
            sim = SimBuilder()
                      .program(a.wl.program)
                      .runtime(complex ? RuntimeKind::Visa
                                       : RuntimeKind::SimpleFixed,
                               *a.wcet, a.dvs, cfg)
                      .build();
        }
        DvsRuntime &rt = sim->runtime();
        if (complex) {
            SpanScope span("core.runtime.pet_seed");
            seedPets(a, rt, deadline, cfg);
        }
        PowerMeter meter(sim->cpu(),
                         complex ? complexEnergyModel()
                                 : simpleFixedEnergyModel(),
                         a.dvs, ClockGating::Perfect);
        rt.attachMeter(&meter);

        for (int t = 0; t < tasks_; ++t) {
            SpanScope unit("bench.unit");
            {
                SpanScope span("core.runtime.begin");
                rt.beginInstance();
            }
            {
                SpanScope span(complex ? "core.runtime.step.complex"
                                       : "core.runtime.step.simple");
                while (!rt.stepInstance(runawayCycles).completed) {
                }
                span.work(sim->cpu().retired());
            }
            TaskStats ts;
            {
                SpanScope span("core.runtime.finish");
                ts = rt.finishInstance();
            }
            c.instructions += ts.retired;
            c.fold(ts.retired);
            c.fold(std::uint64_t{ts.checksum});
            c.fold(std::uint64_t{ts.fSpec} << 32 | ts.fRec);
            foldDouble(c, ts.completionSeconds);
            c.minSlackFrac = std::min(
                c.minSlackFrac, (deadline - ts.completionSeconds) / deadline);
            if (complex) {
                c.complexRetired += ts.retired;
                c.branchMispredicts += sim->ooo().branchMispredicts();
                c.fSpecSum += ts.fSpec;
                ++c.fSpecCount;
            } else {
                c.fSimpleSum += ts.fSpec;
                ++c.fSimpleCount;
            }
            const bool ok = ts.deadlineMet && ts.checksumReported &&
                            ts.checksum == a.wl.expectedChecksum;
            c.unit(ok, "fig2_energy " + a.wl.name + " " +
                           (complex ? "visa" : "simple") + " task " +
                           std::to_string(t) +
                           (ts.deadlineMet ? ": bad or missing checksum"
                                           : ": deadline miss"));
        }
        c.instances += static_cast<std::uint64_t>(tasks_);
        absorbCore(c, sim->cpu(), complex);
        absorbRuntime(c, rt);
        const double watts = meter.averagePowerWatts();
        foldDouble(c, watts);
        return watts;
    }

    std::uint64_t seed_;
    int tasks_;
    std::vector<std::vector<double>> deadlines_;
};

// ----------------------------------------------------------- schedules

struct SchedSpec
{
    const char *taskSet;
    double util;
    int cores;
    PlacementPolicy placement;
    GovernorPolicy governor;
    RecoveryPolicy recovery;
    int forceMissEvery;
    int jobsPerTask;
    int schedules;    ///< per round at scale 1
};

/**
 * Repeated schedules of one task set, each with its own seeded release
 * phases (uniform in [0, T_i / 2)), through MultiTaskScheduler.
 */
class Schedules final : public BenchWorkload
{
  public:
    Schedules(const char *name, const SchedSpec &spec, std::uint64_t seed,
              double scale)
        : name_(name), spec_(spec), seed_(seed),
          schedules_(scaled(spec.schedules, scale))
    {
    }

    void
    setup() override
    {
        analysed_.clear();
        const std::vector<TaskSetMemberSpec> members =
            parseTaskSet(spec_.taskSet);
        for (const TaskSetMemberSpec &m : members)
            analysed_.push_back(analyse(assembleKernel(m.workload)));
        defs_ = taskSetDefs(members, analysed_, spec_.util);
        for (SchedTaskDef &d : defs_) {
            d.runtime.recoveryPolicy = spec_.recovery;
            d.forceMissEvery = spec_.forceMissEvery;
        }
        phases_.assign(static_cast<std::size_t>(schedules_), {});
        for (int s = 0; s < schedules_; ++s)
            for (std::size_t i = 0; i < defs_.size(); ++i)
                phases_[static_cast<std::size_t>(s)].push_back(
                    uniform(seed_, static_cast<std::uint64_t>(s), i) *
                    0.5 * defs_[i].periodSeconds);
    }

    void
    round(Counters &c) override
    {
        for (int s = 0; s < schedules_; ++s)
            runSchedule(static_cast<std::size_t>(s), c);
    }

  private:
    void
    runSchedule(std::size_t s, Counters &c)
    {
        SpanScope unit("bench.unit");
        SchedulerConfig cfg;
        cfg.governor = spec_.governor;
        cfg.cores = spec_.cores;
        cfg.placement = spec_.placement;
        MultiTaskScheduler sched(cfg);
        for (std::size_t i = 0; i < defs_.size(); ++i) {
            SchedTaskDef d = defs_[i];
            d.phaseSeconds = phases_[s][i];
            SpanScope span("core.sched.add_task");
            sched.addTask(d);
        }
        const std::string what =
            std::string(name_) + " schedule " + std::to_string(s);
        std::string rejected;
        {
            SpanScope span("core.sched.admission");
            rejected = sched.admissionError();
        }
        if (!rejected.empty()) {
            c.unit(false, what + ": admission rejected: " + rejected);
            return;
        }
        ScheduleOutcome out;
        std::uint64_t retired = 0;
        {
            SpanScope span("core.sched.run");
            out = sched.run(spec_.jobsPerTask);
            for (int t = 0; t < sched.numTasks(); ++t)
                retired += sched.taskStats(t).retired;
            span.work(retired);
        }
        c.instructions += retired;

        StatSet set;
        sched.buildStats(set);
        foldStats(c, set);
        int bad = 0;
        for (int t = 0; t < sched.numTasks(); ++t) {
            const SchedTaskStats &ts = sched.taskStats(t);
            bad += ts.badChecksums;
            c.minSlackFrac = std::min(
                c.minSlackFrac,
                ts.minSlackSeconds / sched.taskDef(t).periodSeconds);
            DvsRuntime &rt = sched.taskRuntime(t);
            const bool complex = sched.taskDef(t).complexMachine;
            if (complex)
                c.complexRetired += ts.retired;
            absorbCore(c, rt.cpu(), complex);
            absorbRuntime(c, rt);
        }
        c.instances += static_cast<std::uint64_t>(out.jobs);
        c.preemptions += static_cast<std::uint64_t>(out.preemptions);
        c.contextSwitches +=
            static_cast<std::uint64_t>(out.contextSwitches);
        c.freqChanges += static_cast<std::uint64_t>(out.freqChanges);
        if (spec_.cores > 1) {
            StatGroup &bus = set.group("sched.bus");
            c.busRequests += bus.scalar("requests").value();
            c.l2Hits += bus.scalar("l2_hits").value();
            c.bankWaitNs += bus.scalar("bank_wait_ns").value();
            c.mshrWaitNs += bus.scalar("mshr_wait_ns").value();
        }
        std::string why;
        if (out.deadlineMisses)
            why = ": " + std::to_string(out.deadlineMisses) +
                  " deadline misses";
        else if (bad)
            why = ": " + std::to_string(bad) + " bad checksums";
        c.unit(why.empty(), what + why);
    }

    const char *name_;
    SchedSpec spec_;
    std::uint64_t seed_;
    int schedules_;
    std::vector<SchedTaskDef> defs_;
    std::vector<std::vector<double>> phases_;
};

// ---------------------------------------------------------------- fuzz

/**
 * Differential verification of generated programs: every program is
 * lockstep-checked; every 8th also has an instrumented twin that set-up
 * analyses and the round runs through the timing oracle.
 */
class FuzzVerify final : public BenchWorkload
{
  public:
    FuzzVerify(std::uint64_t seed, double scale)
        : seed_(seed), programs_(scaled(2500, scale))
    {
    }

    void
    setup() override
    {
        analysed_.clear();
        instrumented_.clear();
        for (int i = 0; i < programs_; i += oracleEvery) {
            verify::GenParams params = genParams(i);
            params.instrument = true;
            params.allowCalls = false;
            verify::GeneratedProgram g;
            {
                SpanScope span("setup.assemble");
                g = verify::generate(programSeed(i), params);
            }
            Workload wl;
            wl.name = "progen-" + std::to_string(g.seed);
            wl.source = g.source;
            wl.program = g.program;
            wl.numSubtasks = params.subtasks;
            analysed_.push_back(analyse(std::move(wl)));
            instrumented_.push_back(std::move(g));
        }
    }

    void
    round(Counters &c) override
    {
        for (int i = 0; i < programs_; ++i) {
            SpanScope unit("bench.unit");
            verify::GeneratedProgram g;
            {
                SpanScope span("verify.progen");
                g = verify::generate(programSeed(i), genParams(i));
            }
            verify::LockstepResult r;
            {
                SpanScope span("verify.lockstep");
                r = verify::runLockstep(g.program);
                span.work(r.instructions);
            }
            c.instructions += r.instructions;
            c.programInstructions += r.instructions;
            ++c.programs;
            c.fold(r.instructions);
            c.fold(std::uint64_t{r.equivalent} | std::uint64_t{r.diverged}
                                                     << 1 |
                   std::uint64_t{r.timedOut} << 2);
            std::string why;
            if (!r.equivalent)
                why = r.diverged ? ": lockstep divergence"
                                 : ": lockstep timeout";
            if (i % oracleEvery == 0) {
                SpanScope span("verify.oracle");
                const verify::OracleResult o = verify::runTimingOracle(
                    instrumented_[static_cast<std::size_t>(
                        i / oracleEvery)]);
                c.fold(std::uint64_t{o.ok} |
                       static_cast<std::uint64_t>(o.subtasks) << 1);
                if (!o.ok && why.empty())
                    why = ": oracle: " + o.report;
            }
            c.unit(why.empty(), "fuzz_verify program " +
                                    std::to_string(i) + " (seed " +
                                    std::to_string(g.seed) + ")" + why);
        }
    }

  private:
    static constexpr int oracleEvery = 8;

    std::uint64_t
    programSeed(int i) const
    {
        return splitmix64(splitmix64(seed_) + static_cast<std::uint64_t>(i));
    }

    static verify::GenParams
    genParams(int i)
    {
        static const verify::GenProfile profiles[] = {
            verify::GenProfile::Alu, verify::GenProfile::Branch,
            verify::GenProfile::Memory, verify::GenProfile::Mixed};
        verify::GenParams p;
        p.profile = profiles[i % 4];
        return p;
    }

    std::uint64_t seed_;
    int programs_;
    std::vector<verify::GeneratedProgram> instrumented_;
};

const SchedSpec schedRecoverySpec = {
    "mixed", 0.85, 1, PlacementPolicy::Partitioned,
    GovernorPolicy::MaxRequest, RecoveryPolicy::Restart, 3, 4, 25};
const SchedSpec chipPedfSpec = {
    "clab6", 0.85, 4, PlacementPolicy::Partitioned,
    GovernorPolicy::PerTask, RecoveryPolicy::Resume, 0, 4, 15};
const SchedSpec chipGedfSpec = {
    "clab6", 0.85, 4, PlacementPolicy::Global,
    GovernorPolicy::PerTask, RecoveryPolicy::Resume, 0, 4, 15};

} // namespace

const std::vector<WorkloadInfo> &
workloadList()
{
    static const std::vector<WorkloadInfo> list = {
        {"fig2_energy",
         "the paper's Fig. 2 campaign: OOO core, caches, power meter and EQ "
         "4 solver do the work; scheduler, chip and verify layers stay idle",
         false},
        {"sched_recovery",
         "a watchdog restart every third job on one core: drain, snapshot "
         "restore and simple-mode reruns through the single-core scheduler",
         false},
        {"chip_pedf4",
         "partitioned EDF on 4 simulated cores and up to 4 host threads "
         "over the epoch-buffered bus: the only workload where host "
         "parallelism shows",
         true},
        {"chip_gedf4",
         "the same task set and jobs under global EDF: the serial "
         "multi-core engine and the synchronous bus on one host thread",
         false},
        {"fuzz_verify",
         "2500 tiny generated programs a round: generation, assembly, "
         "lockstep and the timing oracle dominate; the OOO steady state "
         "barely runs",
         false},
    };
    return list;
}

std::unique_ptr<BenchWorkload>
makeBenchWorkload(const std::string &name, std::uint64_t seed,
                  double scale)
{
    if (name == "fig2_energy")
        return std::make_unique<Fig2Energy>(seed, scale);
    if (name == "sched_recovery")
        return std::make_unique<Schedules>("sched_recovery",
                                           schedRecoverySpec, seed, scale);
    if (name == "chip_pedf4")
        return std::make_unique<Schedules>("chip_pedf4", chipPedfSpec,
                                           seed, scale);
    if (name == "chip_gedf4")
        return std::make_unique<Schedules>("chip_gedf4", chipGedfSpec,
                                           seed, scale);
    if (name == "fuzz_verify")
        return std::make_unique<FuzzVerify>(seed, scale);
    return nullptr;
}

} // namespace visa::vbench
