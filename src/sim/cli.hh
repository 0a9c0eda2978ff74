/**
 * @file
 * Unified command-line flag registry for the visa-* tools. Each tool
 * used to hand-roll its own argv loop, so shared flags (--trace,
 * --stats-json, --threads, --debug) drifted in spelling, defaults and
 * error behavior; CliParser centralizes registration, usage text, and
 * the unknown-flag error (which lists every registered flag), and the
 * helper classes below bundle the shared flag groups with their
 * post-parse application.
 */

#ifndef VISA_SIM_CLI_HH
#define VISA_SIM_CLI_HH

#include <cstdio>
#include <deque>
#include <functional>
#include <iosfwd>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "sim/trace.hh"

namespace visa
{

/**
 * A declarative argv parser. Register flags (each returns a stable
 * reference the caller reads after parse()), then parse():
 *
 *   CliParser cli("visa-tool");
 *   std::string &freq = cli.flag("--freq", "MHZ", "core clock", "1000");
 *   bool &verbose = cli.boolFlag("--verbose", "chatty output");
 *   cli.parse(argc, argv);
 *
 * parse() handles --help/-h (usage to stdout, exit 0) and rejects
 * unknown dash-arguments fatally after printing the full usage, so a
 * typo always shows the legal flag list.
 */
class CliParser
{
  public:
    /**
     * @param positional_name non-empty to accept one free argument
     *        (e.g. "program.s"); without it, free arguments are fatal.
     */
    explicit CliParser(std::string prog,
                       std::string positional_name = "",
                       std::string positional_help = "");

    /** Register a value flag; @return its value slot (stable). */
    std::string &flag(const std::string &name,
                      const std::string &value_name,
                      const std::string &help, std::string def = "");

    /** Register a boolean flag; @return its slot (stable). */
    bool &boolFlag(const std::string &name, const std::string &help);

    void parse(int argc, char **argv);

    void printUsage(std::FILE *out) const;

    /** The free argument ("" if absent). */
    const std::string &positional() const { return posValue_; }

  private:
    struct Flag
    {
        std::string name;
        std::string valueName;    ///< empty for boolean flags
        std::string help;
        std::string value;
        bool isBool = false;
        bool boolValue = false;
    };

    Flag *find(const std::string &name);

    std::string prog_;
    std::string posName_;
    std::string posHelp_;
    std::string posValue_;
    std::deque<Flag> flags_;    ///< deque: handed-out refs stay valid
};

/**
 * Parse @p value, given for the numeric flag @p flag, as a whole
 * decimal integer in [@p lo, @p hi]. Anything else is fatal, naming
 * the flag and the range: an empty value, a sign on an unsigned type,
 * a base prefix, trailing characters, or a value outside the range or
 * the type. Every integer-valued flag of the tools goes through here.
 * Instantiated for int, unsigned and std::uint64_t.
 */
template <typename Int>
Int parseIntFlag(const std::string &flag, const std::string &value,
                 Int lo = std::numeric_limits<Int>::min(),
                 Int hi = std::numeric_limits<Int>::max());

/**
 * Parse @p value, given for the numeric flag @p flag, as a whole finite
 * decimal number ("0.6", "1e-3"); fatal, naming the flag, on trailing
 * characters, an infinity or a NaN. Range checks stay with the
 * consumer that knows them (a deadline must be positive, say).
 */
double parseDoubleFlag(const std::string &flag, const std::string &value);

/**
 * The shared tracing flag group: --trace, --trace-jsonl,
 * --trace-events, --trace-buffer. Construct against the tool's parser
 * before parse(); afterwards makeTracer()/writeOutputs() implement the
 * standard record-then-export cycle.
 */
class TraceFlags
{
  public:
    explicit TraceFlags(CliParser &cli);

    /** True if any trace output was requested. */
    bool requested() const;

    /**
     * Build the tracer the flags describe (buffer size, category
     * mask), or nullptr when no output was requested. Fatal on a bad
     * --trace-buffer, requested or not, and on unknown categories.
     */
    std::unique_ptr<Tracer> makeTracer() const;

    /**
     * Write the requested outputs; call after uninstalling any
     * ScopedTracer. Warns if the ring dropped events.
     */
    void writeOutputs(const Tracer &tracer) const;

  private:
    std::string *trace_;
    std::string *jsonl_;
    std::string *events_;
    std::string *buffer_;
};

/** Register --stats-json; @return the path slot. */
std::string &addStatsJsonFlag(CliParser &cli);

/** Register --threads (worker count for parallel campaigns). */
std::string &addThreadsFlag(CliParser &cli);
/**
 * Apply a parsed --threads value by exporting VISA_THREADS; must run
 * before the first parallelFor (the pool latches the count once).
 * No-op on "".
 */
void applyThreadsFlag(const std::string &value);

/**
 * Register --no-block-cache; @return its slot. The flag disables the
 * functional core's basic-block translation cache process-wide. This
 * layer only registers it: after parse(), the tool applies a true
 * value with ExecCore::setBlockCacheDefault(false) before building any
 * rig (the CLI library sits below the CPU library and cannot call it).
 */
bool &addNoBlockCacheFlag(CliParser &cli);

/**
 * Register --cores (simulated chip width); @return its slot. Shared by
 * every tool that can build a multi-core chip (visa-sim, visa-fuzz,
 * visa-prof, bench-report) so the spelling and bounds cannot drift.
 */
std::string &addCoresFlag(CliParser &cli);
/** Parse a --cores value ("" = 1); fatal outside [1, 64]. */
int parseCoresFlag(const std::string &value);

/** Register --affinity (per-task core pins); @return its slot. */
std::string &addAffinityFlag(CliParser &cli);
/**
 * Parse an --affinity list "0,1,-1,0" (task index -> core id; -1 lets
 * the scheduler place the task). "" parses to an empty vector.
 */
std::vector<int> parseAffinityFlag(const std::string &value);
/**
 * Cross-check parsed --affinity pins against the parsed --cores count:
 * fatal (naming the task and the offending core id) if any pin
 * references a core the chip does not have.
 */
void validateAffinity(const std::vector<int> &pins, int cores);

/** Register --debug (help|flag[,flag...]). */
std::string &addDebugFlag(CliParser &cli);
/**
 * Apply a parsed --debug value: "help"/"list" prints the known flags
 * and exits 0; otherwise enables each named flag, fatally rejecting
 * unknown ones against the printed list. No-op on "".
 */
void applyDebugFlag(const std::string &value);

/** Open @p path for writing ("-" = stdout) and pass the stream on. */
void withOutputStream(const std::string &path,
                      const std::function<void(std::ostream &)> &fn);

} // namespace visa

#endif // VISA_SIM_CLI_HH
