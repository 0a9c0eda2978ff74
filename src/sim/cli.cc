#include "sim/cli.hh"

#include <charconv>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <sstream>

#include "sim/logging.hh"

namespace visa
{

CliParser::CliParser(std::string prog, std::string positional_name,
                     std::string positional_help)
    : prog_(std::move(prog)), posName_(std::move(positional_name)),
      posHelp_(std::move(positional_help))
{
}

CliParser::Flag *
CliParser::find(const std::string &name)
{
    for (Flag &f : flags_)
        if (f.name == name)
            return &f;
    return nullptr;
}

std::string &
CliParser::flag(const std::string &name, const std::string &value_name,
                const std::string &help, std::string def)
{
    if (find(name))
        fatal("CliParser: flag '%s' registered twice", name.c_str());
    Flag f;
    f.name = name;
    f.valueName = value_name;
    f.help = help;
    f.value = std::move(def);
    flags_.push_back(std::move(f));
    return flags_.back().value;
}

bool &
CliParser::boolFlag(const std::string &name, const std::string &help)
{
    if (find(name))
        fatal("CliParser: flag '%s' registered twice", name.c_str());
    Flag f;
    f.name = name;
    f.help = help;
    f.isBool = true;
    flags_.push_back(std::move(f));
    return flags_.back().boolValue;
}

void
CliParser::printUsage(std::FILE *out) const
{
    std::fprintf(out, "usage: %s [options]%s%s\n", prog_.c_str(),
                 posName_.empty() ? "" : " ",
                 posName_.c_str());
    if (!posName_.empty() && !posHelp_.empty())
        std::fprintf(out, "  %-26s %s\n", posName_.c_str(),
                     posHelp_.c_str());
    for (const Flag &f : flags_) {
        std::string left = f.name;
        if (!f.valueName.empty())
            left += " " + f.valueName;
        std::fprintf(out, "  %-26s %s", left.c_str(), f.help.c_str());
        if (!f.isBool && !f.value.empty())
            std::fprintf(out, " (default: %s)", f.value.c_str());
        std::fputc('\n', out);
    }
}

void
CliParser::parse(int argc, char **argv)
{
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--help" || arg == "-h") {
            printUsage(stdout);
            std::exit(0);
        }
        if (Flag *f = find(arg)) {
            if (f->isBool) {
                f->boolValue = true;
            } else {
                if (i + 1 >= argc)
                    fatal("missing value for %s", arg.c_str());
                f->value = argv[++i];
            }
            continue;
        }
        if (!arg.empty() && arg[0] == '-') {
            printUsage(stderr);
            fatal("unknown option '%s' (the flags above are the legal "
                  "set)",
                  arg.c_str());
        }
        if (posName_.empty()) {
            printUsage(stderr);
            fatal("unexpected argument '%s'", arg.c_str());
        }
        posValue_ = arg;
    }
}

template <typename Int>
Int
parseIntFlag(const std::string &flag, const std::string &value, Int lo,
             Int hi)
{
    Int v{};
    const char *end = value.data() + value.size();
    const auto [ptr, ec] = std::from_chars(value.data(), end, v);
    if (ec != std::errc() || ptr != end || v < lo || v > hi)
        fatal("%s must be an integer in [%s, %s], not '%s'", flag.c_str(),
              std::to_string(lo).c_str(), std::to_string(hi).c_str(),
              value.c_str());
    return v;
}

template int parseIntFlag<int>(const std::string &, const std::string &,
                               int, int);
template unsigned parseIntFlag<unsigned>(const std::string &,
                                         const std::string &, unsigned,
                                         unsigned);
template std::uint64_t
parseIntFlag<std::uint64_t>(const std::string &, const std::string &,
                            std::uint64_t, std::uint64_t);

double
parseDoubleFlag(const std::string &flag, const std::string &value)
{
    double v = 0.0;
    const char *end = value.data() + value.size();
    const auto [ptr, ec] = std::from_chars(value.data(), end, v);
    if (ec != std::errc() || ptr != end || !std::isfinite(v))
        fatal("%s must be a finite number, not '%s'", flag.c_str(),
              value.c_str());
    return v;
}

TraceFlags::TraceFlags(CliParser &cli)
    : trace_(&cli.flag("--trace", "FILE",
                       "Chrome trace-event JSON output")),
      jsonl_(&cli.flag("--trace-jsonl", "FILE",
                       "flat JSONL trace output")),
      events_(&cli.flag("--trace-events", "CAT[,CAT...]",
                        "trace category filter (all task checkpoint "
                        "mode dvs cpu mem sched)")),
      buffer_(&cli.flag("--trace-buffer", "N",
                        "trace ring capacity, events", "262144"))
{
}

bool
TraceFlags::requested() const
{
    return !trace_->empty() || !jsonl_->empty();
}

std::unique_ptr<Tracer>
TraceFlags::makeTracer() const
{
    // The ring is allocated up front at 48 bytes an event: 2^26 events
    // (3 GiB) is the most a run may ask for.
    const std::uint64_t events =
        parseIntFlag<std::uint64_t>("--trace-buffer", *buffer_, 1,
                                    std::uint64_t{1} << 26);
    if (!requested())
        return nullptr;
    auto tracer = std::make_unique<Tracer>(events);
    if (!events_->empty()) {
        std::uint32_t mask = 0;
        std::istringstream cats(*events_);
        std::string cat;
        while (std::getline(cats, cat, ',')) {
            std::uint32_t m = Tracer::maskFor(cat);
            if (m == 0)
                fatal("unknown trace event category '%s' (categories: "
                      "all task checkpoint mode dvs cpu mem sched)",
                      cat.c_str());
            mask |= m;
        }
        tracer->setKindMask(mask);
    }
    return tracer;
}

void
TraceFlags::writeOutputs(const Tracer &tracer) const
{
    if (!jsonl_->empty())
        withOutputStream(*jsonl_, [&](std::ostream &os) {
            tracer.writeJsonl(os);
        });
    if (!trace_->empty())
        withOutputStream(*trace_, [&](std::ostream &os) {
            tracer.writeChromeTrace(os);
        });
    if (tracer.dropped())
        warn("trace ring overflowed: %llu events dropped (raise "
             "--trace-buffer)",
             static_cast<unsigned long long>(tracer.dropped()));
}

std::string &
addStatsJsonFlag(CliParser &cli)
{
    return cli.flag("--stats-json", "FILE",
                    "hierarchical JSON statistics output ('-' = "
                    "stdout)");
}

std::string &
addThreadsFlag(CliParser &cli)
{
    return cli.flag("--threads", "N",
                    "worker threads for parallel campaigns (default: "
                    "VISA_THREADS or all cores)");
}

void
applyThreadsFlag(const std::string &value)
{
    if (value.empty())
        return;
    parseIntFlag("--threads", value, 1);
    // The pool latches the count on first use, so exporting the
    // documented knob keeps one mechanism for both spellings.
    setenv("VISA_THREADS", value.c_str(), 1);
}

std::string &
addCoresFlag(CliParser &cli)
{
    return cli.flag("--cores", "N",
                    "simulated chip width: cores in front of the shared "
                    "bus + L2 (default 1, the single-core rig)");
}

int
parseCoresFlag(const std::string &value)
{
    return value.empty() ? 1 : parseIntFlag("--cores", value, 1, 64);
}

std::string &
addAffinityFlag(CliParser &cli)
{
    return cli.flag("--affinity", "LIST",
                    "per-task core pins, e.g. 0,1,-1,0 (task index -> "
                    "core; -1 = scheduler places it)");
}

std::vector<int>
parseAffinityFlag(const std::string &value)
{
    std::vector<int> pins;
    if (value.empty())
        return pins;
    std::size_t pos = 0;
    for (;;) {
        std::size_t comma = value.find(',', pos);
        if (comma == std::string::npos)
            comma = value.size();
        const std::string item = value.substr(pos, comma - pos);
        if (item.empty())
            fatal("--affinity: empty entry in '%s'", value.c_str());
        // -1 leaves the task unpinned.
        pins.push_back(parseIntFlag("--affinity", item, -1));
        if (comma == value.size())
            break;
        pos = comma + 1;
    }
    return pins;
}

void
validateAffinity(const std::vector<int> &pins, int cores)
{
    // Fail at the CLI with the offending value, not deep inside chip
    // construction: every tool that accepts both flags calls this
    // right after parsing them.
    for (std::size_t i = 0; i < pins.size(); ++i)
        if (pins[i] >= cores)
            fatal("--affinity: task %d pinned to core %d of a %d-core "
                  "chip",
                  static_cast<int>(i), pins[i], cores);
}

bool &
addNoBlockCacheFlag(CliParser &cli)
{
    return cli.boolFlag("--no-block-cache",
                        "disable the functional core's basic-block "
                        "translation cache (slower; architecturally "
                        "identical)");
}

std::string &
addDebugFlag(CliParser &cli)
{
    return cli.flag("--debug", "help|FLAG[,FLAG...]",
                    "enable debug-trace flags ('help' lists them)");
}

namespace
{

void
listDebugFlags(std::FILE *out)
{
    std::fprintf(out, "debug flags (--debug flag[,flag...]):\n");
    for (const auto &f : Debug::knownFlags())
        std::fprintf(out, "  %-10s %s\n", f.name, f.desc);
}

} // anonymous namespace

void
applyDebugFlag(const std::string &value)
{
    if (value.empty())
        return;
    if (value == "help" || value == "list") {
        listDebugFlags(stdout);
        std::exit(0);
    }
    std::istringstream flags(value);
    std::string flag;
    while (std::getline(flags, flag, ',')) {
        if (!Debug::isKnown(flag)) {
            listDebugFlags(stderr);
            fatal("unknown debug flag '%s' (see the list above)",
                  flag.c_str());
        }
        Debug::enable(flag);
    }
}

void
withOutputStream(const std::string &path,
                 const std::function<void(std::ostream &)> &fn)
{
    if (path == "-") {
        fn(std::cout);
        return;
    }
    std::ofstream out(path);
    if (!out)
        fatal("cannot write '%s'", path.c_str());
    fn(out);
}

} // namespace visa
