#include "sim/logging.hh"

#include <cstdarg>
#include <vector>

namespace visa
{

namespace
{

std::string
vformat(const char *fmt, va_list ap)
{
    va_list ap2;
    va_copy(ap2, ap);
    int n = std::vsnprintf(nullptr, 0, fmt, ap);
    std::vector<char> buf(static_cast<size_t>(n) + 1);
    std::vsnprintf(buf.data(), buf.size(), fmt, ap2);
    va_end(ap2);
    return std::string(buf.data(), static_cast<size_t>(n));
}

} // anonymous namespace

void
panic(const char *fmt, ...)
{
    va_list ap;
    va_start(ap, fmt);
    std::string msg = vformat(fmt, ap);
    va_end(ap);
    std::fprintf(stderr, "panic: %s\n", msg.c_str());
    throw PanicError(msg);
}

void
fatal(const char *fmt, ...)
{
    va_list ap;
    va_start(ap, fmt);
    std::string msg = vformat(fmt, ap);
    va_end(ap);
    std::fprintf(stderr, "fatal: %s\n", msg.c_str());
    throw FatalError(msg);
}

void
warn(const char *fmt, ...)
{
    va_list ap;
    va_start(ap, fmt);
    std::string msg = vformat(fmt, ap);
    va_end(ap);
    std::fprintf(stderr, "warn: %s\n", msg.c_str());
}

std::string
strprintf(const char *fmt, ...)
{
    va_list ap;
    va_start(ap, fmt);
    std::string out = vformat(fmt, ap);
    va_end(ap);
    return out;
}

bool Debug::anyEnabled_ = false;

const std::vector<Debug::FlagInfo> &
Debug::knownFlags()
{
    static const std::vector<FlagInfo> known = {
        {"Exec", "per-instruction execution trace (simple pipeline)"},
        {"Fetch", "fetch-stage events (reserved; no sites yet)"},
        {"Mode", "complex<->simple mode reconfigurations"},
        {"Runtime", "run-time system decisions and recoveries"},
        {"Watchdog", "watchdog expiries (missed checkpoints)"},
    };
    return known;
}

bool
Debug::isKnown(std::string_view flag)
{
    for (const FlagInfo &f : knownFlags())
        if (flag == f.name)
            return true;
    return false;
}

std::set<std::string, std::less<>> &
Debug::flags()
{
    static std::set<std::string, std::less<>> theFlags;
    return theFlags;
}

void
Debug::enable(const std::string &flag)
{
    flags().insert(flag);
    anyEnabled_ = true;
}

void
Debug::disable(const std::string &flag)
{
    flags().erase(flag);
    anyEnabled_ = !flags().empty();
}

bool
Debug::lookup(std::string_view flag)
{
    return flags().count(flag) > 0;
}

} // namespace visa
