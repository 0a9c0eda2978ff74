/**
 * @file
 * Minimal gem5-style logging: panic/fatal for bugs vs user errors,
 * warn for status, and compile-time-cheap debug tracing gated on
 * named flags.
 */

#ifndef VISA_SIM_LOGGING_HH
#define VISA_SIM_LOGGING_HH

#include <cstdio>
#include <cstdlib>
#include <set>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

namespace visa
{

/** Thrown by fatal(): the simulation cannot continue due to user error. */
class FatalError : public std::runtime_error
{
  public:
    explicit FatalError(const std::string &msg)
        : std::runtime_error(msg) {}
};

/** Thrown by panic(): an internal simulator bug was detected. */
class PanicError : public std::logic_error
{
  public:
    explicit PanicError(const std::string &msg)
        : std::logic_error(msg) {}
};

/**
 * Abort on an internal simulator bug. Use for conditions that should
 * never happen regardless of user input.
 */
[[noreturn]] void panic(const char *fmt, ...)
    __attribute__((format(printf, 1, 2)));

/**
 * Abort on a user-caused error (bad configuration, malformed assembly).
 */
[[noreturn]] void fatal(const char *fmt, ...)
    __attribute__((format(printf, 1, 2)));

/** Print a warning; does not stop the simulation. */
void warn(const char *fmt, ...) __attribute__((format(printf, 1, 2)));

/** printf into a string sized to fit (reports, error messages). */
std::string strprintf(const char *fmt, ...)
    __attribute__((format(printf, 1, 2)));

/** Runtime-selectable debug-trace flags ("Exec", "Watchdog", ...). */
class Debug
{
  public:
    /** A registered flag name with its one-line description. */
    struct FlagInfo
    {
        const char *name;
        const char *desc;
    };

    /**
     * Every flag the simulator's DPRINTF sites use, for `--debug help`
     * and typo rejection. Kept in logging.cc next to the definition of
     * enable(); adding a DPRINTF with a new flag means adding it here.
     */
    static const std::vector<FlagInfo> &knownFlags();

    /** @return true if @p flag is in knownFlags(). */
    static bool isKnown(std::string_view flag);

    /** Enable a named trace flag. */
    static void enable(const std::string &flag);
    /** Disable a named trace flag. */
    static void disable(const std::string &flag);

    /**
     * @return true if the named flag is enabled.
     *
     * enabled() sits on the per-instruction path of the simulators, so
     * the common no-tracing case must stay a single flag test: the set
     * lookup (and any std::string construction at the call site) only
     * happens once at least one flag has ever been enabled.
     */
    static bool
    enabled(std::string_view flag)
    {
        return anyEnabled_ && lookup(flag);
    }

  private:
    static bool lookup(std::string_view flag);
    static std::set<std::string, std::less<>> &flags();
    /** False until the first enable(); cleared when the set empties. */
    static bool anyEnabled_;
};

/** Emit a trace line if the named debug flag is enabled. */
#define DPRINTF(flag, ...)                                                  \
    do {                                                                    \
        if (::visa::Debug::enabled(flag)) {                                 \
            std::fprintf(stderr, "%s: ", flag);                             \
            std::fprintf(stderr, __VA_ARGS__);                              \
        }                                                                   \
    } while (0)

} // namespace visa

#endif // VISA_SIM_LOGGING_HH
