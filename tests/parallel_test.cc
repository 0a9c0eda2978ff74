/**
 * @file
 * Tests of the campaign thread pool (src/sim/parallel.hh): every index
 * runs exactly once, results land in input order, exceptions propagate
 * like serial execution, VISA_THREADS is honored, and nesting works.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <numeric>
#include <stdexcept>
#include <string>
#include <vector>

#include "sim/parallel.hh"
#include "tests/test_util.hh"

namespace visa
{
namespace
{

using test::ScopedThreads;

TEST(SimThreads, EnvOverrideAndClamp)
{
    {
        ScopedThreads env("3");
        EXPECT_EQ(simThreads(), 3u);
    }
    {
        ScopedThreads env("0");    // nonsense values clamp to 1
        EXPECT_EQ(simThreads(), 1u);
    }
    {
        ScopedThreads env(nullptr);
        EXPECT_GE(simThreads(), 1u);
    }
}

TEST(ParallelFor, EveryIndexRunsExactlyOnceInOrderSlots)
{
    for (const char *threads : {"1", "4"}) {
        ScopedThreads env(threads);
        const std::size_t n = 100;
        std::vector<int> out(n, -1);
        std::atomic<int> calls{0};
        parallelFor(n, [&](std::size_t i) {
            out[i] = static_cast<int>(i) * 3;
            ++calls;
        });
        EXPECT_EQ(calls.load(), static_cast<int>(n));
        for (std::size_t i = 0; i < n; ++i)
            EXPECT_EQ(out[i], static_cast<int>(i) * 3);
    }
}

TEST(ParallelFor, ZeroAndOneAreNoopAndInline)
{
    int ran = 0;
    parallelFor(0, [&](std::size_t) { ++ran; });
    EXPECT_EQ(ran, 0);
    parallelFor(1, [&](std::size_t i) {
        EXPECT_EQ(i, 0u);
        ++ran;
    });
    EXPECT_EQ(ran, 1);
}

TEST(ParallelFor, LowestIndexExceptionWins)
{
    for (const char *threads : {"1", "4"}) {
        ScopedThreads env(threads);
        std::atomic<int> completed{0};
        try {
            parallelFor(8, [&](std::size_t i) {
                if (i == 2)
                    throw std::runtime_error("arm 2");
                if (i == 5)
                    throw std::runtime_error("arm 5");
                ++completed;
            });
            FAIL() << "expected an exception";
        } catch (const std::runtime_error &e) {
            // Either mode reports the lowest-index failure, exactly as
            // a serial loop would surface it.
            EXPECT_STREQ(e.what(), "arm 2");
        }
        // Pooled arms all run to completion before the rethrow; the
        // serial fallback stops at the first throw, like any loop.
        if (std::string(threads) == "1")
            EXPECT_EQ(completed.load(), 2);
        else
            EXPECT_EQ(completed.load(), 6);
    }
}

TEST(ParallelFor, NestedCallsAreSafe)
{
    ScopedThreads env("2");
    std::atomic<int> total{0};
    parallelFor(3, [&](std::size_t) {
        parallelFor(4, [&](std::size_t) { ++total; });
    });
    EXPECT_EQ(total.load(), 12);
}

} // anonymous namespace
} // namespace visa
