/**
 * @file
 * Branch-predictor structures on their own, off the pipeline.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <vector>

#include "cpu/bpred.hh"
#include "isa/program.hh"

namespace visa
{
namespace
{

TEST(Bpred, LazyIndirectTableAgreesWithAnEagerOne)
{
    // The predictor allocates its table on the first update(); the
    // reference below is the zero-filled table it used to allocate up
    // front, trained the same way.
    constexpr unsigned log2Entries = 16;
    IndirectPredictor lazy(log2Entries);
    std::vector<Addr> eager(std::size_t{1} << log2Entries, 0);
    auto slot = [&](Addr pc) -> Addr & {
        return eager[(pc >> 2) & ((1u << log2Entries) - 1)];
    };

    std::mt19937 rng(2003);
    for (int i = 0; i < 40000; ++i) {
        // pcs span four times the table, so entries alias.
        const Addr pc = defaultTextBase + 4 * (rng() % (4u << log2Entries));
        const Addr target = defaultTextBase + 4 * (rng() % 64);
        ASSERT_EQ(lazy.predict(pc), slot(pc)) << "step " << i;
        ASSERT_EQ(lazy.update(pc, target), slot(pc) == target)
            << "step " << i;
        slot(pc) = target;
        if (i % 10000 == 0) {
            lazy.flush();
            std::fill(eager.begin(), eager.end(), 0);
        }
    }
}

} // anonymous namespace
} // namespace visa
