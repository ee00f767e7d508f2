/**
 * @file
 * Reach into NebulaChip for tests and benches without a public option:
 * run a programmed SNN through the shared layer walk even when its
 * topology has an SnnFastPlan, so the plan can be compared against
 * (and timed against) the walk on the same chip.
 */

#ifndef NEBULA_TESTING_CHIP_ACCESS_HPP
#define NEBULA_TESTING_CHIP_ACCESS_HPP

#include "arch/chip.hpp"

namespace nebula {
namespace testing {

struct ChipAccess
{
    /**
     * NebulaChip::runSnn with the plan set aside for this one run: the
     * generic walk (evaluateLayerBatch on a batch of one) evaluates
     * every weight layer. The plan and its bound buffers are untouched,
     * so the next plain runSnn() takes the plan again.
     */
    static SnnRunResult runSnnWalk(NebulaChip &chip, const Tensor &image,
                                   int timesteps, uint64_t encoder_seed)
    {
        const bool usable = chip.fastPlan_.usable;
        chip.fastPlan_.usable = false;
        SnnRunResult result = chip.runSnn(image, timesteps, encoder_seed);
        chip.fastPlan_.usable = usable;
        return result;
    }
};

} // namespace testing
} // namespace nebula

#endif // NEBULA_TESTING_CHIP_ACCESS_HPP
