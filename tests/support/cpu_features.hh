/**
 * @file
 * What the CPU running a test can execute, asked of the CPU itself
 * rather than of the walk's own dispatch (walk::nativeLaneWidth), so
 * a dispatch that stops picking a width it should fails a test
 * instead of skipping it.
 */

#ifndef PIPEDEPTH_TESTS_SUPPORT_CPU_FEATURES_HH
#define PIPEDEPTH_TESTS_SUPPORT_CPU_FEATURES_HH

#include <cstddef>

namespace pipedepth
{

/** Whether this CPU runs the walk's lane groups @p lane_width wide:
 *  width 1 everywhere; on x86-64, width 4 with AVX2 and width 8 with
 *  AVX-512F. */
inline bool
cpuRunsLaneWidth(std::size_t lane_width)
{
    if (lane_width == 1)
        return true;
#if defined(__x86_64__) && defined(__GNUC__)
    __builtin_cpu_init();
    if (lane_width == 4)
        return __builtin_cpu_supports("avx2");
    if (lane_width == 8)
        return __builtin_cpu_supports("avx512f");
#endif
    return false;
}

/** The instruction set a lane-group width needs, for skip messages. */
inline const char *
laneWidthIsa(std::size_t lane_width)
{
    return lane_width == 8 ? "AVX-512F" : "AVX2";
}

} // namespace pipedepth

#endif // PIPEDEPTH_TESTS_SUPPORT_CPU_FEATURES_HH
