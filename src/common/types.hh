/**
 * @file
 * Fundamental types shared across the Refrint simulator.
 *
 * The simulated chip runs at 1 GHz (Table 5.1), so one tick equals one
 * cycle equals one nanosecond.  All latencies in the paper are given in
 * nanoseconds, which keeps conversions trivial.
 */

#ifndef REFRINT_COMMON_TYPES_HH
#define REFRINT_COMMON_TYPES_HH

#include <cstdint>
#include <limits>

namespace refrint
{

/** Simulation time in cycles (1 cycle == 1 ns at the 1 GHz target). */
using Tick = std::uint64_t;

/** Physical byte address. */
using Addr = std::uint64_t;

/** Core (and tile) identifier, 0..15 on the evaluated 16-core CMP. */
using CoreId = std::uint32_t;

/** Sentinel for "no tick scheduled". */
inline constexpr Tick kTickNever = std::numeric_limits<Tick>::max();

/** Simulated clock frequency, cycles per second. */
inline constexpr std::uint64_t kTicksPerSecond = 1'000'000'000ULL;

/** Convert microseconds of wall time into ticks at 1 GHz. */
constexpr Tick
usToTicks(double us)
{
    return static_cast<Tick>(us * 1e3);
}

/** Convert ticks into seconds of simulated time. */
constexpr double
ticksToSeconds(Tick t)
{
    return static_cast<double>(t) / static_cast<double>(kTicksPerSecond);
}

/** Integer log2 for power-of-two values (used for address slicing). */
constexpr unsigned
floorLog2(std::uint64_t x)
{
    unsigned r = 0;
    while (x > 1) {
        x >>= 1;
        ++r;
    }
    return r;
}

/** True iff @p x is a power of two (and non-zero). */
constexpr bool
isPowerOfTwo(std::uint64_t x)
{
    return x != 0 && (x & (x - 1)) == 0;
}

} // namespace refrint

#endif // REFRINT_COMMON_TYPES_HH
