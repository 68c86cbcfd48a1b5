/**
 * @file
 * How many cores of one system fit a platform: the benches size their
 * designs by asking elaboration (placement, the 80 % spill rule and the
 * final fit check) rather than a formula.
 */

#ifndef BEETHOVEN_BENCH_COMMON_FIT_SEARCH_H
#define BEETHOVEN_BENCH_COMMON_FIT_SEARCH_H

#include <functional>

#include "core/config.h"
#include "platform/platform.h"

namespace beethoven
{

/**
 * The most cores, at most @p limit, for which @p make_config(n)
 * elaborates on @p platform; 0 when even one core does not fit. A
 * binary search: it assumes that a design which fits with n cores also
 * fits with fewer.
 */
unsigned maxCoresThatFit(
    const std::function<AcceleratorSystemConfig(unsigned)> &make_config,
    const Platform &platform, unsigned limit);

} // namespace beethoven

#endif // BEETHOVEN_BENCH_COMMON_FIT_SEARCH_H
