#include "common/fit_search.h"

#include "core/soc.h"

namespace beethoven
{

unsigned
maxCoresThatFit(
    const std::function<AcceleratorSystemConfig(unsigned)> &make_config,
    const Platform &platform, unsigned limit)
{
    auto fits = [&](unsigned n) {
        try {
            AcceleratorSoc soc(AcceleratorConfig(make_config(n)), platform);
            return true;
        } catch (const ConfigError &) {
            return false;
        }
    };
    if (!fits(1))
        return 0;
    unsigned lo = 1, hi = limit;
    while (lo < hi) {
        const unsigned mid = (lo + hi + 1) / 2;
        if (fits(mid))
            lo = mid;
        else
            hi = mid - 1;
    }
    return lo;
}

} // namespace beethoven
