/**
 * @file
 * Host-speed probe: a fixed piece of work that is independent of the
 * simulator, timed around every measured round.
 *
 * The benchmark runs on a few vCPUs of a shared host whose speed
 * drifts by tens of percent over minutes, as other tenants load the
 * cores. The probe churns small heap blocks through malloc/free: short,
 * branchy, pointer-heavy code, the kind a simulated cycle runs. On that
 * host its time tracked the simulator's round times much more closely
 * than a dependent floating-point chain or a pointer chase through a
 * large working set did, so the end-to-end times are scaled by it
 * (see perfbench/README.md, "Host-speed normalisation").
 *
 * The probe calls malloc directly, so the allocation counters that
 * count operator new see none of its work.
 */

#include <algorithm>
#include <cstdlib>

#include "bench.h"

namespace perfbench
{

namespace
{

constexpr unsigned kSlots = 256;
constexpr unsigned kChurns = 100'000;
constexpr unsigned kRepeats = 3;

/** One pass: kChurns frees and mallocs of 16..271-byte blocks. */
u64
churnNs()
{
    void *live[kSlots] = {};
    u64 x = 88172645463325252ULL; // xorshift64, the same every pass
    const u64 t0 = nowNs();
    for (unsigned i = 0; i < kChurns; ++i) {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        const unsigned slot = static_cast<unsigned>(x % kSlots);
        std::free(live[slot]);
        live[slot] = std::malloc(16 + (x >> 56));
        if (live[slot] != nullptr)
            static_cast<unsigned char *>(live[slot])[0] = 1;
    }
    for (void *p : live)
        std::free(p);
    return nowNs() - t0;
}

} // namespace

u64
probeHostNs()
{
    u64 ns[kRepeats];
    for (u64 &n : ns)
        n = churnNs();
    std::sort(ns, ns + kRepeats);
    return ns[kRepeats / 2];
}

} // namespace perfbench
