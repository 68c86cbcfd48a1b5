#include "perf/kpi.h"

#include <cstdio>
#include <cstring>

#if defined(__unix__) || defined(__APPLE__)
#include <sys/resource.h>
#define BEETHOVEN_HAVE_GETRUSAGE 1
#endif

#include "base/json.h"
#include "perf/host_profiler.h"

namespace beethoven
{

u64
peakRssKb()
{
    // Prefer VmHWM: it is the true high-water mark even after frees.
    if (std::FILE *f = std::fopen("/proc/self/status", "r")) {
        char line[256];
        u64 kb = 0;
        while (std::fgets(line, sizeof line, f) != nullptr) {
            if (std::strncmp(line, "VmHWM:", 6) == 0) {
                unsigned long long v = 0;
                if (std::sscanf(line + 6, "%llu", &v) == 1)
                    kb = v;
                break;
            }
        }
        std::fclose(f);
        if (kb != 0)
            return kb;
    }
#ifdef BEETHOVEN_HAVE_GETRUSAGE
    rusage ru{};
    if (getrusage(RUSAGE_SELF, &ru) == 0 && ru.ru_maxrss > 0) {
#ifdef __APPLE__
        return static_cast<u64>(ru.ru_maxrss) / 1024; // bytes on macOS
#else
        return static_cast<u64>(ru.ru_maxrss); // KiB on Linux
#endif
    }
#endif
    return 0;
}

void
writePerfJson(std::ostream &os, const std::string &bench, bool quick,
              u64 wall_ns, u64 cycles, u64 ticks,
              const HostProfiler *prof)
{
    const double wall_ms = static_cast<double>(wall_ns) / 1e6;
    const double secs = static_cast<double>(wall_ns) / 1e9;
    const double cps =
        secs > 0 ? static_cast<double>(cycles) / secs : 0.0;
    const double tps =
        secs > 0 ? static_cast<double>(ticks) / secs : 0.0;
    const AllocCounters alloc = allocCounters();

    os << "{\"schema\":\"beethoven-perf-2\"";
    os << ",\"bench\":" << jsonString(bench);
    os << ",\"quick\":" << (quick ? "true" : "false");
    os << ",\"wall_ms\":" << wall_ms;
    os << ",\"sim_cycles\":" << cycles;
    os << ",\"module_ticks\":" << ticks;
    os << ",\"cycles_per_sec\":" << cps;
    os << ",\"ticks_per_sec\":" << tps;
    os << ",\"peak_rss_kb\":" << peakRssKb();
    os << ",\"alloc\":{\"allocs\":" << alloc.allocs
       << ",\"frees\":" << alloc.frees << ",\"bytes\":" << alloc.bytes
       << "}";
    if (prof != nullptr) {
        os << ",\"host_profile\":";
        prof->writeJson(os);
    }
    os << "}\n";
}

} // namespace beethoven
