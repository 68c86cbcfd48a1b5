#include "trace/bottleneck.h"

#include <algorithm>
#include <iomanip>
#include <ostream>

#include "base/json.h"

namespace beethoven
{

u64
StallBreakdown::total() const
{
    u64 t = 0;
    for (u64 c : counts)
        t += c;
    return t;
}

u64
StallBreakdown::attributedStall() const
{
    u64 t = 0;
    for (std::size_t i = 0; i < kNumStallClasses; ++i) {
        const auto c = static_cast<StallClass>(i);
        if (c != StallClass::Busy && c != StallClass::Idle)
            t += counts[i];
    }
    return t;
}

namespace
{

/** Recursively collect groups that carry a "stall" sub-group. */
void
collectModules(const JsonValue &tree, const std::string &path,
               std::vector<StallBreakdown> &out)
{
    const JsonValue *groups = tree.find("groups");
    if (groups == nullptr || !groups->isObject())
        return;
    for (const auto &[name, child] : groups->object) {
        const std::string child_path =
            path.empty() ? name : path + "." + name;
        if (name == "stall") {
            const JsonValue *scalars = child.find("scalars");
            if (scalars == nullptr)
                continue;
            StallBreakdown b;
            b.module = path;
            for (std::size_t i = 0; i < kNumStallClasses; ++i) {
                const JsonValue *v = scalars->find(
                    stallClassName(static_cast<StallClass>(i)));
                if (v != nullptr && v->isNumber())
                    b.counts[i] = static_cast<u64>(v->number);
            }
            out.push_back(std::move(b));
            continue;
        }
        collectModules(child, child_path, out);
    }
}

void
rankModules(std::vector<StallBreakdown> &modules)
{
    std::stable_sort(
        modules.begin(), modules.end(),
        [](const StallBreakdown &a, const StallBreakdown &b) {
            const u64 ab = a.counts[size_t(StallClass::Busy)];
            const u64 bb = b.counts[size_t(StallClass::Busy)];
            if (ab != bb)
                return ab > bb;
            return a.attributedStall() > b.attributedStall();
        });
}

} // namespace

std::vector<RunStallReport>
analyzeStallStats(const JsonValue &root)
{
    std::vector<RunStallReport> runs;
    if (!root.isObject())
        return runs;
    for (const auto &[label, tree] : root.object) {
        RunStallReport run;
        run.label = label;
        const JsonValue *scalars = tree.find("scalars");
        if (scalars != nullptr) {
            const JsonValue *cycles = scalars->find("cycles");
            if (cycles != nullptr && cycles->isNumber())
                run.cycles = static_cast<u64>(cycles->number);
        }
        collectModules(tree, "", run.modules);
        rankModules(run.modules);
        runs.push_back(std::move(run));
    }
    return runs;
}

void
writeBottleneckTable(std::ostream &os,
                     const std::vector<RunStallReport> &runs,
                     std::size_t top_n)
{
    for (const RunStallReport &run : runs) {
        os << "=== " << run.label << " (" << run.cycles
           << " cycles) ===\n";
        if (run.modules.empty()) {
            os << "  (no stall-instrumented modules)\n";
            continue;
        }
        os << "  " << std::left << std::setw(40) << "module";
        for (std::size_t i = 0; i < kNumStallClasses; ++i) {
            os << std::right << std::setw(17)
               << stallClassName(static_cast<StallClass>(i));
        }
        os << std::right << std::setw(8) << "busy%" << "\n";
        std::size_t shown = 0;
        for (const StallBreakdown &m : run.modules) {
            if (top_n != 0 && shown++ >= top_n)
                break;
            os << "  " << std::left << std::setw(40) << m.module;
            for (u64 c : m.counts)
                os << std::right << std::setw(17) << c;
            const u64 total = m.total();
            const double pct =
                total == 0
                    ? 0.0
                    : 100.0 * double(m.counts[size_t(StallClass::Busy)]) /
                          double(total);
            os << std::right << std::setw(7) << std::fixed
               << std::setprecision(1) << pct << "%\n";
            os.unsetf(std::ios::fixed);
        }
        if (top_n != 0 && run.modules.size() > top_n) {
            os << "  ... " << (run.modules.size() - top_n)
               << " more modules\n";
        }
    }
}

void
writeBottleneckJson(std::ostream &os,
                    const std::vector<RunStallReport> &runs)
{
    os << "{\"runs\":[";
    bool first_run = true;
    for (const RunStallReport &run : runs) {
        if (!first_run)
            os << ",";
        first_run = false;
        os << "{\"label\":" << jsonString(run.label)
           << ",\"cycles\":" << run.cycles << ",\"modules\":[";
        bool first_mod = true;
        for (const StallBreakdown &m : run.modules) {
            if (!first_mod)
                os << ",";
            first_mod = false;
            os << "{\"module\":" << jsonString(m.module)
               << ",\"classes\":{";
            const u64 total = m.total();
            for (std::size_t i = 0; i < kNumStallClasses; ++i) {
                if (i != 0)
                    os << ",";
                os << jsonString(stallClassName(StallClass(i))) << ":"
                   << m.counts[i];
            }
            os << "},\"share\":{";
            for (std::size_t i = 0; i < kNumStallClasses; ++i) {
                if (i != 0)
                    os << ",";
                os << jsonString(stallClassName(StallClass(i))) << ":"
                   << (total == 0 ? 0.0
                                  : double(m.counts[i]) / double(total));
            }
            os << "}}";
        }
        os << "]}";
    }
    os << "]}\n";
}

} // namespace beethoven
