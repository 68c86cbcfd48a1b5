#include "power/power_json.h"

#include <iomanip>

#include "base/json.h"
#include "base/log.h"

namespace beethoven
{

const PowerRunRecord *
PowerReport::find(const std::string &label) const
{
    for (const PowerRunRecord &r : runs)
        if (r.label == label)
            return &r;
    return nullptr;
}

double
PowerReport::totalJoules() const
{
    double j = 0.0;
    for (const PowerRunRecord &r : runs)
        if (!r.reference)
            j += r.joules;
    return j;
}

double
PowerReport::summaryAvgWatts() const
{
    double j = 0.0, s = 0.0;
    for (const PowerRunRecord &r : runs) {
        if (r.reference)
            continue;
        j += r.joules;
        s += r.seconds();
    }
    return s > 0.0 ? j / s : 0.0;
}

double
PowerReport::summaryEnergyPerOpUj() const
{
    double e = 0.0;
    for (const PowerRunRecord &r : runs)
        if (!r.reference && r.ops > 0.0)
            e = r.energyPerOpUj();
    return e;
}

void
writePowerReportJson(std::ostream &os, const PowerReport &report)
{
    // Full precision: the round-trip (write -> parse) must preserve
    // the conservation identities the tests assert on.
    os << std::setprecision(17);
    os << "{\"schema\":\"" << PowerReport::kSchema
       << "\",\"window_cycles\":" << report.windowCycles
       << ",\n\"summary\":{\"total_joules\":" << report.totalJoules()
       << ",\"avg_watts\":" << report.summaryAvgWatts();
    if (report.summaryEnergyPerOpUj() > 0.0)
        os << ",\"energy_per_op_uj\":" << report.summaryEnergyPerOpUj();
    os << "},\n\"runs\":[";
    bool first = true;
    for (const PowerRunRecord &r : report.runs) {
        if (!first)
            os << ",";
        first = false;
        os << "\n {\"label\":" << jsonString(r.label)
           << ",\"reference\":" << (r.reference ? "true" : "false");
        if (r.reference) {
            os << ",\"avg_watts\":" << r.avgWatts
               << ",\"ops_per_sec\":" << r.opsPerSec
               << ",\"energy_per_op_uj\":" << r.energyPerOpUj() << "}";
            continue;
        }
        os << ",\"clock_mhz\":" << r.clockMhz
           << ",\"cycles\":" << r.cycles << ",\"joules\":" << r.joules
           << ",\"avg_watts\":" << r.avgWatts
           << ",\"peak_watts\":" << r.peakWatts
           << ",\"static_watts\":" << r.staticWatts;
        if (r.ops > 0.0)
            os << ",\"ops\":" << r.ops
               << ",\"energy_per_op_uj\":" << r.energyPerOpUj();
        os << ",\"slr_watts\":[";
        for (std::size_t i = 0; i < r.slrWatts.size(); ++i)
            os << (i != 0 ? "," : "") << r.slrWatts[i];
        os << "],\"components\":[";
        bool cfirst = true;
        for (const PowerComponentRecord &c : r.components) {
            if (!cfirst)
                os << ",";
            cfirst = false;
            os << "\n  {\"name\":" << jsonString(c.name)
               << ",\"slr\":" << c.slr << ",\"joules\":" << c.joules
               << ",\"avg_watts\":" << c.avgWatts
               << ",\"peak_watts\":" << c.peakWatts << "}";
        }
        os << "]}";
    }
    os << "\n]}\n";
}

namespace
{

double
requireNumber(const JsonValue &obj, const char *key, const char *where)
{
    const JsonValue *v = obj.find(key);
    if (v == nullptr || !v->isNumber())
        fatal("power json: missing or non-numeric \"%s\" in %s", key,
              where);
    return v->number;
}

double
numberOr(const JsonValue &obj, const char *key, double fallback)
{
    const JsonValue *v = obj.find(key);
    return v != nullptr && v->isNumber() ? v->number : fallback;
}

} // namespace

PowerReport
parsePowerReport(const JsonValue &v)
{
    if (!v.isObject())
        fatal("power json: top level is not an object");
    const JsonValue *schema = v.find("schema");
    if (schema == nullptr || !schema->isString() ||
        schema->string != PowerReport::kSchema)
        fatal("power json: missing or unsupported schema marker "
              "(expected \"%s\")",
              PowerReport::kSchema);

    PowerReport report;
    report.windowCycles = numberOr(v, "window_cycles", 1024.0);

    const JsonValue *runs = v.find("runs");
    if (runs == nullptr || !runs->isArray())
        fatal("power json: missing \"runs\" array");
    for (const JsonValue &rv : runs->array) {
        if (!rv.isObject())
            fatal("power json: run entry is not an object");
        PowerRunRecord r;
        const JsonValue *label = rv.find("label");
        if (label == nullptr || !label->isString())
            fatal("power json: run entry without a string \"label\"");
        r.label = label->string;
        const char *where = r.label.c_str();
        if (const JsonValue *ref = rv.find("reference");
            ref != nullptr && ref->isBool())
            r.reference = ref->boolean;
        r.avgWatts = requireNumber(rv, "avg_watts", where);
        if (r.reference) {
            r.opsPerSec = requireNumber(rv, "ops_per_sec", where);
            report.runs.push_back(std::move(r));
            continue;
        }
        r.clockMhz = requireNumber(rv, "clock_mhz", where);
        r.cycles = requireNumber(rv, "cycles", where);
        r.joules = requireNumber(rv, "joules", where);
        r.peakWatts = requireNumber(rv, "peak_watts", where);
        r.staticWatts = requireNumber(rv, "static_watts", where);
        r.ops = numberOr(rv, "ops", 0.0);
        if (const JsonValue *sw = rv.find("slr_watts");
            sw != nullptr && sw->isArray()) {
            for (const JsonValue &s : sw->array)
                r.slrWatts.push_back(s.isNumber() ? s.number : 0.0);
        }
        if (const JsonValue *comps = rv.find("components");
            comps != nullptr && comps->isArray()) {
            for (const JsonValue &cv : comps->array) {
                if (!cv.isObject())
                    fatal("power json: component entry in %s is not an "
                          "object",
                          where);
                PowerComponentRecord c;
                const JsonValue *n = cv.find("name");
                if (n == nullptr || !n->isString())
                    fatal("power json: component without a name in %s",
                          where);
                c.name = n->string;
                c.slr =
                    static_cast<unsigned>(numberOr(cv, "slr", 0.0));
                c.joules = requireNumber(cv, "joules", where);
                c.avgWatts = requireNumber(cv, "avg_watts", where);
                c.peakWatts = numberOr(cv, "peak_watts", 0.0);
                r.components.push_back(std::move(c));
            }
        }
        report.runs.push_back(std::move(r));
    }
    return report;
}

} // namespace beethoven
