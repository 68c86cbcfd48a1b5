/**
 * @file
 * CI helper: validate that files produced by the benches are
 * well-formed JSON, with optional structural requirements.
 *
 * Usage: json_check [options] file [[options] file ...]
 *
 * Options apply to the NEXT file argument:
 *   --require-categories=a,b,..  the file must be a Chrome trace with
 *                                at least one event in every listed
 *                                category (counter-only categories
 *                                like "noc" or "power" pass on any
 *                                event) and at least one
 *                                nonzero-duration span overall
 *   --require-key=KEY            some object in the file must contain
 *                                KEY (e.g. "p95" for stats exports)
 */

#include <cstdio>
#include <cstring>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "base/json.h"
#include "base/log.h"

using namespace beethoven;

namespace
{

bool
containsKey(const JsonValue &v, const std::string &key)
{
    if (v.isObject()) {
        for (const auto &[k, child] : v.object) {
            if (k == key || containsKey(child, key))
                return true;
        }
    } else if (v.isArray()) {
        for (const auto &child : v.array) {
            if (containsKey(child, key))
                return true;
        }
    }
    return false;
}

bool
checkCategories(const JsonValue &root, const std::string &csv,
                const std::string &path)
{
    const JsonValue *events = root.find("traceEvents");
    if (events == nullptr || !events->isArray()) {
        std::fprintf(stderr, "%s: no traceEvents array\n", path.c_str());
        return false;
    }
    std::set<std::string> seen; // any event
    bool any_span = false;      // a nonzero-duration span
    for (const JsonValue &e : events->array) {
        const JsonValue *cat = e.find("cat");
        if (cat == nullptr || !cat->isString())
            continue;
        seen.insert(cat->string);
        const JsonValue *ph = e.find("ph");
        const JsonValue *dur = e.find("dur");
        if (ph != nullptr && ph->isString() && ph->string == "X" &&
            dur != nullptr && dur->number > 0)
            any_span = true;
    }
    bool ok = true;
    std::stringstream ss(csv);
    std::string want;
    while (std::getline(ss, want, ',')) {
        if (want.empty() || seen.count(want))
            continue;
        std::fprintf(stderr, "%s: no events in category '%s'\n",
                     path.c_str(), want.c_str());
        ok = false;
    }
    if (ok && !any_span) {
        std::fprintf(stderr, "%s: no nonzero-duration spans at all\n",
                     path.c_str());
        ok = false;
    }
    return ok;
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc < 2) {
        std::fprintf(stderr,
                     "usage: json_check [--require-categories=a,b] "
                     "[--require-key=KEY] file ...\n");
        return 2;
    }
    std::string require_categories;
    std::string require_key;
    int failures = 0;
    int files = 0;
    for (int i = 1; i < argc; ++i) {
        const char *arg = argv[i];
        if (std::strncmp(arg, "--require-categories=", 21) == 0) {
            require_categories = arg + 21;
            continue;
        }
        if (std::strncmp(arg, "--require-key=", 14) == 0) {
            require_key = arg + 14;
            continue;
        }
        ++files;
        std::ifstream f(arg);
        if (!f) {
            std::fprintf(stderr, "%s: cannot open\n", arg);
            ++failures;
            continue;
        }
        std::stringstream buf;
        buf << f.rdbuf();
        try {
            const JsonValue root = parseJson(buf.str());
            bool ok = true;
            if (!require_categories.empty() &&
                !checkCategories(root, require_categories, arg))
                ok = false;
            if (!require_key.empty() && !containsKey(root, require_key)) {
                std::fprintf(stderr, "%s: key '%s' absent\n", arg,
                             require_key.c_str());
                ok = false;
            }
            if (ok)
                std::printf("%s: ok\n", arg);
            else
                ++failures;
        } catch (const ConfigError &e) {
            std::fprintf(stderr, "%s: %s\n", arg, e.what());
            ++failures;
        }
        require_categories.clear();
        require_key.clear();
    }
    if (files == 0) {
        std::fprintf(stderr, "json_check: no files given\n");
        return 2;
    }
    return failures == 0 ? 0 : 1;
}
