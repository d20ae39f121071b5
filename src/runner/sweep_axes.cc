#include "runner/sweep_axes.hh"

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <limits>
#include <ostream>
#include <sstream>
#include <type_traits>
#include <utility>

#include "fabric/fabric_config.hh"
#include "runner/json.hh"
#include "runner/reporter.hh"

namespace gals::runner
{

std::string
parseU64(const std::string &flag, const std::string &text,
         std::uint64_t &out)
{
    // strtoull silently wraps negatives ("-1" -> 2^64-1) and
    // saturates out-of-range values with only errno to show for it,
    // so reject a leading minus sign explicitly — skipping the same
    // whitespace set strtoull itself skips — and check ERANGE.
    const char *p = text.c_str();
    while (std::isspace(static_cast<unsigned char>(*p)))
        ++p;
    char *end = nullptr;
    errno = 0;
    const std::uint64_t v = std::strtoull(text.c_str(), &end, 10);
    if (*p == '-' || end == text.c_str() || *end != '\0' ||
        errno == ERANGE)
        return flag + " expects a non-negative number, got '" + text +
               "'";
    out = v;
    return "";
}

std::string
parseUnsigned(const std::string &flag, const std::string &text,
              unsigned &out)
{
    std::uint64_t v = 0;
    std::string err = parseU64(flag, text, v);
    if (err.empty() && v > std::numeric_limits<unsigned>::max())
        err = flag + " value " + text + " is out of range";
    out = static_cast<unsigned>(v);
    return err;
}

namespace
{

// -------------------------------------------------- list items

std::string
parseCore(const std::string &flag, const std::string &text,
          unsigned &out)
{
    std::string err = parseUnsigned(flag, text, out);
    if (err.empty() && out == 0)
        err = flag + " values must be >= 1, got '" + text + "'";
    return err;
}

std::string
parseTopology(const std::string &flag, const std::string &text,
              std::string &out)
{
    TopologyKind kind;
    out = text;
    return parseTopologyKind(text, kind)
               ? ""
               : flag + " expects 'ring' or 'mesh2d', got '" + text +
                     "'";
}

/** Syntax only: core counts are crossed in checkTraffics(). */
std::string
parseTraffic(const std::string &flag, const std::string &text,
             std::string &out)
{
    const std::string err = checkTrafficSpec(text);
    out = text;
    return err.empty() ? "" : flag + ": " + err;
}

template <typename T>
std::string
commaJoin(const std::vector<T> &xs)
{
    std::ostringstream os;
    for (std::size_t i = 0; i < xs.size(); ++i)
        os << (i ? "," : "") << xs[i];
    return os.str();
}

/** The items of a comma-joined value ("" has none). */
std::vector<std::string>
commaSplit(const std::string &value)
{
    std::vector<std::string> items;
    for (std::size_t pos = 0; pos < value.size();) {
        const std::size_t comma =
            std::min(value.find(',', pos), value.size());
        items.push_back(value.substr(pos, comma - pos));
        pos = comma + 1;
    }
    return items;
}

// -------------------------------------------------- codecs

/** A positive integer (0 is the "off" default). */
template <auto F>
constexpr AxisCodec
positive()
{
    return {
        [](const std::string &flag, const std::string &value,
           SweepOptions &o) {
            const std::string err = parseU64(flag, value, o.*F);
            return err.empty() && o.*F == 0 ? flag + " must be > 0"
                                            : err;
        },
        [](const char *flag, const SweepOptions &o,
           std::vector<std::string> &argv) {
            argv.insert(argv.end(), {flag, std::to_string(o.*F)});
        },
        AxisShape::number,
    };
}

/** A comma-separated list, each item checked by Item; a repeated
 *  flag replaces the list. */
template <auto F, auto Item>
constexpr AxisCodec
list()
{
    using T = typename std::remove_reference_t<
        decltype(std::declval<SweepOptions>().*F)>::value_type;
    return {
        [](const std::string &flag, const std::string &value,
           SweepOptions &o) -> std::string {
            const std::vector<std::string> items = commaSplit(value);
            (o.*F).clear();
            if (value.empty() || value.back() == ',' ||
                std::count(items.begin(), items.end(), ""))
                return flag + " expects comma-separated values, got '" +
                       value + "'";
            for (const std::string &item : items) {
                const std::string err =
                    Item(flag, item, (o.*F).emplace_back());
                if (!err.empty())
                    return err;
            }
            return "";
        },
        [](const char *flag, const SweepOptions &o,
           std::vector<std::string> &argv) {
            argv.insert(argv.end(), {flag, commaJoin(o.*F)});
        },
        std::is_same_v<T, std::string> ? AxisShape::stringList
                                       : AxisShape::numberList,
    };
}

/** --seed-list replaces the replica seeds; --seed / --seeds shape
 *  seed, seed+1, ...; the argv is always the explicit list. */
constexpr AxisCodec seedsCodec = {
    [](const std::string &flag, const std::string &value,
       SweepOptions &o) {
        if (flag == "--seed")
            return parseU64(flag, value, o.seed);
        if (flag == "--seed-list")
            return list<&SweepOptions::explicitSeeds, parseU64>().parse(
                flag, value, o);
        const std::string err = parseUnsigned(flag, value, o.seedReplicas);
        return err.empty() && o.seedReplicas == 0 ? flag + " must be > 0"
                                                  : err;
    },
    [](const char *flag, const SweepOptions &o,
       std::vector<std::string> &argv) {
        argv.insert(argv.end(), {flag, commaJoin(o.seedList())});
    },
    AxisShape::numberList,
};

/** Each --bench adds one benchmark. */
constexpr AxisCodec benchmarksCodec = {
    [](const std::string &, const std::string &value, SweepOptions &o) {
        o.benchmarks.push_back(value);
        return std::string();
    },
    [](const char *flag, const SweepOptions &o,
       std::vector<std::string> &argv) {
        for (const std::string &b : o.benchmarks)
            argv.insert(argv.end(), {flag, b});
    },
    AxisShape::stringPerFlag,
};

/** An existing directory. */
constexpr AxisCodec snapshotDirCodec = {
    [](const std::string &flag, const std::string &value,
       SweepOptions &o) {
        std::error_code ec;
        o.snapshotDir = value;
        return std::filesystem::is_directory(value, ec)
                   ? std::string()
                   : flag + " '" + value +
                         "' is not an existing directory";
    },
    [](const char *flag, const SweepOptions &o,
       std::vector<std::string> &argv) {
        argv.insert(argv.end(), {flag, o.snapshotDir});
    },
    AxisShape::stringList,
};

// -------------------------------------------------- cross-axis checks

/** A traffic spec referencing core K needs K < N for every fabric
 *  (multi-core) point N of --cores it is crossed with. */
std::string
checkTraffics(const SweepOptions &o)
{
    for (const std::string &spec : o.traffics)
        for (unsigned n : o.coreCounts) {
            std::vector<TrafficFlow> flows;
            const std::string err =
                n < 2 ? "" : parseTrafficPattern(spec, n, flows);
            if (!err.empty())
                return "--traffic '" + spec + "' with --cores " +
                       std::to_string(n) + ": " + err;
        }
    return "";
}

std::string
checkWarmup(const SweepOptions &o)
{
    const std::uint64_t w = o.warmupInstructions, n = o.instructions;
    return w == 0 || w < n ? ""
                           : "--warmup-insts (" + std::to_string(w) +
                                 ") must be < the instruction count (" +
                                 std::to_string(n) + ")";
}

// -------------------------------------------------- manifest values

/** The row's JSON value, built from its argv values. */
void
writeValue(std::ostream &os, const SweepAxis &row, const SweepOptions &o)
{
    const std::vector<std::string> argv = row.argv(o);
    const AxisShape shape = row.codec.shape;
    if (shape == AxisShape::number) {
        os << argv[1];
        return;
    }
    std::vector<std::string> items; // one --bench per item, or a,b,c
    for (std::size_t k = 1; k < argv.size(); k += 2)
        for (const std::string &item : commaSplit(argv[k]))
            items.push_back(item);
    os << '[';
    for (std::size_t i = 0; i < items.size(); ++i)
        os << (i ? ", " : "")
           << (shape == AxisShape::numberList ? items[i]
                                              : jsonQuote(items[i]));
    os << ']';
}

/** The argv values the JSON value @p v of @p row stands for; false
 *  when @p v has the wrong shape. */
bool
readValues(const json::Value &v, const SweepAxis &row,
           std::vector<std::string> &values)
{
    using Kind = json::Value::Kind;
    const AxisShape shape = row.codec.shape;
    if (shape == AxisShape::number) {
        values = {v.raw};
        return v.kind == Kind::number;
    }
    if (v.kind != Kind::array)
        return false;
    std::vector<std::string> items;
    for (const json::Value &item : v.items) {
        if (item.kind != (shape == AxisShape::numberList ? Kind::number
                                                         : Kind::string))
            return false;
        items.push_back(item.kind == Kind::number ? item.raw : item.str);
    }
    if (shape == AxisShape::stringPerFlag)
        values = items;
    else if (!items.empty() || row.gate == AxisGate::always)
        values = {commaJoin(items)}; // "" fails every list parse
    return true;
}

} // namespace

const std::vector<SweepAxis> &
sweepAxes()
{
    using S = SweepOptions;
    using G = AxisGate;
    using A = AxisScope;
    static const std::vector<SweepAxis> rows = {
        {"instructions", nullptr, {"--insts"}, "GALSSIM_INSTS", G::always,
         A::allRuns, "1234", positive<&S::instructions>()},
        {"seeds", nullptr, {"--seed-list", "--seed", "--seeds"}, nullptr,
         G::always, A::allRuns, "3,5", seedsCodec},
        {"benchmarks", nullptr, {"--bench"}, "GALSSIM_BENCH", G::always,
         A::allRuns, "gcc", benchmarksCodec},
        {"cores", "fabric", {"--cores"}, nullptr, G::whenSet,
         A::fabricScenarios, "4", list<&S::coreCounts, parseCore>()},
        {"topologies", "fabric", {"--topology"}, nullptr, G::whenSet,
         A::fabricScenarios, "mesh2d",
         list<&S::topologies, parseTopology>()},
        {"traffics", "fabric", {"--traffic"}, nullptr, G::whenSet,
         A::fabricScenarios, "uniform,hotspot:2",
         list<&S::traffics, parseTraffic>(), checkTraffics},
        {"interval_ticks", nullptr, {"--interval-ticks"}, nullptr,
         G::whenSet, A::singleCoreRuns, "5000",
         positive<&S::intervalTicks>()},
        {"warmup_insts", nullptr, {"--warmup-insts"}, nullptr, G::whenSet,
         A::singleCoreRuns, "1000", positive<&S::warmupInstructions>(),
         checkWarmup},
        {"snapshot_dir", nullptr, {"--snapshot-dir"}, nullptr, G::never,
         A::allRuns, ".", snapshotDirCodec},
    };
    return rows;
}

void
writeSweepAxes(std::ostream &os, const SweepOptions &o)
{
    const auto member = [&](const char *key) {
        os << '"' << key << "\": ";
    };
    const auto written = [&](const SweepAxis &row) {
        return row.gate == AxisGate::always ||
               (row.gate == AxisGate::whenSet && row.isSet(o));
    };
    const std::vector<SweepAxis> &rows = sweepAxes();
    for (std::size_t i = 0, end = 0; i < rows.size(); i = end) {
        // A group is written whole when any of its rows is.
        const char *group = rows[i].group;
        end = i + 1;
        while (group && end < rows.size() && rows[end].group &&
               !std::strcmp(rows[end].group, group))
            ++end;
        if (!std::any_of(rows.begin() + i, rows.begin() + end, written))
            continue;
        os << "  ";
        if (group) {
            member(group);
            os << '{';
        }
        for (std::size_t k = i; k < end; ++k) {
            os << (k > i ? ", " : "");
            member(rows[k].key);
            writeValue(os, rows[k], o);
        }
        os << (group ? "}" : "") << ",\n";
    }
}

std::string
readSweepAxes(const json::Value &manifest, SweepOptions &o)
{
    for (const SweepAxis &row : sweepAxes()) {
        const json::Value *parent =
            row.group ? manifest.find(row.group) : &manifest;
        if (row.gate == AxisGate::never || !parent)
            continue; // an unwritten group keeps its defaults
        const json::Value *v = parent->find(row.key);
        if (!v && !row.group && row.gate == AxisGate::whenSet)
            continue;
        std::vector<std::string> values;
        bool ok = v && readValues(*v, row, values);
        for (const std::string &value : values)
            ok = ok && row.codec.parse(row.flags[0], value, o).empty();
        if (!ok)
            return std::string("missing or malformed ") +
                   (row.group ? std::string(row.group) + "." : "") +
                   row.key;
    }
    return "";
}

std::optional<std::string>
SweepAxisParser::take(int argc, char **argv, int &i)
{
    const std::vector<SweepAxis> &rows = sweepAxes();
    for (std::size_t r = 0; r < rows.size(); ++r)
        for (const char *flag : rows[r].flags) {
            if (std::strcmp(argv[i], flag) != 0)
                continue;
            given_[r] = true;
            return i + 1 < argc
                       ? rows[r].codec.parse(flag, argv[++i], opts_)
                       : std::string(flag) + " needs a value";
        }
    return std::nullopt;
}

std::string
SweepAxisParser::finish(const ScenarioRegistry &registry,
                        const std::vector<std::string> &scenarios,
                        SweepOptions &out)
{
    const std::vector<SweepAxis> &rows = sweepAxes();
    for (std::size_t r = 0; r < rows.size(); ++r) {
        const char *env =
            rows[r].env && !given_[r] ? std::getenv(rows[r].env) : nullptr;
        const std::string err =
            env ? rows[r].codec.parse(rows[r].flags[0], env, opts_) : "";
        if (!err.empty())
            return std::string(rows[r].env) + ": " + err;
    }

    std::vector<const Scenario *> known;
    for (const std::string &name : scenarios)
        if (const Scenario *s = registry.find(name))
            known.push_back(s);
    for (const SweepAxis &row : rows) {
        const std::string err = row.check ? row.check(opts_) : "";
        if (!err.empty())
            return err;
        if (row.scope == AxisScope::allRuns || !row.isSet(opts_))
            continue;
        const std::string flag = row.flags[0];
        if (row.scope == AxisScope::fabricScenarios) {
            if (!known.empty() &&
                std::none_of(known.begin(), known.end(),
                             [](const Scenario *s) {
                                 return s->readsFabricAxes;
                             }))
                return flag + " does not apply to the selected "
                              "scenarios (none of them reads the "
                              "fabric axes)";
            continue;
        }
        // runOne() honours a single-core axis on no fabric run, yet
        // the manifest would record it for every run.
        for (const Scenario *s : known)
            for (const RunConfig &cfg :
                 expandReplicatedRuns(*s, opts_, nullptr))
                if (cfg.fabric.active())
                    return flag + " does not apply to fabric runs "
                                  "(scenario '" +
                           s->name + "' has one)";
    }
    // Traffic is crossed with explicit --cores above; a scenario's
    // own core counts meet it only here, before any sink truncates
    // --output.
    for (const Scenario *s : known)
        for (const RunConfig &cfg :
             expandReplicatedRuns(*s, opts_, nullptr)) {
            const std::string err = cfg.fabric.validate();
            if (!err.empty())
                return "scenario '" + s->name + "': " + err;
        }
    out = opts_;
    return "";
}

} // namespace gals::runner
