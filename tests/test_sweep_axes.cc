/**
 * @file
 * Tests for the sweep-axis table (runner/sweep_axes.hh). Every test
 * loops over sweepAxes() and sets each row to its example value, so a
 * new row is covered with no new test code:
 *
 *   - SweepOptions -> writeManifest -> manifest reader gives back equal
 *     options (through --merge-manifest, which reads and rewrites);
 *   - shard manifests that differ in any run-defining row are refused
 *     by --merge-manifest.
 *
 * The parser's environment defaults and the scope rejections are
 * checked on a small fabricated registry. No simulation runs.
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <cstring>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "runner/json.hh"
#include "runner/merge.hh"
#include "runner/sweep_axes.hh"
#include "runner/trajectory.hh"

using namespace gals;
using namespace gals::runner;

namespace
{

std::string
tempPath(const std::string &name)
{
    return ::testing::TempDir() + "galssim_axes_" + name;
}

std::string
slurp(const std::string &path)
{
    std::ifstream is(path, std::ios::binary);
    EXPECT_TRUE(is.good()) << path;
    std::ostringstream buf;
    buf << is.rdbuf();
    return buf.str();
}

/** @p o with @p row set to its example value. */
SweepOptions
withExample(const SweepAxis &row, SweepOptions o = SweepOptions())
{
    EXPECT_EQ(row.codec.parse(row.flags[0], row.example, o), "")
        << row.key;
    return o;
}

/** Every row at its example value at once, each given @p times
 *  (a repeatable flag accumulates; the others keep the last). */
SweepOptions
allExamples(int times = 1)
{
    SweepOptions o;
    for (const SweepAxis &row : sweepAxes())
        for (int k = 0; k < times; ++k)
            o = withExample(row, o);
    return o;
}

/** The round-trip cases: defaults, every row set at once (given once
 *  and twice), and each row set alone. */
std::vector<SweepOptions>
roundTripCases()
{
    std::vector<SweepOptions> cases = {SweepOptions(), allExamples(),
                                       allExamples(2)};
    for (const SweepAxis &row : sweepAxes())
        cases.push_back(withExample(row));
    return cases;
}

/** Every recorded row of @p a equals @p b's, by the row's own
 *  identity. */
void
expectSameAxes(const SweepOptions &a, const SweepOptions &b,
               const std::string &what)
{
    for (const SweepAxis &row : sweepAxes()) {
        if (row.gate != AxisGate::never) {
            EXPECT_EQ(row.argv(a), row.argv(b)) << what << ": " << row.key;
        }
    }
}

/** Parse @p args with the shared CLI axis parse; every entry must be
 *  an axis flag or its value. */
std::string
parseArgs(const ScenarioRegistry &registry,
          const std::vector<std::string> &scenarios,
          const std::vector<std::string> &args, SweepOptions &out)
{
    std::vector<char *> argv;
    for (const std::string &a : args)
        argv.push_back(const_cast<char *>(a.c_str()));
    SweepAxisParser parser;
    for (int i = 0; i < static_cast<int>(argv.size()); ++i) {
        const std::optional<std::string> err =
            parser.take(static_cast<int>(argv.size()), argv.data(), i);
        if (!err)
            return "not an axis flag: " + args[i];
        if (!err->empty())
            return *err;
    }
    return parser.finish(registry, scenarios, out);
}

std::string
writeManifestText(const SweepOptions &o, const std::string &output)
{
    std::ostringstream os;
    writeManifest(os, o, manifestEngineName, output,
                  {{"alpha", 4, o.seedList().size(), 0x1234ull}});
    return os.str();
}

void
writeShardManifest(const std::string &path, SweepOptions o,
                   unsigned index, unsigned count)
{
    o.shard = ShardSpec{index, count};
    writeManifestFile(path, o, manifestEngineName, "s.jsonl",
                      {{"alpha", 4, o.seedList().size(), 0x1234ull}});
}

class SweepAxes : public ::testing::Test
{
  protected:
    void SetUp() override
    {
        // The parser applies these defaults; the round trips must not
        // see whatever the calling shell exported.
        for (const SweepAxis &row : sweepAxes())
            if (row.env)
                ::unsetenv(row.env);
    }
};

} // namespace

TEST_F(SweepAxes, TableIsWellFormed)
{
    std::set<std::string> flags, keys;
    for (std::size_t r = 0; r < sweepAxes().size(); ++r) {
        const SweepAxis &row = sweepAxes()[r];
        EXPECT_TRUE(keys.insert(row.key).second) << row.key;
        ASSERT_FALSE(row.flags.empty()) << row.key;
        for (const char *flag : row.flags)
            EXPECT_TRUE(flags.insert(flag).second) << flag;
        // The example is a real, non-default value, and the argv form
        // (the row's identity) carries it verbatim, so the identity is
        // not lossy.
        EXPECT_TRUE(row.isSet(withExample(row))) << row.key;
        EXPECT_EQ(row.argv(withExample(row)),
                  (std::vector<std::string>{row.flags[0], row.example}))
            << row.key;
        // Group members are contiguous: no earlier row outside the
        // run of rows just before this one shares its group.
        if (!row.group)
            continue;
        std::size_t k = r;
        while (k > 0 && sweepAxes()[k - 1].group &&
               !std::strcmp(sweepAxes()[k - 1].group, row.group))
            --k;
        for (std::size_t j = 0; j < k; ++j)
            EXPECT_FALSE(sweepAxes()[j].group &&
                         !std::strcmp(sweepAxes()[j].group, row.group))
                << row.key;
    }
}

TEST_F(SweepAxes, ManifestRoundTripsEveryRow)
{
    const std::vector<SweepOptions> cases = roundTripCases();

    for (std::size_t c = 0; c < cases.size(); ++c) {
        const SweepOptions &o = cases[c];
        const std::string what = "case " + std::to_string(c);

        // The table's own reader.
        json::Value v;
        std::string err;
        ASSERT_TRUE(json::parse(writeManifestText(o, "x.jsonl"), v, err))
            << what << ": " << err;
        SweepOptions back;
        ASSERT_EQ(readSweepAxes(v, back), "") << what;
        expectSameAxes(back, o, what);

        // The full manifest reader: a one-shard merge reads the shard
        // manifest and rewrites it without its shard object.
        const std::string shard = tempPath("rt_shard.json");
        const std::string merged = tempPath("rt_merged.json");
        writeShardManifest(shard, o, 1, 1);
        std::ostringstream diag;
        ASSERT_TRUE(mergeManifests({shard}, merged, "x.jsonl", diag))
            << what << ": " << diag.str();
        SweepOptions unsharded = o;
        unsharded.shard = ShardSpec();
        EXPECT_EQ(slurp(merged), writeManifestText(unsharded, "x.jsonl"))
            << what;
    }

    // A row that is not run-defining leaves no trace in a manifest.
    for (const SweepAxis &row : sweepAxes()) {
        if (row.gate == AxisGate::never) {
            EXPECT_EQ(writeManifestText(withExample(row), ""),
                      writeManifestText(SweepOptions(), ""))
                << row.key;
        }
    }
}

TEST_F(SweepAxes, MergeRefusesShardsDifferingInAnyRunDefiningRow)
{
    const std::string first = tempPath("m1.json");
    const std::string second = tempPath("m2.json");
    const std::string merged = tempPath("m.merged.json");
    writeShardManifest(first, SweepOptions(), 1, 2);

    for (const SweepAxis &row : sweepAxes()) {
        writeShardManifest(second, withExample(row), 2, 2);
        std::ostringstream diag;
        const bool ok = mergeManifests({first, second}, merged, "", diag);
        if (row.gate == AxisGate::never) {
            EXPECT_TRUE(ok) << row.key << ": " << diag.str();
            continue;
        }
        EXPECT_FALSE(ok) << row.key;
        EXPECT_NE(diag.str().find("disagrees"), std::string::npos)
            << row.key << ": " << diag.str();
    }
}

TEST_F(SweepAxes, EnvironmentFillsOnlyRowsTheCommandLineLeftUnset)
{
    const ScenarioRegistry none;
    ::setenv("GALSSIM_BENCH", "gcc", 1);
    ::setenv("GALSSIM_INSTS", "3000", 1);
    SweepOptions o;
    ASSERT_EQ(parseArgs(none, {}, {}, o), "");
    EXPECT_EQ(o.benchmarks, std::vector<std::string>{"gcc"});
    EXPECT_EQ(o.instructions, 3000u);

    ASSERT_EQ(parseArgs(none, {}, {"--bench", "fpppp", "--bench", "go"},
                        o),
              "");
    EXPECT_EQ(o.benchmarks, (std::vector<std::string>{"fpppp", "go"}));
    EXPECT_EQ(o.instructions, 3000u);

    // A bad default is a usage error like a bad flag value.
    ::setenv("GALSSIM_INSTS", "lots", 1);
    EXPECT_NE(parseArgs(none, {}, {}, o).find("GALSSIM_INSTS: --insts"),
              std::string::npos);
    EXPECT_EQ(parseArgs(none, {}, {"--insts", "2000"}, o), "");
}

TEST_F(SweepAxes, ValidatorsRejectBadValues)
{
    const ScenarioRegistry none;
    SweepOptions o;
    const std::vector<std::pair<std::vector<std::string>, std::string>>
        bad = {
            {{"--insts"}, "--insts needs a value"},
            {{"--insts", "0"}, "--insts must be > 0"},
            {{"--insts", "-1"}, "expects a non-negative number"},
            {{"--seeds", "0"}, "--seeds must be > 0"},
            {{"--seed-list", "1,,2"}, "expects comma-separated values"},
            {{"--seed-list", "1,"}, "expects comma-separated values"},
            {{"--cores", "0"}, "--cores values must be >= 1"},
            {{"--topology", "torus"}, "expects 'ring' or 'mesh2d'"},
            {{"--traffic", "bogus"}, "--traffic:"},
            {{"--cores", "2", "--traffic", "hotspot:3"},
             "--traffic 'hotspot:3' with --cores 2"},
            {{"--insts", "100", "--warmup-insts", "100"},
             "--warmup-insts (100) must be < the instruction count (100)"},
            {{"--snapshot-dir", "/nonexistent-dir"},
             "is not an existing directory"},
        };
    for (const auto &[args, want] : bad)
        EXPECT_NE(parseArgs(none, {}, args, o).find(want),
                  std::string::npos)
            << args.front() << " should fail with '" << want << "'";
}

TEST_F(SweepAxes, ScopeRejectsAxesNoSelectedRunReads)
{
    // "single": one single-core run; "fabric": a fabric run and the
    // fabric-axes declaration.
    ScenarioRegistry registry;
    Scenario single;
    single.name = "single";
    single.makeRuns = [](const SweepOptions &) {
        return std::vector<RunConfig>(1);
    };
    registry.add(single);
    Scenario fabric;
    fabric.name = "fabric";
    fabric.readsFabricAxes = true;
    fabric.makeRuns = [](const SweepOptions &) {
        std::vector<RunConfig> runs(1);
        runs[0].fabric.cores = 4;
        return runs;
    };
    registry.add(fabric);

    SweepOptions o;
    for (const SweepAxis &row : sweepAxes()) {
        const std::vector<std::string> args = {row.flags[0], row.example};
        const std::string onSingle = parseArgs(registry, {"single"}, args, o);
        const std::string onFabric = parseArgs(registry, {"fabric"}, args, o);
        const std::string onBoth =
            parseArgs(registry, {"single", "fabric"}, args, o);
        switch (row.scope) {
          case AxisScope::allRuns:
            EXPECT_EQ(onSingle, "") << row.key;
            EXPECT_EQ(onFabric, "") << row.key;
            break;
          case AxisScope::singleCoreRuns:
            EXPECT_EQ(onSingle, "") << row.key;
            EXPECT_NE(onFabric.find("does not apply to fabric runs "
                                    "(scenario 'fabric' has one)"),
                      std::string::npos)
                << row.key << ": " << onFabric;
            EXPECT_NE(onBoth, "") << row.key;
            break;
          case AxisScope::fabricScenarios:
            EXPECT_NE(onSingle.find("none of them reads the fabric axes"),
                      std::string::npos)
                << row.key << ": " << onSingle;
            EXPECT_EQ(onFabric, "") << row.key;
            EXPECT_EQ(onBoth, "") << row.key;
            break;
        }
        // Unknown names are the caller's to report.
        EXPECT_EQ(parseArgs(registry, {"nope"}, args, o), "") << row.key;
    }
}
