/**
 * @file
 * galsbench command-line tests: the sweep parser's usage errors (exit
 * 2 with usage, before any --output is touched) run against the real
 * binary, plus the atomic whole-file writer manifests go through.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>

#include <sys/wait.h>
#include <unistd.h>

#include "runner/atomic_file.hh"
#include "runner/json.hh"
#include "runner/scenario.hh"
#include "runner/trajectory.hh"

using namespace gals;
using namespace gals::runner;

namespace fs = std::filesystem;

namespace
{

std::string
tempPath(const std::string &name)
{
    return ::testing::TempDir() + "galssim_cli_" + name;
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

void
spit(const std::string &path, const std::string &text)
{
    std::ofstream os(path, std::ios::binary | std::ios::trunc);
    os << text;
    ASSERT_TRUE(os.good()) << path;
}

// ----------------------------------------------------------- atomic write

TEST(AtomicFile, WritesAndLeavesNoTemp)
{
    const std::string path = tempPath("atomic_ok.json");
    std::string err;
    ASSERT_TRUE(atomicWriteFile(path, "{\"a\": 1}\n", err)) << err;
    EXPECT_EQ(slurp(path), "{\"a\": 1}\n");
    EXPECT_FALSE(fs::exists(atomicTempPath(path)));
    // Overwrite: same guarantee.
    ASSERT_TRUE(atomicWriteFile(path, "{\"a\": 2}\n", err)) << err;
    EXPECT_EQ(slurp(path), "{\"a\": 2}\n");
    EXPECT_FALSE(fs::exists(atomicTempPath(path)));
}

TEST(AtomicFile, FailureReportsAndSetsError)
{
    std::string err;
    EXPECT_FALSE(atomicWriteFile(
        "/nonexistent-dir/galssim_cli_atomic.json", "x", err));
    EXPECT_NE(err.find("cannot open"), std::string::npos) << err;
}

TEST(AtomicFile, FailureLeavesTheOldFileIntact)
{
    const std::string path = tempPath("atomic_keep.json");
    std::string err;
    ASSERT_TRUE(atomicWriteFile(path, "old contents\n", err)) << err;
    // Block the deterministic temp path with a directory: the write
    // must fail without touching the existing file.
    const std::string tmp = atomicTempPath(path);
    fs::remove_all(tmp);
    ASSERT_TRUE(fs::create_directory(tmp));
    EXPECT_FALSE(atomicWriteFile(path, "new contents\n", err));
    EXPECT_EQ(slurp(path), "old contents\n");
    fs::remove_all(tmp);
}

TEST(AtomicFile, ManifestWriterLeavesNoTemp)
{
    // writeManifestFile() goes through the temp-file + rename path.
    const std::string path = tempPath("manifest_atomic.json");
    SweepOptions opts;
    writeManifestFile(path, opts, "calendar", "", {});
    EXPECT_FALSE(fs::exists(atomicTempPath(path)));
    json::Value v;
    std::string err;
    EXPECT_TRUE(json::parse(slurp(path), v, err)) << err;
}

// ------------------------------------------------------ CLI validation

/** The galsbench binary under test: the GALSBENCH env var (set by
 *  CTest), falling back to a sibling of this test binary. */
std::string
galsbenchBinary()
{
    if (const char *env = std::getenv("GALSBENCH"))
        if (::access(env, X_OK) == 0)
            return env;
    char buf[4096];
    const ssize_t n =
        ::readlink("/proc/self/exe", buf, sizeof(buf) - 1);
    if (n <= 0)
        return "";
    buf[n] = '\0';
    const std::string self(buf);
    const std::size_t slash = self.find_last_of('/');
    if (slash == std::string::npos)
        return "";
    const std::string sibling = self.substr(0, slash) + "/galsbench";
    return ::access(sibling.c_str(), X_OK) == 0 ? sibling : "";
}

/** Run galsbench with @p args (stdout discarded, stderr captured into
 *  @p err); @return its exit status, or -1 if it did not exit. */
int
runGalsbench(const std::string &args, std::string &err)
{
    const std::string errPath = tempPath("cli_stderr.txt");
    const std::string cmd = "'" + galsbenchBinary() + "' " + args +
                            " > /dev/null 2> '" + errPath + "'";
    const int status = std::system(cmd.c_str());
    err = slurp(errPath);
    return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
}

class Cli : public ::testing::Test
{
  protected:
    void SetUp() override
    {
        if (galsbenchBinary().empty())
            GTEST_SKIP() << "galsbench binary not found (set "
                            "GALSBENCH)";
    }
};

TEST_F(Cli, SweepRejectsWarmupOnFabricRuns)
{
    // Fabric runs take no warm snapshots; the flag must not be
    // silently dropped while the manifest claims the split.
    const std::string out = tempPath("cli_fabric_warm.jsonl");
    std::remove(out.c_str());
    std::string err;
    EXPECT_EQ(runGalsbench("--scenario fabric_smoke --insts 3000 "
                           "--warmup-insts 1000 --output " + out,
                           err),
              2);
    EXPECT_NE(err.find("--warmup-insts does not apply to fabric"),
              std::string::npos)
        << err;
    EXPECT_NE(err.find("usage:"), std::string::npos) << err;
    EXPECT_FALSE(fs::exists(out));

    // --cores 1 turns the fabric scenario's grid single-core, so the
    // split applies and the run proceeds.
    EXPECT_EQ(runGalsbench("--scenario fabric_smoke --cores 1 --insts "
                           "3000 --warmup-insts 1000 --format json",
                           err),
              0)
        << err;
}

TEST_F(Cli, SweepRejectsIntervalOnFabricRuns)
{
    // Fabric runs attach no interval meter; the flag must not leave
    // records with an empty series under a manifest claiming it.
    const std::string out = tempPath("cli_fabric_interval.jsonl");
    std::remove(out.c_str());
    std::string err;
    EXPECT_EQ(runGalsbench("--scenario fabric_smoke --insts 2000 "
                           "--interval-ticks 100000 --output " + out,
                           err),
              2);
    EXPECT_NE(err.find("--interval-ticks does not apply to fabric"),
              std::string::npos)
        << err;
    EXPECT_NE(err.find("usage:"), std::string::npos) << err;
    EXPECT_FALSE(fs::exists(out));

    // A single-core grid of the same scenario is metered as before.
    EXPECT_EQ(runGalsbench("--scenario fabric_smoke --cores 1 --insts "
                           "2000 --interval-ticks 100000 --format json",
                           err),
              0)
        << err;
}

TEST_F(Cli, SweepRejectsFabricAxesNoSelectedScenarioReads)
{
    // fig05 never reads the fabric axes, so the manifest must not
    // record a fabric object no run honoured.
    const std::string out = tempPath("cli_fig05_cores.jsonl");
    const std::string manifest = tempPath("cli_fig05_cores.json");
    std::remove(out.c_str());
    std::remove(manifest.c_str());
    std::string err;
    EXPECT_EQ(runGalsbench("--scenario fig05 --insts 1000 --cores 4 "
                           "--topology mesh2d --output " + out +
                               " --manifest " + manifest,
                           err),
              2);
    EXPECT_NE(err.find("--cores does not apply to the selected "
                       "scenarios"),
              std::string::npos)
        << err;
    EXPECT_NE(err.find("usage:"), std::string::npos) << err;
    EXPECT_FALSE(fs::exists(out));
    EXPECT_FALSE(fs::exists(manifest));
    EXPECT_EQ(runGalsbench("--scenario fig05 --traffic none", err), 2);
    EXPECT_NE(err.find("--traffic does not apply"), std::string::npos)
        << err;

    // Any selected reader keeps the axes valid: --all holds the
    // fabric scenarios (a manifest-only shard expands every grid
    // without simulating), and fabric_perf reads --cores 1.
    EXPECT_EQ(runGalsbench("--all --insts 1000 --cores 4 --shard 1/2 "
                           "--manifest " + manifest,
                           err),
              0)
        << err;
    EXPECT_NE(slurp(manifest).find("\"fabric\": {\"cores\": [4]"),
              std::string::npos);
    EXPECT_EQ(runGalsbench("--scenario fabric_perf --cores 1 --insts "
                           "1000 --bench gcc --format json",
                           err),
              0)
        << err;
}

TEST_F(Cli, SweepRejectsTrafficTheScenarioCoresCannotHonour)
{
    // fabric_smoke's own grid is 4 cores; --traffic is crossed with
    // explicit --cores only, so a hotspot on core 9 used to pass the
    // parser, truncate --output and then die building the fabric.
    const std::string out = tempPath("cli_traffic_keep.jsonl");
    const std::string kept = "{\"archived\":true}\n";
    spit(out, kept);
    std::string err;
    EXPECT_EQ(runGalsbench("--scenario fabric_smoke --insts 1000 "
                           "--traffic hotspot:9 --output " + out,
                           err),
              2);
    EXPECT_NE(err.find("scenario 'fabric_smoke': traffic 'hotspot:9' "
                       "references core 9"),
              std::string::npos)
        << err;
    EXPECT_NE(err.find("usage:"), std::string::npos) << err;
    EXPECT_EQ(slurp(out), kept);
}

TEST_F(Cli, RetiredEngineFlagIsUnknown)
{
    std::string err;
    EXPECT_EQ(runGalsbench("--scenario quickstart --engine heap", err),
              2);
    EXPECT_NE(err.find("unknown argument '--engine'"),
              std::string::npos)
        << err;
}

TEST_F(Cli, RetiredDispatchIsUnknown)
{
    // Multi-process dispatch and its hidden worker flags are gone; each
    // is an unknown argument that fails before any output is touched.
    const std::string out = tempPath("cli_dispatch.jsonl");
    std::remove(out.c_str());
    fs::remove_all(out + ".dispatch");
    std::string err;
    EXPECT_EQ(runGalsbench("dispatch --scenario fig05 --output " + out,
                           err),
              2);
    EXPECT_NE(err.find("unknown argument 'dispatch'"), std::string::npos)
        << err;
    EXPECT_NE(err.find("usage:"), std::string::npos) << err;
    for (const char *flag : {"--resume" "-skip", "--fault-exit-after"}) {
        EXPECT_EQ(runGalsbench(std::string("--scenario fig05 --shard 1/3 ") +
                                   flag + " 1 --output " + out,
                               err),
                  2)
            << flag;
        EXPECT_NE(err.find(std::string("unknown argument '") + flag + "'"),
                  std::string::npos)
            << err;
        EXPECT_NE(err.find("usage:"), std::string::npos) << err;
    }
    EXPECT_FALSE(fs::exists(out));
    EXPECT_FALSE(fs::exists(out + ".dispatch"));
}

} // namespace
