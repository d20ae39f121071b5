/**
 * @file
 * The sweep-axis table: the one place that knows each SweepOptions
 * axis. The galsbench parser, writeManifest(), and the manifest
 * reader and merge compatibility check all loop over its rows.
 *
 * Adding an axis takes one row plus its model code (the SweepOptions
 * field and the scenario or runOne() code that reads it). The
 * RunConfig-level encoders (runConfigHash sections, JSON/CSV/gtrj
 * record fields) are byte-pinned per-format codecs and stay written
 * by hand in runner/reporter.cc and runner/gtrj.cc.
 */

#ifndef RUNNER_SWEEP_AXES_HH
#define RUNNER_SWEEP_AXES_HH

#include <cstdint>
#include <iosfwd>
#include <optional>
#include <string>
#include <vector>

#include "runner/scenario.hh"

namespace gals::runner
{

namespace json
{
struct Value;
} // namespace json

/** Where a row appears in the manifest. */
enum class AxisGate
{
    always,  ///< on every sweep
    whenSet, ///< only when set, so older archives keep their bytes
    never,   ///< not recorded: it never shapes a run's records
};

/** Which runs a row reaches; a set value that reaches none of the
 *  selected runs it names is a usage error, not a silent no-op. */
enum class AxisScope
{
    allRuns,
    singleCoreRuns,  ///< rejected when a selected grid has a fabric run
    fabricScenarios, ///< rejected unless a selected scenario declares
                     ///< Scenario::readsFabricAxes
};

/** The JSON form of a row's argv values in manifests. Reading a
 *  manifest turns it back into those values and parses them with the
 *  row's CLI validator. */
enum class AxisShape
{
    number,        ///< `--flag N`: N
    numberList,    ///< `--flag a,b`: [a, b]
    stringList,    ///< `--flag a,b`: ["a", "b"]
    stringPerFlag, ///< `--flag a --flag b`: ["a", "b"]
};

/** How a row's value is parsed and spelled back. */
struct AxisCodec
{
    /** Parse @p value, given as @p flag, into @p o; "" or the error. */
    std::string (*parse)(const std::string &flag,
                         const std::string &value, SweepOptions &o);
    /** Append the argv that re-creates the value (@p flag is the
     *  row's first spelling); manifest values are built from it. */
    void (*toArgv)(const char *flag, const SweepOptions &o,
                   std::vector<std::string> &argv);
    AxisShape shape;
};

/** One sweep axis. Rows sharing a @ref group are contiguous. */
struct SweepAxis
{
    const char *key;   ///< manifest member name
    const char *group; ///< enclosing object ("fabric"), or nullptr
    std::vector<const char *> flags; ///< CLI spellings
    const char *env;   ///< GALSSIM_* default, or nullptr
    AxisGate gate;
    AxisScope scope;
    /** A valid non-default value of flags[0]; the table's round-trip
     *  tests set every row to it. */
    const char *example;
    AxisCodec codec;
    /** Cross-axis check of the finished options; "" or the error. */
    std::string (*check)(const SweepOptions &o) = nullptr;

    /** The row's argv for @p o, which is also its identity: two
     *  options are equal along the row iff their argv is. */
    std::vector<std::string> argv(const SweepOptions &o) const
    {
        std::vector<std::string> out;
        codec.toArgv(flags[0], o, out);
        return out;
    }
    bool isSet(const SweepOptions &o) const
    {
        return argv(o) != argv(SweepOptions{});
    }
};

/** The rows, in manifest order. */
const std::vector<SweepAxis> &sweepAxes();

/** Append the recorded rows of @p o as the manifest's
 *  `  "key": value,\n` JSON member lines. */
void writeSweepAxes(std::ostream &os, const SweepOptions &o);

/** Read the recorded rows of a parsed manifest into @p o; "" or the
 *  error. */
std::string readSweepAxes(const json::Value &manifest, SweepOptions &o);

/** A non-negative decimal into @p out; "" or the error. */
std::string parseU64(const std::string &flag, const std::string &text,
                     std::uint64_t &out);

/** parseU64() bounded to `unsigned`. */
std::string parseUnsigned(const std::string &flag,
                          const std::string &text, unsigned &out);

/** The axis half of one galsbench command line. */
class SweepAxisParser
{
  public:
    /** Offer argv[i]: an axis spelling consumes its value (advancing
     *  @p i) and yields "" or the error of a missing or invalid value;
     *  anything else yields nothing. */
    std::optional<std::string> take(int argc, char **argv, int &i);

    /** The parsed sweep in @p out: GALSSIM_* defaults fill the rows
     *  the command line left unset, then every row's check and scope
     *  is tested against @p scenarios (names unknown to @p registry
     *  are skipped; the caller reports them). "" or the error. */
    std::string finish(const ScenarioRegistry &registry,
                       const std::vector<std::string> &scenarios,
                       SweepOptions &out);

  private:
    SweepOptions opts_;
    std::vector<bool> given_ = std::vector<bool>(sweepAxes().size());
};

} // namespace gals::runner

#endif // RUNNER_SWEEP_AXES_HH
