/**
 * @file
 * Sweep persistence: trajectory files and run manifests.
 *
 * `galsbench --output PATH` streams the raw per-run records of every
 * executed scenario into one trajectory file — JSON-lines by default,
 * CSV when PATH ends in `.csv` — through the TrajectorySink below.
 * `--manifest PATH` additionally writes a run manifest describing the
 * whole evaluation (galssim version, engine, instruction budget,
 * seeds, shard, and per-scenario grid sizes + config hashes).
 *
 * Both files are deliberately free of timestamps, hostnames and job
 * counts: re-running the same sweep on any machine at any `--jobs`
 * must produce byte-identical bytes, so an archived evaluation can be
 * verified with `cmp` (or `galsbench --verify MANIFEST`).
 *
 * Sharded sweeps (`--shard i/N`) write the same record bytes they
 * would unsharded — each record carries its canonical grid index —
 * so `galsbench --merge` can reassemble N shard files into the
 * canonical single-machine trajectory (runner/merge.hh). The shard
 * manifest records the canonical per-scenario grid (full grid size
 * and full-grid config hash) plus a `shard` object naming the slice.
 */

#ifndef RUNNER_TRAJECTORY_HH
#define RUNNER_TRAJECTORY_HH

#include <cstdint>
#include <fstream>
#include <iosfwd>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "core/experiment.hh"

namespace gals::runner
{

struct SweepOptions;

/** On-disk record format of a trajectory file. */
enum class TrajectoryFormat
{
    jsonLines, ///< one JSON object per run per line
    csv,       ///< one header row, then one row per run
    gtrj,      ///< binary frames (runner/gtrj.hh)
};

/** Format implied by a `--output` path: `.csv` → csv, `.gtrj` →
 *  gtrj, anything else (including `.json` / `.jsonl`) → JSON lines.
 *  Lenient by design — existing extensionless archives stay
 *  readable; the CLI validates new paths with
 *  trajectoryFormatForCliPath() instead. */
TrajectoryFormat trajectoryFormatForPath(const std::string &path);

/** Strict CLI-side parse of a `--output` path: true with @p out set
 *  for the known extensions (`.jsonl` / `.json` / `.csv` / `.gtrj`),
 *  false for anything else — the caller rejects with usage instead
 *  of silently writing JSON lines to a surprising filename. */
bool trajectoryFormatForCliPath(const std::string &path,
                                TrajectoryFormat &out);

/** Short format name for manifests: "jsonl", "csv" or "gtrj". */
const char *trajectoryFormatName(TrajectoryFormat format);

/**
 * An open trajectory file accepting one scenario's finished grid (or
 * shard slice) at a time. Rows are the raw per-run records
 * (per-replica for multi-seed sweeps) in engine order, so the file is
 * byte-identical for any job count. The CSV header is written once,
 * before the first rows.
 *
 * Write errors are detected eagerly: append() fails fatal as soon as
 * the stream goes bad (disk full, unwritable path), rather than
 * burning the rest of the sweep and only noticing at close().
 */
class TrajectorySink
{
  public:
    /** Truncate and open @p path; fatal if the file cannot be
     *  created. A gtrj sink writes the file header on open. */
    explicit TrajectorySink(const std::string &path);

    /**
     * Write to a caller-owned stream instead of a file — this is how
     * `--verify` regenerates an archived trajectory in memory before
     * byte-comparing it. @p path is used in error messages only.
     */
    TrajectorySink(std::ostream &os, TrajectoryFormat format,
                   const std::string &path = "<stream>");

    /**
     * Append one scenario's cfgs/results (parallel vectors).
     * @p indices, when given, are the canonical grid indices of a
     * shard slice (see writeJsonLines()).
     */
    void append(const std::string &scenario,
                const std::vector<RunConfig> &cfgs,
                const std::vector<RunResults> &results,
                const std::vector<std::size_t> *indices = nullptr);

    /** Flush and verify the stream; fatal on any write error. Safe
     *  to call more than once. Caller-owned streams are flushed but
     *  not closed. */
    void close();

    const std::string &path() const { return path_; }
    TrajectoryFormat format() const { return format_; }

  private:
    std::string path_;
    TrajectoryFormat format_;
    std::ofstream file_;
    std::ostream *os_; ///< &file_, or the caller's stream
    bool wroteHeader_ = false;
};

/** One record read back by TrajectoryReader. */
struct TrajectoryRecord
{
    /** The record's bytes inside the reader's buffer: a line without
     *  its '\n', or a whole gtrj frame (length prefix included). */
    std::string_view raw;
    std::string scenario;
    std::uint64_t index = 0;
    /** The fields below are read where the record has them; every
     *  record our writers emit has all three. */
    std::optional<std::uint64_t> instructions;
    std::string benchmark;
    double timeSec = 0.0;
};

/**
 * Reads a whole trajectory buffer back, record by record. This is the
 * one place that knows how records are framed on disk and where their
 * identity sits: a JSON-lines record is one line holding a JSON
 * object, a CSV file is a header row and then one row per record
 * (columns found by header name), and a gtrj file is the magic /
 * version header and then one frame per record. Merge and `--verify`
 * read through it.
 */
class TrajectoryReader
{
  public:
    enum class Status
    {
        ok,   ///< a record: scenario and index are always present
        eof,  ///< the buffer ends exactly after the last record
        torn, ///< trailing bytes that are not a whole record
        bad,  ///< a whole record (or header) that does not parse
    };

    /** Reads the CSV header row or the gtrj header now; a torn or
     *  bad header is what the first next() returns. */
    TrajectoryReader(std::string_view buf, TrajectoryFormat format);

    /** The next record into @p rec. After anything but ok, every
     *  later call returns the same status. An unterminated final
     *  line is torn, whatever it holds. */
    Status next(TrajectoryRecord &rec);

    /** The CSV header row (without '\n') or the gtrj file header;
     *  empty for JSON lines, an empty CSV file or a failed header. */
    std::string_view header() const { return header_; }

    /** Why the last next() returned torn or bad. */
    const std::string &error() const { return err_; }

  private:
    Status fail(Status st, std::string err);
    bool readCsvRow(std::string_view line, TrajectoryRecord &rec);

    std::string_view buf_;
    TrajectoryFormat format_;
    std::size_t valid_ = 0; ///< past the header and the last ok record
    std::string_view header_;
    std::optional<Status> stuck_; ///< the status every next() repeats
    std::string err_;
    /** CSV column of each record field, or none. */
    static constexpr std::size_t none = std::string_view::npos;
    std::size_t scenarioCol_ = none, indexCol_ = none,
                benchmarkCol_ = none, instructionsCol_ = none,
                timeSecCol_ = none, columns_ = 0;
};

/** The leading ok records of @p buf: the record count of a file the
 *  writers finished, or of a torn one up to its torn tail. */
std::size_t countTrajectoryRecords(std::string_view buf,
                                   TrajectoryFormat format);

/** One executed scenario as recorded in a manifest. */
struct ManifestScenario
{
    std::string name;           ///< scenario key, e.g. "fig05"
    std::size_t gridSize = 0;   ///< runs per replica (full grid)
    std::size_t replicas = 0;   ///< seed replications
    std::uint64_t configHash = 0; ///< runConfigHash of the full grid
};

/**
 * The `"engine"` value new manifests record. The simulator has one
 * event queue (the calendar queue); the field stays so archived
 * manifests keep their exact bytes. `--verify` also accepts archives
 * naming the retired `"heap"` engine, which popped events in the
 * same order.
 */
inline constexpr const char *manifestEngineName = "calendar";

/**
 * Write the run manifest as deterministic pretty-printed JSON: fixed
 * key order, no timestamps or host details. @p engineName is the
 * `"engine"` value (manifestEngineName, or the value carried over
 * from the shard manifests being merged), @p outputPath the
 * trajectory file this manifest describes (empty when --output was
 * not given). A sharded sweep (opts.shard.active()) additionally
 * records a `"shard": {"index": i, "count": N}` object; the scenario
 * entries always describe the canonical full grid, so N shard
 * manifests differ from the unsharded manifest only by the shard
 * object and the output path — which is what lets
 * `--merge-manifest` fuse them back byte-identically.
 */
void writeManifest(std::ostream &os, const SweepOptions &opts,
                   const std::string &engineName,
                   const std::string &outputPath,
                   const std::vector<ManifestScenario> &scenarios);

/** writeManifest() to @p path via temp-file + atomic rename, so a
 *  crash or full disk mid-write never leaves a torn manifest for
 *  `--verify` or `--merge-manifest` to read — either the old file
 *  survives intact or the new one is complete. Fatal on any IO
 *  error. */
void writeManifestFile(const std::string &path,
                       const SweepOptions &opts,
                       const std::string &engineName,
                       const std::string &outputPath,
                       const std::vector<ManifestScenario> &scenarios);

} // namespace gals::runner

#endif // RUNNER_TRAJECTORY_HH
