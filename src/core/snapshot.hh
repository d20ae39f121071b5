/**
 * @file
 * Warm-state checkpointing: serialize the long-lived
 * microarchitectural state of a machine that has committed a warmup
 * prefix, and restore it into fresh machines so sweep cells sharing
 * the same warmup stem pay for it once (RunConfig::warmupInstructions,
 * `galsbench --warmup-insts K`).
 *
 * ## The split and the contract
 *
 * A run with warmupInstructions = W and instructions = N executes
 * W instructions under the *canonical warmup configuration* (DVFS
 * neutral, clock-phase seed following the workload seed, dynamic
 * DVFS and the interval meter off), drains the pipeline to total
 * quiescence, snapshots, then runs the remaining N - W instructions
 * on a fresh event queue under the cell's own DVFS / phases / meter.
 * Statistics, energy and simulated time cover the measured region
 * only.
 *
 * Every warm run — including the very first, "cold" one — goes
 * through serialize -> deserialize: the producer's machine is only
 * ever used to make bytes, and the measured machine is always a
 * fresh construction restored from those bytes. Memoized and
 * non-memoized runs of the same configuration therefore execute
 * byte-identical instruction-by-instruction trajectories at any job
 * count: the contract holds by construction, not by careful
 * bookkeeping.
 *
 * ## Keying and sharing
 *
 * warmupKeyHash() hashes exactly the warmup-relevant subset of a
 * RunConfig — benchmark, W, workload seed, GALS mode and the
 * run-defining processor scalars — by reusing runConfigHash() over
 * canonicalWarmupConfig(). Cells that differ only in DVFS setting,
 * phase seed, dynamic-DVFS flag, meter period or total instruction
 * count share one key and one snapshot.
 *
 * Snapshots are memoized in a process-wide cache (one producer per
 * key, concurrent requesters block on its completion) and,
 * optionally, in a directory (`--snapshot-dir`) shared between
 * processes, e.g. the `--shard i/N` runs of one sweep. Disk
 * snapshots are written atomically (temp + rename). Every snapshot
 * ends in a 64-bit checksum of its body, and a disk file is trusted
 * only when the checksum matches and a full test-restore succeeds;
 * truncated, corrupt, stale or foreign files are silently ignored
 * and the snapshot is re-produced.
 */

#ifndef CORE_SNAPSHOT_HH
#define CORE_SNAPSHOT_HH

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>

#include "core/experiment.hh"

namespace gals
{

/** Warm-snapshot container format version (header field; bumped on
 *  any layout change — readers reject other versions). Version 2
 *  added the trailing body checksum. */
constexpr std::uint64_t snapshotFormatVersion = 2;

/**
 * The configuration a warmup snapshot for @p cfg is produced under:
 * @p cfg with instructions = warmupInstructions, DVFS neutralized,
 * the phase seed following the workload seed, dynamic DVFS and the
 * interval meter off, and warmupInstructions itself cleared. The
 * single point defining which axes share a warmup stem.
 */
RunConfig canonicalWarmupConfig(const RunConfig &cfg);

/**
 * Stable 64-bit key of the warmup-relevant subset of @p cfg:
 * runConfigHash() of canonicalWarmupConfig(). Identical across
 * machines, engines and job counts.
 */
std::uint64_t warmupKeyHash(const RunConfig &cfg);

/**
 * Run the canonical warmup for @p cfg from scratch and serialize the
 * quiescent machine. Deterministic: same cfg, same bytes. Does not
 * consult or populate any cache.
 */
std::string produceWarmupSnapshot(const RunConfig &cfg);

/**
 * Snapshot bytes for @p cfg's warmup stem: from the in-process
 * cache, else from the snapshot directory (validated), else produced
 * by produceWarmupSnapshot() — and then cached (and written to the
 * directory when one is set). Thread-safe; concurrent calls for one
 * key produce once.
 */
std::shared_ptr<const std::string> acquireWarmupSnapshot(
    const RunConfig &cfg);

/**
 * Restore warm state from @p bytes into the freshly constructed
 * @p proc, checking the trailing body checksum first, then the
 * header (magic, format version, simulator version, warmup key of
 * @p cfg) and every structural field on the way. Returns false and sets @p err on any mismatch or truncation;
 * @p proc is then partially mutated and must be discarded.
 */
bool restoreWarmMachine(Processor &proc, const RunConfig &cfg,
                        std::string_view bytes, std::string *err);

/**
 * Set (or clear, with "") the directory snapshots are exchanged
 * through. Process-wide; `galsbench --snapshot-dir`. The directory
 * must already exist.
 */
void setSnapshotDir(const std::string &dir);

/** Current snapshot directory ("" when unset). */
std::string snapshotDir();

/** Path a given warmup key is stored at under @p dir. */
std::string snapshotPathFor(const std::string &dir,
                            std::uint64_t key);

/** Drop every memoized snapshot (tests and benchmark cold legs). */
void clearSnapshotCache();

} // namespace gals

#endif // CORE_SNAPSHOT_HH
