#include "core/snapshot.hh"

#include <cstdio>
#include <fstream>
#include <iomanip>
#include <future>
#include <mutex>
#include <optional>
#include <sstream>
#include <unordered_map>

#include "sim/event_queue.hh"
#include "sim/logging.hh"
#include "sim/snapshot_io.hh"

namespace gals
{

namespace
{

constexpr const char *snapshotMagic = "GSNP";

/** Every snapshot ends in fnv1a64() of the bytes before it, as 8
 *  little-endian bytes: a flipped bit anywhere is caught before a
 *  single field is parsed, including bits in state that restores
 *  cleanly but would silently change the measured run. */
constexpr std::size_t checksumBytes = 8;

void
appendChecksum(std::string &bytes)
{
    const std::uint64_t sum = fnv1a64(bytes);
    for (std::size_t i = 0; i < checksumBytes; ++i)
        bytes.push_back(static_cast<char>(sum >> (8 * i)));
}

/** @p bytes without its checksum, or nothing when the checksum is
 *  missing or does not match. */
std::optional<std::string_view>
checkedBody(std::string_view bytes)
{
    if (bytes.size() < checksumBytes)
        return std::nullopt;
    const std::string_view body =
        bytes.substr(0, bytes.size() - checksumBytes);
    std::uint64_t sum = 0;
    for (std::size_t i = 0; i < checksumBytes; ++i)
        sum |= static_cast<std::uint64_t>(
                   static_cast<unsigned char>(bytes[body.size() + i]))
               << (8 * i);
    if (sum != fnv1a64(body))
        return std::nullopt;
    return body;
}

std::mutex cacheMutex;
std::unordered_map<std::uint64_t,
                   std::shared_future<std::shared_ptr<const std::string>>>
    snapshotCache;
std::string snapshotDirPath;

/** A scratch machine built from the canonical warmup config, used to
 *  produce snapshots and to validate untrusted disk bytes. */
struct WarmupMachine
{
    explicit WarmupMachine(const RunConfig &warmCfg)
        : eq("eq.warmup." + warmCfg.benchmark),
          proc(eq, procConfigOf(warmCfg),
               findBenchmark(warmCfg.benchmark), warmCfg.seed)
    {
    }

    static ProcessorConfig
    procConfigOf(const RunConfig &warmCfg)
    {
        ProcessorConfig pc = warmCfg.proc;
        pc.gals = warmCfg.gals;
        pc.dvfs = warmCfg.gals ? warmCfg.dvfs : DvfsSetting();
        pc.phaseSeed = effectivePhaseSeed(warmCfg);
        return pc;
    }

    EventQueue eq;
    Processor proc;
};

std::string
readWholeFile(const std::string &path)
{
    std::ifstream is(path, std::ios::binary);
    if (!is)
        return std::string();
    std::ostringstream os;
    os << is.rdbuf();
    return is.good() || is.eof() ? os.str() : std::string();
}

/** True when @p bytes fully restore into a scratch machine for
 *  @p cfg's warmup stem — the disk-snapshot trust gate. */
bool
validateSnapshotBytes(const RunConfig &cfg, const std::string &bytes)
{
    if (bytes.empty())
        return false;
    WarmupMachine scratch(canonicalWarmupConfig(cfg));
    std::string err;
    return restoreWarmMachine(scratch.proc, cfg, bytes, &err);
}

/** Atomic publish: write to a temp file in the same directory, then
 *  rename over the final name. Concurrent writers (shard processes on
 *  one filesystem) each use a private temp name; the last rename
 *  wins with identical content. Failures are silently ignored — the
 *  directory is a cache, not a store of record. */
void
writeSnapshotFile(const std::string &path, const std::string &bytes)
{
    std::ostringstream tmp_name;
    tmp_name << path << ".tmp." << static_cast<const void *>(&bytes);
    const std::string tmp = tmp_name.str();
    {
        std::ofstream os(tmp, std::ios::binary | std::ios::trunc);
        if (!os)
            return;
        os.write(bytes.data(),
                 static_cast<std::streamsize>(bytes.size()));
        if (!os.good()) {
            os.close();
            std::remove(tmp.c_str());
            return;
        }
    }
    if (std::rename(tmp.c_str(), path.c_str()) != 0)
        std::remove(tmp.c_str());
}

std::shared_ptr<const std::string>
loadOrProduce(const RunConfig &cfg, std::uint64_t key)
{
    std::string dir;
    {
        std::lock_guard<std::mutex> lock(cacheMutex);
        dir = snapshotDirPath;
    }

    if (!dir.empty()) {
        const std::string path = snapshotPathFor(dir, key);
        std::string bytes = readWholeFile(path);
        if (validateSnapshotBytes(cfg, bytes))
            return std::make_shared<const std::string>(
                std::move(bytes));
        // Missing, truncated, stale or foreign: fall through and
        // re-produce (overwriting whatever is there).
    }

    auto bytes = std::make_shared<const std::string>(
        produceWarmupSnapshot(cfg));
    if (!dir.empty())
        writeSnapshotFile(snapshotPathFor(dir, key), *bytes);
    return bytes;
}

} // namespace

RunConfig
canonicalWarmupConfig(const RunConfig &cfg)
{
    RunConfig c = cfg;
    c.instructions = cfg.warmupInstructions;
    c.warmupInstructions = 0;
    c.dvfs = DvfsSetting();
    c.phaseSeed = phaseSeedFollowsWorkload;
    c.dynamicDvfs = false;
    c.intervalTicks = 0;
    c.fabric = FabricConfig();
    return c;
}

std::uint64_t
warmupKeyHash(const RunConfig &cfg)
{
    gals_assert(cfg.warmupInstructions > 0,
                "warmup key of a run without a warmup split");
    return runConfigHash(canonicalWarmupConfig(cfg));
}

std::string
produceWarmupSnapshot(const RunConfig &cfg)
{
    const RunConfig wc = canonicalWarmupConfig(cfg);
    gals_assert(wc.instructions > 0, "empty warmup region");

    WarmupMachine m(wc);
    m.proc.runWarmup(wc.instructions);
    // Quiescence implies no instruction is referenced anywhere; the
    // snapshot format relies on it.
    gals_assert(m.proc.instPool().live() == 0,
                "warm snapshot with live in-flight instructions");

    SnapshotWriter w;
    w.str(snapshotMagic);
    w.u64(snapshotFormatVersion);
    w.str(galssimVersion());
    w.u64(warmupKeyHash(cfg));
    w.u64(cfg.warmupInstructions);
    w.str(cfg.benchmark);
    w.section("machine");
    m.proc.snapshotSave(w);
    w.section("end");
    std::string bytes = w.take();
    appendChecksum(bytes);
    return bytes;
}

bool
restoreWarmMachine(Processor &proc, const RunConfig &cfg,
                   std::string_view bytes, std::string *err)
{
    const std::optional<std::string_view> body = checkedBody(bytes);
    if (!body) {
        if (err)
            *err = "snapshot checksum mismatch (corrupt or truncated)";
        return false;
    }
    SnapshotReader r(*body);

    const std::string magic = r.str();
    if (r.ok() && magic != snapshotMagic)
        r.fail("not a warm-snapshot stream (bad magic)");
    r.expectU64(r.u64(), snapshotFormatVersion,
                "snapshot format version");
    const std::string version = r.str();
    if (r.ok() && version != galssimVersion())
        r.fail("snapshot from simulator version '" + version + "'");
    r.expectU64(r.u64(), warmupKeyHash(cfg), "warmup key");
    r.expectU64(r.u64(), cfg.warmupInstructions,
                "warmup instruction count");
    const std::string bench = r.str();
    if (r.ok() && bench != cfg.benchmark)
        r.fail("snapshot for benchmark '" + bench + "'");

    r.section("machine");
    if (r.ok())
        proc.snapshotRestore(r);
    r.section("end");

    if (r.ok() && !r.atEnd())
        r.fail("trailing bytes after snapshot");
    if (!r.ok()) {
        if (err)
            *err = r.error();
        return false;
    }
    return true;
}

std::shared_ptr<const std::string>
acquireWarmupSnapshot(const RunConfig &cfg)
{
    const std::uint64_t key = warmupKeyHash(cfg);

    std::shared_future<std::shared_ptr<const std::string>> fut;
    std::promise<std::shared_ptr<const std::string>> prom;
    bool producer = false;
    {
        std::lock_guard<std::mutex> lock(cacheMutex);
        auto it = snapshotCache.find(key);
        if (it == snapshotCache.end()) {
            producer = true;
            fut = prom.get_future().share();
            snapshotCache.emplace(key, fut);
        } else {
            fut = it->second;
        }
    }

    if (producer)
        prom.set_value(loadOrProduce(cfg, key));
    return fut.get();
}

void
setSnapshotDir(const std::string &dir)
{
    std::lock_guard<std::mutex> lock(cacheMutex);
    snapshotDirPath = dir;
}

std::string
snapshotDir()
{
    std::lock_guard<std::mutex> lock(cacheMutex);
    return snapshotDirPath;
}

std::string
snapshotPathFor(const std::string &dir, std::uint64_t key)
{
    std::ostringstream os;
    os << dir << "/snap_" << std::hex << std::setw(16)
       << std::setfill('0') << key << ".gsnp";
    return os.str();
}

void
clearSnapshotCache()
{
    std::lock_guard<std::mutex> lock(cacheMutex);
    snapshotCache.clear();
}

} // namespace gals
