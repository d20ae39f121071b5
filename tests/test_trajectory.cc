/**
 * @file
 * Tests for TrajectoryReader, the one reader of trajectory records.
 * Files from the repo's own writers read back in all three formats
 * with their identity fields and raw bytes; torn and bad input is
 * told apart; and a seeded mutation pass (truncation at every
 * offset, single-bit flips, inflated gtrj frame lengths) never
 * crashes the reader and never yields a record the intact file does
 * not hold at the same place. The CI sanitizer job runs this file.
 */

#include <gtest/gtest.h>

#include <random>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "core/experiment.hh"
#include "power/power_model.hh"
#include "runner/gtrj.hh"
#include "runner/trajectory.hh"

using namespace gals;
using namespace gals::runner;

namespace
{

using Status = TrajectoryReader::Status;

RunConfig
config(const std::string &benchmark, std::uint64_t seed)
{
    RunConfig c;
    c.benchmark = benchmark;
    c.instructions = 2000;
    c.gals = seed % 2;
    c.seed = seed;
    return c;
}

RunResults
results(const std::string &benchmark, std::uint64_t seed)
{
    RunResults r;
    r.benchmark = benchmark;
    r.gals = seed % 2;
    r.committed = 2000 + seed;
    r.fetched = 3000 + seed;
    r.ticks = 9000 + 7 * seed;
    r.timeSec = 0.25 * static_cast<double>(seed + 1);
    r.ipcNominal = 0.5;
    r.energyJ = 2.0;
    r.avgPowerW = 4.0;
    // The gtrj encoder stores the full unit set positionally.
    for (unsigned u = 0; u < numUnits; ++u)
        r.unitEnergyNj[unitName(static_cast<Unit>(u))] =
            1.5 + static_cast<double>(u + seed);
    return r;
}

/** A trajectory from the real sink: two plain runs (one with a
 *  benchmark name CSV must quote), an interval-metered run and a
 *  4-core fabric run with per-core results. */
std::string
seedFile(TrajectoryFormat format)
{
    std::ostringstream os;
    TrajectorySink sink(os, format);
    sink.append("alpha", {config("adpcm", 0), config("ad,pc\"m", 1)},
                {results("adpcm", 0), results("ad,pc\"m", 1)});

    RunConfig metered = config("gcc", 2);
    metered.intervalTicks = 5000;
    RunResults sampled = results("gcc", 2);
    for (unsigned i = 1; i <= 2; ++i) {
        IntervalSample s;
        s.tick = 5000u * i;
        s.committed = 100u * i;
        s.ipc = 0.1 * i;
        for (unsigned d = 0; d < numDomains; ++d)
            s.energyNj[d] = i + 0.5 * d;
        s.fifoOcc = i;
        sampled.intervals.push_back(s);
    }
    sink.append("beta", {metered}, {sampled}, nullptr);

    RunConfig fabric = config("fpppp", 3);
    fabric.fabric.cores = 4;
    fabric.fabric.topology = TopologyKind::mesh2d;
    fabric.fabric.traffic = "hotspot:2";
    RunResults cores = results("fpppp", 3);
    for (unsigned c = 0; c < 4; ++c) {
        CoreResults cr;
        cr.core = c;
        cr.committed = 500 + c;
        cr.msgsSent = c;
        cr.avgRemoteLatencyCycles = 12.5 + c;
        cores.cores.push_back(cr);
    }
    const std::vector<std::size_t> index{5};
    sink.append("fabric", {fabric}, {cores}, &index);
    sink.close();
    return os.str();
}

const TrajectoryFormat allFormats[] = {TrajectoryFormat::jsonLines,
                                       TrajectoryFormat::csv,
                                       TrajectoryFormat::gtrj};

/** Bytes after each record: text records end in '\n'. */
std::size_t
eolSize(TrajectoryFormat format)
{
    return format == TrajectoryFormat::gtrj ? 0 : 1;
}

/** Where the first record of @p buf starts: past the CSV header row
 *  or the gtrj header, 0 for JSON lines or a failed header. */
std::size_t
headerEnd(std::string_view buf, TrajectoryFormat format)
{
    const std::string_view h = TrajectoryReader(buf, format).header();
    return h.empty() ? 0 : h.size() + eolSize(format);
}

/** Everything a reader yields from @p buf. */
struct Read
{
    /** Offset and raw bytes of each ok record. */
    std::vector<std::pair<std::size_t, std::string>> records;
    std::vector<TrajectoryRecord> fields;
    Status last = Status::ok;
    /** The last ok record's offset plus its length (and '\n'), or the
     *  header's end when no record was read. */
    std::size_t recordsEnd = 0;
};

Read
readAll(std::string_view buf, TrajectoryFormat format)
{
    TrajectoryReader reader(buf, format);
    Read out;
    TrajectoryRecord rec;
    while ((out.last = reader.next(rec)) == Status::ok) {
        out.records.push_back(
            {static_cast<std::size_t>(rec.raw.data() - buf.data()),
             std::string(rec.raw)});
        out.fields.push_back(rec);
    }
    out.recordsEnd = out.records.empty()
                         ? headerEnd(buf, format)
                         : out.records.back().first +
                               out.records.back().second.size() +
                               eolSize(format);
    TrajectoryRecord again;
    EXPECT_EQ(reader.next(again), out.last) << "status must stick";
    return out;
}

TEST(TrajectoryReader, ReadsEveryWriterFormatBack)
{
    for (TrajectoryFormat format : allFormats) {
        SCOPED_TRACE(trajectoryFormatName(format));
        const std::string file = seedFile(format);
        const Read read = readAll(file, format);
        EXPECT_EQ(read.last, Status::eof);
        EXPECT_EQ(read.recordsEnd, file.size());
        ASSERT_EQ(read.fields.size(), 4u);

        const struct
        {
            const char *scenario;
            std::uint64_t index;
            const char *benchmark;
            double timeSec;
        } want[] = {{"alpha", 0, "adpcm", 0.25},
                    {"alpha", 1, "ad,pc\"m", 0.5},
                    {"beta", 0, "gcc", 0.75},
                    {"fabric", 5, "fpppp", 1.0}};
        for (std::size_t k = 0; k < 4; ++k) {
            const TrajectoryRecord &rec = read.fields[k];
            EXPECT_EQ(rec.scenario, want[k].scenario);
            EXPECT_EQ(rec.index, want[k].index);
            EXPECT_EQ(rec.benchmark, want[k].benchmark);
            EXPECT_DOUBLE_EQ(rec.timeSec, want[k].timeSec);
            ASSERT_TRUE(rec.instructions.has_value());
            EXPECT_EQ(*rec.instructions, 2000u);
        }

        // Header and raw records reassemble the file exactly: this is
        // what merge writes back out.
        const std::string eol(eolSize(format), '\n');
        TrajectoryReader reader(file, format);
        std::string rebuilt(reader.header());
        if (!rebuilt.empty())
            rebuilt += eol;
        for (const auto &[offset, raw] : read.records)
            rebuilt += raw + eol;
        EXPECT_EQ(rebuilt, file);
    }
}

TEST(TrajectoryReader, EmptyInputAndHeaderShapes)
{
    // An empty text file holds no record; a gtrj file always starts
    // with its header, so an empty one is torn.
    EXPECT_EQ(readAll("", TrajectoryFormat::jsonLines).last,
              Status::eof);
    EXPECT_EQ(readAll("", TrajectoryFormat::csv).last, Status::eof);
    EXPECT_EQ(readAll("", TrajectoryFormat::gtrj).last, Status::torn);

    const std::string &h = gtrj::fileHeader();
    EXPECT_EQ(readAll(h.substr(0, 2), TrajectoryFormat::gtrj).last,
              Status::torn);
    EXPECT_EQ(readAll("GTRX\x01", TrajectoryFormat::gtrj).last,
              Status::bad);
    const Read headerOnly = readAll(h, TrajectoryFormat::gtrj);
    EXPECT_EQ(headerOnly.last, Status::eof);
    EXPECT_EQ(headerOnly.recordsEnd, h.size());

    EXPECT_EQ(readAll("scenario,index", TrajectoryFormat::csv).last,
              Status::torn);
    const Read noIndex =
        readAll("scenario,seed\ns,1\n", TrajectoryFormat::csv);
    EXPECT_EQ(noIndex.last, Status::bad);
    EXPECT_EQ(noIndex.recordsEnd, 0u);
}

TEST(TrajectoryReader, CsvColumnsAreFoundByHeaderName)
{
    const std::string csv = "index,time_sec,\"scenario\",extra\n"
                            "3,0.25,\"a,\"\"b\",x\n"
                            "4,0.5,c\n";
    TrajectoryReader reader(csv, TrajectoryFormat::csv);
    TrajectoryRecord rec;
    ASSERT_EQ(reader.next(rec), Status::ok) << reader.error();
    EXPECT_EQ(rec.scenario, "a,\"b");
    EXPECT_EQ(rec.index, 3u);
    EXPECT_DOUBLE_EQ(rec.timeSec, 0.25);
    EXPECT_FALSE(rec.instructions.has_value());
    EXPECT_EQ(rec.benchmark, "");
    // One field short of the header.
    EXPECT_EQ(reader.next(rec), Status::bad);
    EXPECT_NE(reader.error().find("header column"), std::string::npos)
        << reader.error();
}

TEST(TrajectoryReader, JsonLinesTornAndBad)
{
    const std::string good = "{\"scenario\":\"s\",\"index\":0}\n";
    const Read torn = readAll(good + "{\"scenario\":\"s\",\"index\":1}",
                              TrajectoryFormat::jsonLines);
    EXPECT_EQ(torn.records.size(), 1u);
    EXPECT_EQ(torn.last, Status::torn);
    EXPECT_EQ(torn.recordsEnd, good.size());

    for (const char *bad : {"not json\n", "{\"scenario\":\"s\"}\n",
                            "{\"scenario\":1,\"index\":0}\n",
                            "{\"scenario\":\"s\",\"index\":-1}\n", "\n"}) {
        SCOPED_TRACE(bad);
        const Read read =
            readAll(good + bad + good, TrajectoryFormat::jsonLines);
        EXPECT_EQ(read.records.size(), 1u);
        EXPECT_EQ(read.last, Status::bad);
    }
}

// ------------------------------------------------------ mutation pass

/** Offset of each intact record's end (its '\n' included). */
std::vector<std::size_t>
recordEnds(const Read &intact, TrajectoryFormat format)
{
    std::vector<std::size_t> ends;
    for (const auto &[offset, raw] : intact.records)
        ends.push_back(offset + raw.size() + eolSize(format));
    return ends;
}

TEST(TrajectoryReaderMutation, TruncationAtEveryOffsetReadsAPrefix)
{
    for (TrajectoryFormat format : allFormats) {
        SCOPED_TRACE(trajectoryFormatName(format));
        const std::string file = seedFile(format);
        const Read intact = readAll(file, format);
        const std::vector<std::size_t> ends = recordEnds(intact, format);
        const std::size_t fileHeaderEnd = headerEnd(file, format);
        for (std::size_t cut = 0; cut < file.size(); ++cut) {
            const std::string part = file.substr(0, cut);
            const Read read = readAll(part, format);
            std::size_t whole = 0;
            while (whole < ends.size() && ends[whole] <= cut)
                ++whole;
            ASSERT_EQ(read.records.size(), whole) << "cut " << cut;
            for (std::size_t k = 0; k < whole; ++k)
                ASSERT_EQ(read.records[k], intact.records[k])
                    << "cut " << cut;
            // A cut never reads as corrupt: the reader ends cleanly
            // at a record boundary and calls anything else torn.
            const std::size_t boundary =
                whole ? ends[whole - 1]
                      : (cut >= fileHeaderEnd ? fileHeaderEnd : 0);
            const bool atBoundary =
                cut == boundary &&
                !(format == TrajectoryFormat::gtrj && cut < fileHeaderEnd);
            ASSERT_EQ(read.last, atBoundary ? Status::eof : Status::torn)
                << "cut " << cut;
            ASSERT_EQ(read.recordsEnd, atBoundary ? cut : boundary)
                << "cut " << cut;
        }
    }
}

TEST(TrajectoryReaderMutation, SingleBitFlipsNeverMisframe)
{
    // One flip per byte, the bit drawn from a fixed-seed generator.
    std::mt19937 rng(20021);
    for (TrajectoryFormat format : allFormats) {
        SCOPED_TRACE(trajectoryFormatName(format));
        const std::string file = seedFile(format);
        const Read intact = readAll(file, format);
        std::size_t misread = 0;
        for (std::size_t at = 0; at < file.size(); ++at) {
            std::string flipped = file;
            flipped[at] = static_cast<char>(
                flipped[at] ^ (1u << (rng() % 8)));
            const Read read = readAll(flipped, format);
            // Every record read sits exactly where an intact record
            // does; only the one holding the flipped byte may read
            // differently.
            ASSERT_LE(read.records.size(), intact.records.size())
                << "byte " << at;
            for (std::size_t k = 0; k < read.records.size(); ++k) {
                const auto &[offset, raw] = read.records[k];
                const auto &[wantOffset, wantRaw] = intact.records[k];
                ASSERT_EQ(offset, wantOffset) << "byte " << at;
                ASSERT_EQ(raw.size(), wantRaw.size()) << "byte " << at;
                if (at < offset || at >= offset + raw.size()) {
                    ASSERT_EQ(raw, wantRaw) << "byte " << at;
                }
            }
            misread += read.last != Status::eof;
        }
        // The pass must actually exercise the failure paths.
        EXPECT_GT(misread, 0u);
    }
}

TEST(TrajectoryReaderMutation, InflatedGtrjLengthEndsTheRecords)
{
    const std::string file = seedFile(TrajectoryFormat::gtrj);
    const Read intact = readAll(file, TrajectoryFormat::gtrj);
    for (std::size_t k = 0; k < intact.records.size(); ++k) {
        const auto &[offset, raw] = intact.records[k];
        std::size_t p = 0;
        std::uint64_t len = 0;
        ASSERT_TRUE(gtrj::readVarint(raw, p, len));
        for (std::uint64_t inflated :
             {len + 1, len + 64, len << 20, ~std::uint64_t(0)}) {
            SCOPED_TRACE("record " + std::to_string(k) + " length " +
                         std::to_string(inflated));
            std::string prefix;
            gtrj::appendVarint(prefix, inflated);
            const std::string mutated = file.substr(0, offset) + prefix +
                                        file.substr(offset + p);
            const Read read = readAll(mutated, TrajectoryFormat::gtrj);
            ASSERT_EQ(read.records.size(), k);
            for (std::size_t j = 0; j < k; ++j)
                EXPECT_EQ(read.records[j], intact.records[j]);
            EXPECT_NE(read.last, Status::eof);
            EXPECT_EQ(read.recordsEnd, offset);
        }
    }
}

} // namespace
