#include "runner/trajectory.hh"

#include <algorithm>
#include <cerrno>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <sstream>

#include "runner/atomic_file.hh"
#include "runner/gtrj.hh"
#include "runner/json.hh"
#include "runner/reporter.hh"
#include "runner/scenario.hh"
#include "runner/sweep_axes.hh"
#include "sim/logging.hh"

namespace gals::runner
{

namespace
{

std::string
hashHex(std::uint64_t h)
{
    char buf[24];
    std::snprintf(buf, sizeof(buf), "%016" PRIx64, h);
    return buf;
}

/** Split one RFC-4180 row into its fields; false on a malformed
 *  quoted field. */
bool
csvFields(std::string_view line, std::vector<std::string> &out)
{
    out.assign(1, std::string());
    std::size_t pos = 0;
    while (pos < line.size()) {
        std::string &field = out.back();
        if (line[pos] == ',') {
            out.emplace_back();
            ++pos;
        } else if (line[pos] == '"' && field.empty()) {
            for (++pos;; ++pos) {
                if (pos >= line.size())
                    return false; // unterminated quoted field
                if (line[pos] == '"') {
                    if (pos + 1 >= line.size() || line[pos + 1] != '"')
                        break;
                    ++pos; // "" is one escaped quote
                }
                field += line[pos];
            }
            ++pos;
            if (pos < line.size() && line[pos] != ',')
                return false; // text after the closing quote
        } else {
            field += line[pos++];
        }
    }
    return true;
}

/** The bare decimal digits our writers emit; strtoull alone would
 *  wrap "-1" to 2^64-1. */
bool
parseU64(const std::string &text, std::uint64_t &out)
{
    if (text.empty() ||
        text.find_first_not_of("0123456789") != std::string::npos)
        return false;
    errno = 0;
    out = std::strtoull(text.c_str(), nullptr, 10);
    return errno != ERANGE;
}

} // namespace

TrajectoryReader::TrajectoryReader(std::string_view buf,
                                   TrajectoryFormat format)
    : buf_(buf), format_(format)
{
    if (format_ == TrajectoryFormat::gtrj) {
        std::size_t pos = 0;
        if (gtrj::readHeader(buf_, pos, err_)) {
            header_ = buf_.substr(0, pos);
            valid_ = pos;
        } else {
            // A crash before the header was whole leaves a prefix of
            // it: torn, like any other half-written tail.
            const std::string &h = gtrj::fileHeader();
            fail(buf_.size() < h.size() &&
                         h.compare(0, buf_.size(), buf_) == 0
                     ? Status::torn
                     : Status::bad,
                 err_);
        }
        return;
    }
    if (format_ != TrajectoryFormat::csv || buf_.empty())
        return; // JSON lines, or a CSV sink that got no record
    const std::size_t nl = buf_.find('\n');
    if (nl == none) {
        fail(Status::torn, "unterminated CSV header row");
        return;
    }
    std::vector<std::string> names;
    if (!csvFields(buf_.substr(0, nl), names)) {
        fail(Status::bad, "malformed CSV header row");
        return;
    }
    const auto column = [&names](const char *name) {
        const auto it = std::find(names.begin(), names.end(), name);
        return it == names.end() ? none
                                 : static_cast<std::size_t>(
                                       it - names.begin());
    };
    scenarioCol_ = column("scenario");
    indexCol_ = column("index");
    benchmarkCol_ = column("benchmark");
    instructionsCol_ = column("instructions");
    timeSecCol_ = column("time_sec");
    if (scenarioCol_ == none || indexCol_ == none) {
        fail(Status::bad, "CSV header has no scenario/index column");
        return;
    }
    columns_ = names.size();
    header_ = buf_.substr(0, nl);
    valid_ = nl + 1;
}

TrajectoryReader::Status
TrajectoryReader::fail(Status st, std::string err)
{
    stuck_ = st;
    err_ = std::move(err);
    return st;
}

TrajectoryReader::Status
TrajectoryReader::next(TrajectoryRecord &rec)
{
    if (stuck_)
        return *stuck_;
    const std::size_t start = valid_;
    if (start == buf_.size())
        return fail(Status::eof, "");
    const std::string at = " at offset " + std::to_string(start);
    rec = TrajectoryRecord();

    if (format_ == TrajectoryFormat::gtrj) {
        std::size_t pos = start;
        std::string_view payload;
        std::string err;
        if (gtrj::nextFrame(buf_, pos, payload, err) !=
            gtrj::FrameStatus::ok)
            return fail(Status::torn, err);
        gtrj::DecodedRecord dec;
        if (!gtrj::decodePayload(payload, dec, err))
            return fail(Status::bad, "frame" + at + ": " + err);
        rec.raw = buf_.substr(start, pos - start);
        rec.scenario = std::move(dec.scenario);
        rec.index = dec.index;
        rec.instructions = dec.cfg.instructions;
        rec.benchmark = std::move(dec.results.benchmark);
        rec.timeSec = dec.results.timeSec;
        valid_ = pos;
        return Status::ok;
    }

    const std::size_t nl = buf_.find('\n', start);
    if (nl == none)
        return fail(Status::torn, "unterminated final line" + at);
    rec.raw = buf_.substr(start, nl - start);
    if (format_ == TrajectoryFormat::csv) {
        if (!readCsvRow(rec.raw, rec))
            return fail(Status::bad, "CSV row" + at + ": " + err_);
    } else {
        json::Value v;
        std::string err;
        if (!json::parse(std::string(rec.raw), v, err))
            return fail(Status::bad, "JSON record" + at + ": " + err);
        const json::Value *s = v.find("scenario");
        const json::Value *i = v.find("index");
        if (!s || s->kind != json::Value::Kind::string || !i ||
            !i->asU64(rec.index))
            return fail(Status::bad,
                        "JSON record" + at +
                            " lacks a string 'scenario' or an "
                            "integral 'index'");
        rec.scenario = s->str;
        std::uint64_t insts = 0;
        if (const json::Value *n = v.find("instructions"))
            if (n->asU64(insts))
                rec.instructions = insts;
        if (const json::Value *b = v.find("benchmark"))
            rec.benchmark = b->str;
        if (const json::Value *t = v.find("time_sec"))
            rec.timeSec = t->number;
    }
    valid_ = nl + 1;
    return Status::ok;
}

bool
TrajectoryReader::readCsvRow(std::string_view line,
                             TrajectoryRecord &rec)
{
    std::vector<std::string> f;
    if (!csvFields(line, f) || f.size() != columns_) {
        err_ = "malformed row, or not one field per header column";
        return false;
    }
    rec.scenario = f[scenarioCol_];
    if (!parseU64(f[indexCol_], rec.index)) {
        err_ = "bad index '" + f[indexCol_] + "'";
        return false;
    }
    std::uint64_t insts = 0;
    if (instructionsCol_ != none &&
        parseU64(f[instructionsCol_], insts))
        rec.instructions = insts;
    if (benchmarkCol_ != none)
        rec.benchmark = f[benchmarkCol_];
    if (timeSecCol_ != none)
        rec.timeSec = std::strtod(f[timeSecCol_].c_str(), nullptr);
    return true;
}

std::size_t
countTrajectoryRecords(std::string_view buf, TrajectoryFormat format)
{
    TrajectoryReader reader(buf, format);
    TrajectoryRecord rec;
    std::size_t n = 0;
    while (reader.next(rec) == TrajectoryReader::Status::ok)
        ++n;
    return n;
}

TrajectoryFormat
trajectoryFormatForPath(const std::string &path)
{
    const std::size_t dot = path.find_last_of('.');
    if (dot != std::string::npos) {
        const std::string ext = path.substr(dot);
        if (ext == ".csv")
            return TrajectoryFormat::csv;
        if (ext == ".gtrj")
            return TrajectoryFormat::gtrj;
    }
    return TrajectoryFormat::jsonLines;
}

bool
trajectoryFormatForCliPath(const std::string &path,
                           TrajectoryFormat &out)
{
    const std::size_t dot = path.find_last_of('.');
    if (dot == std::string::npos)
        return false;
    const std::string ext = path.substr(dot);
    if (ext == ".jsonl" || ext == ".json") {
        out = TrajectoryFormat::jsonLines;
        return true;
    }
    if (ext == ".csv") {
        out = TrajectoryFormat::csv;
        return true;
    }
    if (ext == ".gtrj") {
        out = TrajectoryFormat::gtrj;
        return true;
    }
    return false;
}

const char *
trajectoryFormatName(TrajectoryFormat format)
{
    switch (format) {
      case TrajectoryFormat::csv:
        return "csv";
      case TrajectoryFormat::gtrj:
        return "gtrj";
      default:
        return "jsonl";
    }
}

TrajectorySink::TrajectorySink(const std::string &path)
    : path_(path), format_(trajectoryFormatForPath(path)),
      file_(path, std::ios::out | std::ios::binary | std::ios::trunc),
      os_(&file_)
{
    if (!file_)
        gals_fatal("cannot open trajectory file '", path_,
                   "' for writing");
    if (format_ == TrajectoryFormat::gtrj)
        *os_ << gtrj::fileHeader();
}

TrajectorySink::TrajectorySink(std::ostream &os,
                               TrajectoryFormat format,
                               const std::string &path)
    : path_(path), format_(format), os_(&os)
{
    if (format_ == TrajectoryFormat::gtrj)
        *os_ << gtrj::fileHeader();
}

void
TrajectorySink::append(const std::string &scenario,
                       const std::vector<RunConfig> &cfgs,
                       const std::vector<RunResults> &results,
                       const std::vector<std::size_t> *indices)
{
    if (format_ == TrajectoryFormat::jsonLines) {
        writeJsonLines(*os_, scenario, cfgs, results, indices);
    } else if (format_ == TrajectoryFormat::gtrj) {
        gals_assert(cfgs.size() == results.size(),
                    "trajectory sink: ", cfgs.size(), " configs vs ",
                    results.size(), " results");
        for (std::size_t i = 0; i < results.size(); ++i) {
            const std::size_t index = indices ? (*indices)[i] : i;
            const std::string frame = gtrj::encodeRecord(
                scenario, index, cfgs[i], results[i]);
            os_->write(frame.data(),
                       static_cast<std::streamsize>(frame.size()));
        }
    } else if (!results.empty()) {
        // Defer the header to the first non-empty grid: an empty one
        // (a literature-only scenario, or a shard slice with no
        // records) has no record to take the energy_nj.* column set
        // from.
        if (!wroteHeader_) {
            writeCsvHeader(*os_, results.front());
            wroteHeader_ = true;
        }
        writeCsvRows(*os_, scenario, cfgs, results, indices);
    }
    // Fail the sweep now, not after simulating the remaining
    // scenarios: a bad stream here means records are already lost.
    if (!*os_)
        gals_fatal("error writing trajectory file '", path_, "'");
}

void
TrajectorySink::close()
{
    if (os_ == &file_ && !file_.is_open())
        return;
    os_->flush();
    if (!*os_)
        gals_fatal("error writing trajectory file '", path_, "'");
    if (os_ != &file_)
        return;
    file_.close();
    if (!file_)
        gals_fatal("error closing trajectory file '", path_, "'");
}

void
writeManifest(std::ostream &os, const SweepOptions &opts,
              const std::string &engineName,
              const std::string &outputPath,
              const std::vector<ManifestScenario> &scenarios)
{
    os << "{\n"
       << "  \"manifest_version\": 1,\n"
       << "  \"galssim_version\": " << jsonQuote(galssimVersion())
       << ",\n"
       << "  \"engine\": " << jsonQuote(engineName) << ",\n";
    writeSweepAxes(os, opts);

    if (opts.shard.active())
        os << "  \"shard\": {\"index\": " << opts.shard.index
           << ", \"count\": " << opts.shard.count << "},\n";

    if (outputPath.empty()) {
        os << "  \"output\": null,\n";
    } else {
        os << "  \"output\": " << jsonQuote(outputPath) << ",\n"
           << "  \"output_format\": "
           << jsonQuote(trajectoryFormatName(
                  trajectoryFormatForPath(outputPath)))
           << ",\n";
    }

    os << "  \"scenarios\": [";
    for (std::size_t i = 0; i < scenarios.size(); ++i) {
        const ManifestScenario &s = scenarios[i];
        os << (i ? ",\n" : "\n") << "    {\"name\": "
           << jsonQuote(s.name) << ", \"grid\": " << s.gridSize
           << ", \"replicas\": " << s.replicas
           << ", \"runs\": " << s.gridSize * s.replicas
           << ", \"config_hash\": " << jsonQuote(hashHex(s.configHash))
           << "}";
    }
    os << (scenarios.empty() ? "]\n" : "\n  ]\n") << "}\n";
}

void
writeManifestFile(const std::string &path, const SweepOptions &opts,
                  const std::string &engineName,
                  const std::string &outputPath,
                  const std::vector<ManifestScenario> &scenarios)
{
    // Atomic rename, not in-place truncate: a torn manifest must
    // never reach `--verify` or `--merge-manifest`.
    std::ostringstream os;
    writeManifest(os, opts, engineName, outputPath, scenarios);
    std::string err;
    if (!atomicWriteFile(path, os.str(), err))
        gals_fatal("manifest file: ", err);
}

} // namespace gals::runner
