/**
 * @file
 * Fuzzing the trace-file ingestion surface: seeded corruptions of a
 * valid .smtr file — truncations, bit flips, header mutations, raw
 * garbage, partial-record tails — fed to every reader entry point
 * (loadTrace, streaming TraceReader, the sharded query executor),
 * and the header mutations fed to the repair and resume paths too.
 * The contract under attack is "clean error or clean result, never a
 * crash": a corrupt file must surface as a non-empty error message
 * (or parse as a shorter-but-valid trace when the damage lands in
 * record payload bytes), and must never fault, over-read, or leak —
 * the suite runs under the ASan/UBSan CI job to make those
 * properties machine-checked rather than aspirational.
 *
 * The same contract holds for a file that changes while it is read:
 * truncated, re-saved in place or renamed over under an open reader
 * or a running sharded query, a trace ends in a clean result or a
 * "truncated" error, never in a signal.
 *
 * Everything is seeded, so any failure replays deterministically
 * (the concurrent truncation's timing aside).
 */

#include <gtest/gtest.h>

#include <chrono>
#include <cstdio>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include <fcntl.h>
#include <unistd.h>

#include "query/engine.hh"
#include "query/sharded.hh"
#include "scratch_dir.hh"
#include "sim/random.hh"
#include "trace/io.hh"

using namespace supmon;
using trace::TraceEvent;

namespace
{

constexpr std::uint16_t tokWork = 1;
constexpr std::uint16_t tokWait = 2;

trace::EventDictionary
testDictionary()
{
    trace::EventDictionary dict;
    dict.defineBegin(tokWork, "Work Begin", "WORK");
    dict.defineBegin(tokWait, "Wait Begin", "WAIT");
    return dict;
}

std::vector<TraceEvent>
validEvents(std::size_t n, std::uint64_t seed)
{
    sim::Random rng(seed);
    std::vector<TraceEvent> events;
    sim::Tick ts = 0;
    for (std::size_t i = 0; i < n; ++i) {
        ts += rng.uniformInt(1, 1000);
        TraceEvent ev;
        ev.timestamp = ts;
        ev.stream = static_cast<unsigned>(rng.uniformInt(0, 7));
        ev.token = static_cast<std::uint16_t>(
            rng.uniformInt(tokWork, tokWait));
        ev.param = static_cast<std::uint32_t>(rng.uniformInt(0, 99));
        events.push_back(ev);
    }
    return events;
}

bool
readFile(const std::string &path, std::vector<unsigned char> &out)
{
    std::FILE *f = std::fopen(path.c_str(), "rb");
    if (!f)
        return false;
    std::fseek(f, 0, SEEK_END);
    const long size = std::ftell(f);
    std::fseek(f, 0, SEEK_SET);
    out.resize(size > 0 ? static_cast<std::size_t>(size) : 0);
    const bool ok =
        out.empty() ||
        std::fread(out.data(), 1, out.size(), f) == out.size();
    std::fclose(f);
    return ok;
}

bool
writeFile(const std::string &path,
          const std::vector<unsigned char> &bytes)
{
    std::FILE *f = std::fopen(path.c_str(), "wb");
    if (!f)
        return false;
    const bool ok =
        bytes.empty() ||
        std::fwrite(bytes.data(), 1, bytes.size(), f) ==
            bytes.size();
    return std::fclose(f) == 0 && ok;
}

/**
 * Exercise every ingestion entry point on @p path and enforce the
 * error contract. Crashes and memory errors are caught by the
 * process (and by the sanitizer CI job); this checks the observable
 * half: a failure always carries a message, a success always
 * delivers a self-consistent trace.
 */
void
exerciseReaders(const std::string &path, const std::string &what)
{
    SCOPED_TRACE(what);

    // loadTrace: nullopt or a vector; no middle ground.
    const auto loaded = trace::loadTrace(path);

    // Streaming reader: drain it; on failure error() is non-empty.
    trace::TraceReader reader(path);
    if (reader.ok()) {
        TraceEvent ev;
        std::uint64_t streamed = 0;
        while (reader.next(ev))
            ++streamed;
        if (reader.error().empty()) {
            // Clean end: the stream must deliver exactly the
            // declared count, and agree with loadTrace.
            EXPECT_EQ(streamed, reader.declaredCount());
            ASSERT_TRUE(loaded.has_value());
            EXPECT_EQ(loaded->size(), streamed);
        } else {
            // Mid-stream failure: loadTrace must refuse it too.
            EXPECT_FALSE(loaded.has_value());
        }
    } else {
        EXPECT_FALSE(reader.error().empty());
        EXPECT_FALSE(loaded.has_value());
    }

    // Range view with an absurd range must stay within contract.
    trace::TraceReader range(path, 1u << 20, 1u << 20);
    if (range.ok()) {
        TraceEvent ev;
        while (range.next(ev)) {
        }
    } else {
        EXPECT_FALSE(range.error().empty());
    }

    // Sharded query over the same file: false => non-empty error.
    const auto dict = testDictionary();
    query::Query q;
    q.fold.kind = query::FoldKind::States;
    query::Table table;
    std::string error;
    if (!query::runQueryFileSharded(path, dict, q, 4, table,
                                    error)) {
        EXPECT_FALSE(error.empty());
    }
}

/** One-byte header mutations of a saved 50-event trace (whose count
 *  low byte is 50). */
const struct
{
    const char *what;
    std::size_t offset;
    unsigned char value;
    const char *expectError; // substring of reader.error()
} headerCases[] = {
    {"magic byte 0", 0, 'X', "bad magic"},
    {"magic byte 3", 3, 0x00, "bad magic"},
    {"future version", 4, 0x7f, "version"},
    {"version zero", 4, 0x00, "version"},
    // Count low byte +1: declared records exceed the payload.
    {"count grown", 16, 51, "truncated"},
};

/** Records per read block of a TraceReader (256 KiB). */
constexpr std::size_t blockRecords =
    (256 * 1024) / trace::TraceReader::recordBytes;

/** Cut @p path to @p bytes with ftruncate(2) on a descriptor of its
 *  own, as another process would. */
bool
truncateFile(const std::string &path, std::uint64_t bytes)
{
    const int fd = ::open(path.c_str(), O_WRONLY | O_CLOEXEC);
    if (fd < 0)
        return false;
    const bool cut = ::ftruncate(fd, static_cast<off_t>(bytes)) == 0;
    return ::close(fd) == 0 && cut;
}

/** Byte length of a v2 trace holding @p records records. */
std::uint64_t
traceBytes(std::uint64_t records)
{
    return 24 + records * trace::TraceReader::recordBytes;
}

/** Read the rest of @p reader, whose file shrank under it: it must
 *  end in the truncation error before the end of its view. */
void
expectTruncatedEnd(trace::TraceReader &reader, const char *what)
{
    TraceEvent ev;
    while (reader.next(ev)) {
    }
    EXPECT_NE(reader.error().find("truncated mid-record"),
              std::string::npos)
        << what << ": " << reader.error();
    EXPECT_LT(reader.recordsRead(), reader.rangeLength()) << what;
}

} // namespace

TEST(ReaderFuzz, DeterministicHeaderCorruptions)
{
    const test::ScratchDir dir;
    const std::string path = dir.path("header.smtr");
    const auto events = validEvents(50, 1);
    ASSERT_TRUE(trace::saveTrace(path, events, 77));
    std::vector<unsigned char> good;
    ASSERT_TRUE(readFile(path, good));
    ASSERT_GE(good.size(), 24u);
    ASSERT_EQ(good[16], 50);

    for (const auto &c : headerCases) {
        auto bytes = good;
        bytes[c.offset] = c.value;
        ASSERT_TRUE(writeFile(path, bytes));
        trace::TraceReader reader(path);
        EXPECT_FALSE(reader.ok()) << c.what;
        EXPECT_NE(reader.error().find(c.expectError),
                  std::string::npos)
            << c.what << ": " << reader.error();
        exerciseReaders(path, c.what);
    }
}

TEST(ReaderFuzz, SeededTruncationsEveryBoundary)
{
    const test::ScratchDir dir;
    const std::string path = dir.path("truncated.smtr");
    const auto events = validEvents(40, 2);
    ASSERT_TRUE(trace::saveTrace(path, events));
    std::vector<unsigned char> good;
    ASSERT_TRUE(readFile(path, good));

    // Every truncation length across the header and the first few
    // records, then seeded random lengths across the rest.
    std::vector<std::size_t> lengths;
    for (std::size_t len = 0; len < 24 + 3 * 24; ++len)
        lengths.push_back(len);
    sim::Random rng(sim::deriveSeed(20260809, 2));
    for (int i = 0; i < 60; ++i)
        lengths.push_back(static_cast<std::size_t>(
            rng.uniformInt(0, good.size() - 1)));

    for (const std::size_t len : lengths) {
        auto bytes = good;
        bytes.resize(len);
        ASSERT_TRUE(writeFile(path, bytes));
        trace::TraceReader reader(path);
        // A truncated file can never stream cleanly to the declared
        // count: either the header validation rejects it up front or
        // the stream ends in an error.
        if (reader.ok()) {
            TraceEvent ev;
            while (reader.next(ev)) {
            }
            EXPECT_FALSE(reader.error().empty())
                << "length " << len << " streamed cleanly";
        }
        exerciseReaders(path,
                        "truncated to " + std::to_string(len));
    }
}

TEST(ReaderFuzz, SeededBitFlipsAndGarbage)
{
    const test::ScratchDir dir;
    const std::string path = dir.path("bits.smtr");
    const auto events = validEvents(64, 3);
    ASSERT_TRUE(trace::saveTrace(path, events));
    std::vector<unsigned char> good;
    ASSERT_TRUE(readFile(path, good));

    for (std::uint64_t seed = 1; seed <= 120; ++seed) {
        sim::Random rng(sim::deriveSeed(20260810, seed));
        auto bytes = good;
        const unsigned kind =
            static_cast<unsigned>(rng.uniformInt(0, 3));
        std::string what;
        switch (kind) {
          case 0: { // random bit flips anywhere
            const unsigned flips =
                static_cast<unsigned>(rng.uniformInt(1, 8));
            for (unsigned i = 0; i < flips; ++i) {
                const std::size_t at = static_cast<std::size_t>(
                    rng.uniformInt(0, bytes.size() - 1));
                bytes[at] ^= static_cast<unsigned char>(
                    1u << rng.uniformInt(0, 7));
            }
            what = "bit flips";
            break;
          }
          case 1: { // full random garbage, random length
            bytes.resize(
                static_cast<std::size_t>(rng.uniformInt(0, 400)));
            for (auto &b : bytes)
                b = static_cast<unsigned char>(
                    rng.uniformInt(0, 255));
            what = "garbage";
            break;
          }
          case 2: { // partial record appended to a valid file
            const unsigned extra =
                static_cast<unsigned>(rng.uniformInt(1, 23));
            for (unsigned i = 0; i < extra; ++i)
                bytes.push_back(static_cast<unsigned char>(
                    rng.uniformInt(0, 255)));
            what = "partial tail";
            break;
          }
          default: { // header count scrambled entirely
            for (std::size_t at = 16; at < 24; ++at)
                bytes[at] = static_cast<unsigned char>(
                    rng.uniformInt(0, 255));
            what = "scrambled count";
            break;
          }
        }
        ASSERT_TRUE(writeFile(path, bytes));
        exerciseReaders(path, what + " seed " +
                                  std::to_string(seed));
        if (kind == 2) {
            // The ragged tail must be rejected up front, not
            // silently ignored: the payload is no longer a whole
            // number of declared records.
            trace::TraceReader reader(path);
            EXPECT_FALSE(reader.ok()) << "partial tail accepted";
        }
    }
}

TEST(ReaderFuzz, MissingAndEmptyFiles)
{
    const test::ScratchDir dir;
    exerciseReaders(dir.path("missing.smtr"), "missing file");
    const std::string path = dir.path("empty.smtr");
    ASSERT_TRUE(writeFile(path, {}));
    trace::TraceReader reader(path);
    EXPECT_FALSE(reader.ok());
    exerciseReaders(path, "empty file");
}

TEST(ReaderFuzz, HeaderCorruptionsFailRepairAndResumeUntouched)
{
    // recoverTruncated() and TraceWriter(ResumeExisting) decode the
    // header with the reader's decoder: every header the reader
    // rejects, and every torn header, is an error for them as well,
    // and they leave the file's bytes as they found them.
    const test::ScratchDir dir;
    const std::string path = dir.path("header.smtr");
    const auto events = validEvents(50, 1);
    ASSERT_TRUE(trace::saveTrace(path, events, 77));
    std::vector<unsigned char> good;
    ASSERT_TRUE(readFile(path, good));
    ASSERT_EQ(good[16], 50);

    std::vector<std::pair<std::string, std::vector<unsigned char>>>
        damaged;
    for (const auto &c : headerCases) {
        if (c.offset == 16)
            continue; // count grown: repaired, below
        auto bytes = good;
        bytes[c.offset] = c.value;
        damaged.emplace_back(c.what, bytes);
    }
    for (std::size_t len = 0; len < 24; ++len)
        damaged.emplace_back(
            "torn header of " + std::to_string(len) + " bytes",
            std::vector<unsigned char>(good.begin(),
                                       good.begin() + len));

    std::vector<unsigned char> after;
    for (const auto &[what, bytes] : damaged) {
        ASSERT_TRUE(writeFile(path, bytes));
        const auto report = trace::recoverTruncated(path);
        EXPECT_FALSE(report.ok()) << what;
        EXPECT_FALSE(report.repaired) << what;
        ASSERT_TRUE(readFile(path, after));
        EXPECT_EQ(after, bytes) << what << ": repair changed the file";
        {
            trace::TraceWriter writer(trace::ResumeExisting{}, path);
            EXPECT_FALSE(writer.ok()) << what;
            EXPECT_FALSE(writer.error().empty()) << what;
            EXPECT_FALSE(writer.append(events.data(), 1)) << what;
        }
        ASSERT_TRUE(readFile(path, after));
        EXPECT_EQ(after, bytes) << what << ": resume changed the file";
    }

    // A count grown past the payload is the one header the repair
    // mends: it patches the count back to the whole records present.
    auto grown = good;
    grown[16] = 51;
    ASSERT_TRUE(writeFile(path, grown));
    const auto report = trace::recoverTruncated(path);
    ASSERT_TRUE(report.ok()) << report.error;
    EXPECT_TRUE(report.repaired);
    EXPECT_EQ(report.declaredBefore, 51u);
    EXPECT_EQ(report.records, events.size());
    ASSERT_TRUE(readFile(path, after));
    EXPECT_EQ(after, good);

    // A resume repairs it the same way and carries on after record 50.
    ASSERT_TRUE(writeFile(path, grown));
    {
        trace::TraceWriter writer(trace::ResumeExisting{}, path);
        ASSERT_TRUE(writer.ok()) << writer.error();
        EXPECT_EQ(writer.written(), events.size());
        EXPECT_EQ(writer.seed(), 77u);
    }
    ASSERT_TRUE(readFile(path, after));
    EXPECT_EQ(after, good);
}

TEST(ReaderTruncation, FtruncateUnderAWholeFileReader)
{
    const test::ScratchDir dir;
    const std::string path = dir.path("shrink.smtr");
    const auto events = validEvents(3 * blockRecords + 100, 4);
    ASSERT_TRUE(trace::saveTrace(path, events));

    trace::TraceReader reader(path);
    ASSERT_TRUE(reader.ok()) << reader.error();
    const unsigned char *raw = nullptr;
    ASSERT_EQ(reader.nextRawBlock(raw), blockRecords);
    ASSERT_TRUE(truncateFile(path, traceBytes(1000)));
    expectTruncatedEnd(reader, "ftruncate to 1000 records");
}

TEST(ReaderTruncation, ResaveInPlaceUnderAWholeFileReader)
{
    // saveTrace opens the path "wb": the file is cut to zero bytes,
    // then rewritten shorter than the reader's first block.
    const test::ScratchDir dir;
    const std::string path = dir.path("resave.smtr");
    const auto events = validEvents(3 * blockRecords + 100, 5);
    ASSERT_TRUE(trace::saveTrace(path, events));

    trace::TraceReader reader(path);
    ASSERT_TRUE(reader.ok()) << reader.error();
    std::vector<TraceEvent> batch(4096);
    ASSERT_EQ(reader.nextBatch(batch.data(), batch.size()),
              batch.size());
    ASSERT_TRUE(trace::saveTrace(
        path, std::vector<TraceEvent>(events.begin(),
                                      events.begin() + 1000)));
    expectTruncatedEnd(reader, "re-saved with 1000 records");
}

TEST(ReaderTruncation, FtruncateUnderTwoBorrowedRangeViews)
{
    const test::ScratchDir dir;
    const std::string path = dir.path("views.smtr");
    const auto events = validEvents(3 * blockRecords + 100, 6);
    ASSERT_TRUE(trace::saveTrace(path, events));

    const trace::SharedTraceFile file(path);
    ASSERT_TRUE(file.ok()) << file.error();
    const std::uint64_t half = file.recordCount() / 2;
    trace::TraceReader low(file, 0, half);
    trace::TraceReader high(file, half, file.recordCount() - half);
    const unsigned char *raw = nullptr;
    ASSERT_EQ(low.nextRawBlock(raw), blockRecords);
    ASSERT_EQ(high.nextRawBlock(raw), blockRecords);
    ASSERT_TRUE(truncateFile(path, traceBytes(1000)));
    expectTruncatedEnd(low, "low view");
    expectTruncatedEnd(high, "high view");
}

TEST(ReaderTruncation, ShardedQueryWhileAnotherThreadTruncates)
{
    // Another thread cuts the file to a seeded length after a seeded
    // delay, which lands before, during or after the query. Whatever
    // the timing, the query returns the untouched file's table or a
    // non-empty error.
    const test::ScratchDir dir;
    const std::string path = dir.path("race.smtr");
    const auto events = validEvents(4 * blockRecords, 7);
    ASSERT_TRUE(trace::saveTrace(path, events));
    const auto dict = testDictionary();
    query::Query q;
    q.fold.kind = query::FoldKind::States;

    query::Table expected;
    std::string error;
    const auto start = std::chrono::steady_clock::now();
    ASSERT_TRUE(query::runQueryFileSharded(path, dict, q, 1, expected,
                                           error))
        << error;
    // Delays span twice one untouched query, so the cuts spread over
    // the whole run.
    const auto spanUs = std::max<std::int64_t>(
        2 * std::chrono::duration_cast<std::chrono::microseconds>(
                std::chrono::steady_clock::now() - start)
                .count(),
        1);
    const std::string want =
        expected.render(query::OutputFormat::Csv);

    sim::Random rng(sim::deriveSeed(20261018, 1));
    for (unsigned jobs = 1; jobs <= 4; ++jobs) {
        ASSERT_TRUE(trace::saveTrace(path, events));
        query::Table untouched;
        ASSERT_TRUE(query::runQueryFileSharded(path, dict, q, jobs,
                                               untouched, error))
            << "jobs " << jobs << ": " << error;
        ASSERT_EQ(untouched.render(query::OutputFormat::Csv), want)
            << "jobs " << jobs;
        for (int round = 0; round < 8; ++round) {
            ASSERT_TRUE(trace::saveTrace(path, events));
            const std::chrono::microseconds delay(static_cast<
                std::chrono::microseconds::rep>(rng.uniformInt(
                0, static_cast<std::uint64_t>(spanUs))));
            const std::uint64_t keep =
                rng.uniformInt(0, traceBytes(events.size()) - 1);
            bool cut = false;
            std::thread cutter([&path, delay, keep, &cut] {
                std::this_thread::sleep_for(delay);
                cut = truncateFile(path, keep);
            });
            query::Table table;
            std::string err;
            const bool ok = query::runQueryFileSharded(
                path, dict, q, jobs, table, err);
            cutter.join();
            EXPECT_TRUE(cut);
            SCOPED_TRACE("jobs " + std::to_string(jobs) + " round " +
                         std::to_string(round));
            if (ok)
                EXPECT_EQ(table.render(query::OutputFormat::Csv), want);
            else
                EXPECT_FALSE(err.empty());
        }
    }
}

TEST(ReaderTruncation, RenameOverTheReadersPathKeepsTheOldFile)
{
    // rename(2) replaces the directory entry, not the file: an open
    // reader keeps reading the old file to a clean end.
    const test::ScratchDir dir;
    const std::string path = dir.path("renamed.smtr");
    const std::string other = dir.path("replacement.smtr");
    const auto events = validEvents(3 * blockRecords + 100, 8);
    ASSERT_TRUE(trace::saveTrace(path, events));

    trace::TraceReader reader(path);
    ASSERT_TRUE(reader.ok()) << reader.error();
    std::vector<TraceEvent> got(events.size());
    std::size_t n = reader.nextBatch(got.data(), blockRecords);
    ASSERT_EQ(n, blockRecords);
    ASSERT_TRUE(trace::saveTrace(other, validEvents(1000, 9)));
    ASSERT_EQ(std::rename(other.c_str(), path.c_str()), 0);
    n += reader.nextBatch(got.data() + n, got.size() - n);
    EXPECT_TRUE(reader.error().empty()) << reader.error();
    ASSERT_EQ(n, events.size());
    EXPECT_TRUE(reader.atEnd());
    EXPECT_EQ(got, events);
}
