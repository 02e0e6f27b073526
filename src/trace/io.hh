/**
 * @file
 * Trace file I/O.
 *
 * In the real tool chain the event traces live on the monitor agents'
 * disks and are shipped to the CEC for archival and offline analysis
 * with SIMPLE. This module provides the equivalent: a compact binary
 * trace format (with magic and version for forward compatibility) so
 * measured traces can be stored and re-evaluated without re-running
 * the measurement.
 */

#ifndef TRACE_IO_HH
#define TRACE_IO_HH

#include <cstdint>
#include <cstdio>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "trace/event.hh"

namespace supmon
{
namespace trace
{

/** Magic bytes at the start of a trace file. */
constexpr char traceFileMagic[4] = {'S', 'M', 'T', 'R'};

/**
 * Current trace file format version. Version 2 added the 64-bit run
 * seed to the header (the reproducibility half of a (seed, plan)
 * pair); version-1 files remain readable, reporting seed 0.
 */
constexpr std::uint32_t traceFileVersion = 2;

/**
 * Write @p events to @p path in the binary trace format. @p seed is
 * recorded in the header so a saved trace carries the run's RNG seed
 * (0 when unknown).
 * @return false on I/O failure.
 */
bool saveTrace(const std::string &path,
               const std::vector<TraceEvent> &events,
               std::uint64_t seed = 0);

/**
 * Write policy of a TraceWriter: plain (header count patched once, at
 * finish()) or journaled (the count is re-patched — committed — every
 * commitInterval records, so a writer killed mid-archive leaves a
 * file whose header is a valid watermark at most commitInterval
 * records behind the data). The committed count is the crash-recovery
 * floor: recoverTruncated() salvages every *whole* record beyond it
 * and trims a torn tail, so nothing committed is ever lost and
 * usually much less than one commit interval is.
 */
struct WriterOptions
{
    /** Re-patch (commit) the header count every commitInterval
     *  appended records. */
    bool journaled = false;
    /** Records between automatic commits (journaled mode). */
    std::uint64_t commitInterval = 4096;
    /** fdatasync(2) on every commit: survive power loss, not just a
     *  killed process. Off by default — a killed process loses
     *  nothing flushed to the page cache. */
    bool fsyncOnCommit = false;
    /** Fault-injection hook (the chaos harness's `enospc` statement):
     *  appending record failAfterRecords+1 fails like a full disk,
     *  stickily. 0 = disabled. */
    std::uint64_t failAfterRecords = 0;
};

/** Tag type selecting TraceWriter's resume-an-existing-archive
 *  constructor. */
struct ResumeExisting
{
};

/**
 * Incremental trace file writer: the writer-side dual of TraceReader,
 * for producers that do not have the whole trace in memory — the live
 * ingestion service appends delivered events as they arrive and
 * patches the header count on finish(). The byte output is identical
 * to saveTrace() fed the same events and seed (saveTrace() is now a
 * thin wrapper over this class), so digests of live-written and
 * batch-written traces compare directly.
 *
 * With WriterOptions::journaled the writer periodically commits the
 * header count (see WriterOptions), and the ResumeExisting
 * constructor reopens a previous archive — salvaging a torn tail via
 * recoverTruncated() — and appends where the last writer stopped, so
 * a restarted daemon continues the same tenant file instead of
 * starting a new one.
 *
 * @code
 * trace::TraceWriter writer(path, seed);
 * if (!writer.ok())
 *     fail(writer.error());
 * while (more)
 *     writer.append(batch.data(), batch.size());
 * if (!writer.finish())
 *     fail(writer.error());
 * @endcode
 */
class TraceWriter
{
  public:
    /** Open @p path and write a version-2 header (count patched by
     *  finish()). Check ok() before appending. */
    explicit TraceWriter(const std::string &path,
                         std::uint64_t seed = 0,
                         WriterOptions options = {});

    /**
     * Reopen the existing archive at @p path and append after its
     * last whole record. The file is salvaged first (torn tail
     * trimmed, whole uncommitted records adopted — see
     * recoverTruncated()); the header's seed is kept and written()
     * starts at the salvaged record count. Only version-2 files can
     * be resumed. ok() is false if the file is missing or
     * unrecoverable.
     */
    TraceWriter(ResumeExisting, const std::string &path,
                WriterOptions options = {});

    /** finish()es (best effort) if the caller did not. */
    ~TraceWriter();

    TraceWriter(const TraceWriter &) = delete;
    TraceWriter &operator=(const TraceWriter &) = delete;

    /** Header written and no I/O error so far. */
    bool
    ok() const
    {
        return errorMessage.empty();
    }

    /** Human-readable failure description; empty while healthy. */
    const std::string &
    error() const
    {
        return errorMessage;
    }

    /** Append @p n events. @return false on I/O failure (sticky). */
    bool append(const TraceEvent *events, std::size_t n);

    /** Records appended so far. */
    std::uint64_t
    written() const
    {
        return count;
    }

    /**
     * Commit the current record count: flush appended records and
     * re-patch the header without closing, so a reader (or a crash
     * recovery) sees everything appended so far. Cheap enough to call
     * per batch; journaled writers call it automatically every
     * commitInterval records.
     * @return false on I/O failure (sticky).
     */
    bool commit();

    /** Records covered by the last commit()/finish() — the
     *  crash-recovery floor. */
    std::uint64_t
    committed() const
    {
        return committedCount;
    }

    /** Run seed in this file's header (the resumed archive's original
     *  seed for ResumeExisting writers). */
    std::uint64_t
    seed() const
    {
        return headerSeed;
    }

    /** commit() the final record count and close (with
     *  fsyncOnCommit, that commit fdatasyncs too). Idempotent.
     *  @return false on I/O failure (error() says why). */
    bool finish();

  private:
    std::string errorMessage;
    std::string filePath;
    std::FILE *file = nullptr;
    WriterOptions opts;
    std::uint64_t count = 0;
    std::uint64_t committedCount = 0;
    std::uint64_t sinceCommit = 0;
    std::uint64_t headerSeed = 0;
};

/** Outcome of recoverTruncated(). */
struct RecoveryReport
{
    /** Non-empty: the file is unrecoverable (bad magic, torn
     *  header, unsupported version, I/O failure). */
    std::string error;
    /** Something was changed (tail trimmed and/or count patched). */
    bool repaired = false;
    /** Whole records the file now declares. */
    std::uint64_t records = 0;
    /** Count the header declared before the repair. */
    std::uint64_t declaredBefore = 0;
    /** Ragged partial-record bytes trimmed off the tail. */
    std::uint64_t truncatedBytes = 0;

    bool
    ok() const
    {
        return error.empty();
    }
};

/**
 * Salvage a trace file whose writer died mid-archive: trim a torn
 * (partial-record) tail and patch the header count to the number of
 * whole records actually present. The committed header count is the
 * guaranteed floor; whole records beyond it (appended but not yet
 * committed when the writer died) are self-contained and are adopted
 * rather than discarded. A clean file passes through untouched
 * (report.repaired == false). Exposed as `tracecheck --repair`.
 */
RecoveryReport recoverTruncated(const std::string &path);

/**
 * Encode one event into the 24-byte on-disk/wire record layout
 * (TraceReader::recordBytes; decode with TraceReader::decodeRecord).
 */
void encodeTraceRecord(const TraceEvent &ev, unsigned char *out);

/**
 * Read a trace written by saveTrace().
 * @return std::nullopt if the file is missing, truncated, or has the
 *         wrong magic/version.
 */
std::optional<std::vector<TraceEvent>> loadTrace(
    const std::string &path);

/**
 * A validated trace file opened for positional reads: the one fd the
 * sharded query executor shares across its worker threads.
 *
 * The header is validated on open (magic, version, declared count
 * against the real file size, whole-record payload), so a corrupt
 * count can neither over-read the file nor drive a huge allocation,
 * and a ragged tail is rejected up front. After that every read goes
 * through pread(2) at an explicit record offset — no shared file
 * position, no locking — so any number of TraceReader views can
 * stream disjoint record ranges of the same SharedTraceFile
 * concurrently. The file is never mapped: a file that shrinks under
 * a reader ends in a short read, which the reader reports as an
 * error, never in a fault.
 */
class SharedTraceFile
{
  public:
    explicit SharedTraceFile(const std::string &path);
    ~SharedTraceFile();

    SharedTraceFile(const SharedTraceFile &) = delete;
    SharedTraceFile &operator=(const SharedTraceFile &) = delete;

    /** Header parsed and validated successfully. */
    bool
    ok() const
    {
        return errorMessage.empty();
    }

    /** Human-readable failure description; empty while healthy. */
    const std::string &
    error() const
    {
        return errorMessage;
    }

    const std::string &
    path() const
    {
        return filePath;
    }

    /** Record count declared in the (validated) header. */
    std::uint64_t
    recordCount() const
    {
        return count;
    }

    /** Run seed recorded in the header (0 for version-1 files). */
    std::uint64_t
    seed() const
    {
        return headerSeed;
    }

    /**
     * Positional read of up to @p n raw on-disk records starting at
     * record index @p first into @p out (which must hold n records).
     * Thread-safe: concurrent callers never share a file position.
     * @return whole records actually read (short only if the file
     *         shrank after validation or the device failed).
     */
    std::size_t readRecords(std::uint64_t first, std::size_t n,
                            unsigned char *out) const;

  private:
    std::string filePath;
    std::string errorMessage;
    int fd = -1;
    /** Byte offset of record 0 (version dependent). */
    long headerBytes = 0;
    std::uint64_t count = 0;
    std::uint64_t headerSeed = 0;
};

/**
 * Incremental trace file reader: decodes a saveTrace() file in a
 * single forward pass with O(1) memory, so traces that do not fit in
 * memory can still be evaluated (the streaming query engine in
 * src/query/ runs on top of this).
 *
 * Reads are block-buffered positional reads: the reader issues one
 * 256 KiB SharedTraceFile::readRecords() pread per block (not one
 * stdio round trip per 24-byte record) into its own buffer and
 * decodes records straight out of it, so the per-record cost is a
 * couple of loads. nextBatch() additionally amortizes the per-record
 * call overhead for bulk consumers.
 *
 * The header is validated on construction (magic, version, and the
 * declared record count against the actual file size, so a corrupt
 * count can neither over-read nor drive a huge allocation; a file
 * that ends in a partial record is rejected even when the declared
 * records all fit); every refill bounds-checks the record read, and
 * a file truncated mid-record — or shrunk while being read — surfaces
 * as an error message instead of a short trace.
 *
 * The range constructor opens a *view* of records
 * [first, first + n): the header is validated exactly as for a whole
 * -file reader, but next()/nextBatch() deliver only that slice. The
 * borrowing constructor goes one step further and opens a view over
 * an already-validated SharedTraceFile — no reopen, no header
 * re-validation, just pread at the view's offsets. This is the seam
 * the sharded query executor (query::runQueryFileSharded) uses to
 * hand each worker thread its own contiguous record range over one
 * shared fd; each shard still owns its private block buffer, so
 * concurrent shards share no mutable reader state.
 *
 * @code
 * trace::TraceReader reader(path);
 * if (!reader.ok())
 *     fail(reader.error());
 * trace::TraceEvent ev;
 * while (reader.next(ev))
 *     consume(ev);
 * if (!reader.error().empty())
 *     fail(reader.error()); // truncated mid-record
 * @endcode
 */
class TraceReader
{
  public:
    explicit TraceReader(const std::string &path);

    /**
     * Open a view of records [first, first + n) of @p path (clamped
     * to the declared count). Header validation is identical to the
     * whole-file constructor.
     */
    TraceReader(const std::string &path, std::uint64_t first,
                std::uint64_t n);

    /**
     * Borrow a view of records [first, first + n) of an already
     * opened and validated @p file (clamped to the declared count).
     * The SharedTraceFile must outlive this reader.
     */
    TraceReader(const SharedTraceFile &file, std::uint64_t first,
                std::uint64_t n);

    TraceReader(TraceReader &&) = default;
    TraceReader &operator=(TraceReader &&) = default;

    /** Header parsed successfully and no read error so far. */
    bool
    ok() const
    {
        return errorMessage.empty();
    }

    /** Human-readable failure description; empty while healthy. */
    const std::string &
    error() const
    {
        return errorMessage;
    }

    /** Record count declared in the (validated) header. */
    std::uint64_t
    declaredCount() const
    {
        return count;
    }

    /** Run seed recorded in the header (0 for version-1 files). */
    std::uint64_t
    seed() const
    {
        return headerSeed;
    }

    /** Records decoded so far (relative to the view's start). */
    std::uint64_t
    recordsRead() const
    {
        return read;
    }

    /** Records this reader will deliver (= declaredCount() for a
     *  whole-file reader, the clamped slice length for a range). */
    std::uint64_t
    rangeLength() const
    {
        return limit;
    }

    /** All of this reader's records have been consumed. */
    bool
    atEnd() const
    {
        return read == limit;
    }

    /**
     * Decode the next record into @p ev.
     * @return false at the end of the trace or on error; distinguish
     *         with error() (empty string = clean end).
     */
    bool next(TraceEvent &ev);

    /**
     * Decode up to @p max records into @p out.
     * @return the number decoded; 0 at end of trace or on error
     *         (distinguish with error(), as for next()).
     */
    std::size_t nextBatch(TraceEvent *out, std::size_t max);

    /** Bytes of one on-disk record (stride of a raw block). */
    static constexpr std::size_t recordBytes = 24;

    /**
     * Borrow the reader's next block of raw on-disk records instead
     * of decoding them: @p bytes is set to the first record in the
     * block buffer and the return value is the number of whole
     * records behind it (spaced recordBytes apart), all consumed
     * from this reader's view. The pointer is valid until the next
     * read call. Decode fields with decodeRecord(). This is the
     * fused half of the batch filter stage: a caller can decode each
     * record into a register-resident TraceEvent, apply a predicate,
     * and materialize survivors only, instead of writing every
     * record to a batch array first.
     * @return 0 at end of view or on error (check error()).
     */
    std::size_t nextRawBlock(const unsigned char *&bytes);

    /** Decode one raw record (from nextRawBlock()) into @p ev. */
    static void decodeRecord(const unsigned char *bytes,
                             TraceEvent &ev);

  private:
    void initView(std::uint64_t first, std::uint64_t n);
    /** Refill the block buffer. @return false at end or on error. */
    bool fillBuffer();

    /** Own file for the path constructors; null when borrowing. */
    std::unique_ptr<SharedTraceFile> owned;
    /** The file reads go through (owned.get() or a borrowed one). */
    const SharedTraceFile *source = nullptr;
    std::string errorMessage;
    std::uint64_t count = 0;
    /** Records this view delivers (count, or the clamped range). */
    std::uint64_t limit = 0;
    /** Absolute index of the view's first record (error messages). */
    std::uint64_t baseRecord = 0;
    std::uint64_t read = 0;
    std::uint64_t headerSeed = 0;
    /** Block buffer: raw on-disk records, decoded lazily; sized on
     *  the first refill to one block or the whole view if smaller. */
    std::vector<unsigned char> buffer;
    std::size_t bufferedRecords = 0;
    std::size_t bufferNext = 0;
};

} // namespace trace
} // namespace supmon

#endif // TRACE_IO_HH
