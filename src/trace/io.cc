#include "io.hh"

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <limits>

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include "sim/logging.hh"

namespace supmon
{
namespace trace
{

namespace
{

/** On-disk record layout (packed, little endian host assumed). */
struct DiskRecord
{
    std::uint64_t timestamp;
    std::uint32_t param;
    std::uint32_t stream;
    std::uint16_t token;
    std::uint8_t flags;
    /** Kept trivial (no initializer): writers memset the whole
     *  record, padding included, so the file bytes reproduce. */
    std::uint8_t pad;
};

/** Version 1 header: magic + version + count. */
constexpr long headerBytesV1 = 4 + sizeof(std::uint32_t) +
                               sizeof(std::uint64_t);
/** Version 2 header: magic + version + seed + count. */
constexpr long headerBytesV2 = headerBytesV1 + sizeof(std::uint64_t);

/**
 * Block size of the buffered reader: one pread per this many
 * records. 256 KiB keeps the buffer cache-friendly while making the
 * syscall round trip cost negligible per record.
 */
constexpr std::size_t readerBlockRecords =
    (256 * 1024) / sizeof(DiskRecord);

static_assert(sizeof(DiskRecord) == TraceReader::recordBytes,
              "raw-block API stride must match the disk layout");

/** pread(2) that retries short reads and EINTR; bytes actually
 *  read (short only at end of file or on a device error). */
std::size_t
preadFully(int fd, unsigned char *out, std::size_t n, off_t at)
{
    std::size_t done = 0;
    while (done < n) {
        const ssize_t got = ::pread(fd, out + done, n - done,
                                    at + static_cast<off_t>(done));
        if (got < 0) {
            if (errno == EINTR)
                continue;
            break;
        }
        if (got == 0)
            break;
        done += static_cast<std::size_t>(got);
    }
    return done;
}

/** A trace file's fixed header and the payload behind it. */
struct Header
{
    std::uint32_t version = 0;
    /** Run seed (0 for version-1 files, which carry none). */
    std::uint64_t seed = 0;
    /** Record count the header declares. */
    std::uint64_t count = 0;
    /** Header size = byte offset of record 0 (version dependent). */
    long bytes = 0;
    /** Whole records in the payload, by the file size. */
    std::uint64_t records = 0;
    /** Bytes of a partial record after the last whole one. */
    std::uint64_t strayBytes = 0;
};

/**
 * The one header decoder: check the magic, the version and that the
 * file holds the whole header, then measure the payload behind it.
 * It judges no count against the payload: the reader, the repair
 * and the resume each apply their own policy on top.
 * @return an empty string, or why @p path has no usable header.
 */
std::string
decodeHeader(int fd, const std::string &path, Header &h)
{
    unsigned char raw[headerBytesV2];
    const std::size_t got = preadFully(fd, raw, sizeof(raw), 0);
    if (got < 4 || std::memcmp(raw, traceFileMagic, 4) != 0)
        return "'" + path + "' is not a trace file (bad magic)";
    if (got < 8)
        return "'" + path + "': truncated header";
    std::memcpy(&h.version, raw + 4, sizeof(h.version));
    if (h.version != 1 && h.version != traceFileVersion)
        return sim::strprintf(
            "'%s': unsupported trace version %u (expected %u or 1)",
            path.c_str(), h.version, traceFileVersion);
    // Version 2 inserted the run seed between version and count;
    // version-1 files simply have no seed (reported as 0).
    h.bytes = h.version >= 2 ? headerBytesV2 : headerBytesV1;
    if (got < static_cast<std::size_t>(h.bytes))
        return "'" + path + "': truncated header";
    if (h.version >= 2)
        std::memcpy(&h.seed, raw + 8, sizeof(h.seed));
    // The count is the header's last field in every version.
    std::memcpy(&h.count, raw + h.bytes - sizeof(h.count),
                sizeof(h.count));
    struct stat st;
    if (::fstat(fd, &st) != 0 ||
        st.st_size < static_cast<off_t>(h.bytes))
        return "'" + path + "': cannot stat";
    const std::uint64_t payload =
        static_cast<std::uint64_t>(st.st_size) -
        static_cast<std::uint64_t>(h.bytes);
    h.records = payload / sizeof(DiskRecord);
    h.strayBytes = payload % sizeof(DiskRecord);
    return std::string();
}

/** The one count patch: overwrite the record count, the last field
 *  of a @p headerBytes header, in place. */
bool
patchCount(int fd, long headerBytes, std::uint64_t count)
{
    const off_t at = static_cast<off_t>(headerBytes) -
                     static_cast<off_t>(sizeof(count));
    return ::pwrite(fd, &count, sizeof(count), at) ==
           static_cast<ssize_t>(sizeof(count));
}

} // namespace

bool
saveTrace(const std::string &path,
          const std::vector<TraceEvent> &events, std::uint64_t seed)
{
    TraceWriter writer(path, seed);
    if (!writer.ok())
        return false;
    if (!writer.append(events.data(), events.size()))
        return false;
    return writer.finish();
}

void
encodeTraceRecord(const TraceEvent &ev, unsigned char *out)
{
    DiskRecord rec;
    // Zero padding bytes so the file/wire bytes are reproducible.
    std::memset(&rec, 0, sizeof(rec));
    rec.timestamp = ev.timestamp;
    rec.param = ev.param;
    rec.stream = ev.stream;
    rec.token = ev.token;
    rec.flags = ev.flags;
    std::memcpy(out, &rec, sizeof(rec));
}

TraceWriter::TraceWriter(const std::string &path, std::uint64_t seed,
                         WriterOptions options)
    : filePath(path), opts(options), headerSeed(seed)
{
    file = std::fopen(path.c_str(), "wb");
    if (!file) {
        errorMessage = path + ": cannot open for writing";
        return;
    }
    const std::uint32_t version = traceFileVersion;
    const std::uint64_t zero = 0;
    if (std::fwrite(traceFileMagic, 1, 4, file) != 4 ||
        std::fwrite(&version, sizeof(version), 1, file) != 1 ||
        std::fwrite(&seed, sizeof(seed), 1, file) != 1 ||
        std::fwrite(&zero, sizeof(zero), 1, file) != 1)
        errorMessage = path + ": header write failed";
}

TraceWriter::TraceWriter(ResumeExisting, const std::string &path,
                         WriterOptions options)
    : filePath(path), opts(options)
{
    // Salvage first: trim a torn tail, adopt whole uncommitted
    // records, leave a consistent (header, payload) pair behind.
    const RecoveryReport report = recoverTruncated(path);
    if (!report.ok()) {
        errorMessage = report.error;
        return;
    }
    file = std::fopen(path.c_str(), "r+b");
    if (!file) {
        errorMessage = path + ": cannot reopen for appending";
        return;
    }
    Header h;
    errorMessage = decodeHeader(::fileno(file), path, h);
    if (ok() && h.version != traceFileVersion)
        errorMessage = sim::strprintf(
            "'%s': cannot resume a version-%u archive", path.c_str(),
            h.version);
    if (!ok())
        return;
    headerSeed = h.seed;
    count = report.records;
    committedCount = report.records;
    if (std::fseek(file, 0, SEEK_END) != 0)
        errorMessage = path + ": cannot seek to archive end";
}

TraceWriter::~TraceWriter()
{
    finish();
}

bool
TraceWriter::append(const TraceEvent *events, std::size_t n)
{
    if (!ok() || !file)
        return false;
    unsigned char rec[TraceReader::recordBytes];
    for (std::size_t i = 0; i < n; ++i) {
        if (opts.failAfterRecords != 0 &&
            count >= opts.failAfterRecords) {
            // Injected disk-full: sticky, exactly like real ENOSPC
            // through stdio would be.
            errorMessage =
                filePath + ": no space left on device (injected)";
            return false;
        }
        encodeTraceRecord(events[i], rec);
        if (std::fwrite(rec, sizeof(rec), 1, file) != 1) {
            errorMessage = "trace record write failed";
            return false;
        }
        ++count;
        if (opts.journaled && ++sinceCommit >= opts.commitInterval &&
            !commit())
            return false;
    }
    return true;
}

bool
TraceWriter::commit()
{
    if (!ok() || !file)
        return false;
    sinceCommit = 0;
    if (committedCount == count)
        return true;
    if (std::fflush(file) != 0) {
        errorMessage = "trace flush failed";
        return false;
    }
    // pwrite(2) patches the count without disturbing the stdio
    // append position (the stream was flushed above, so the fd and
    // the stream agree on the file contents).
    const int fd = ::fileno(file);
    if (!patchCount(fd, headerBytesV2, count)) {
        errorMessage = "trace header count patch failed";
        return false;
    }
    if (opts.fsyncOnCommit && ::fdatasync(fd) != 0) {
        errorMessage = "trace fsync failed";
        return false;
    }
    committedCount = count;
    return true;
}

bool
TraceWriter::finish()
{
    if (!file)
        return ok();
    // The final count patch is a commit like any other.
    const bool committed = commit();
    const bool closed = std::fclose(file) == 0;
    file = nullptr;
    if (committed && !closed)
        errorMessage = "trace file close failed";
    return committed && closed;
}

RecoveryReport
recoverTruncated(const std::string &path)
{
    RecoveryReport report;
    const int fd = ::open(path.c_str(), O_RDWR | O_CLOEXEC);
    if (fd < 0) {
        report.error = "cannot open '" + path + "' for repair";
        return report;
    }
    Header h;
    report.error = decodeHeader(fd, path, h);
    if (report.ok()) {
        report.declaredBefore = h.count;
        report.records = h.records;
        report.truncatedBytes = h.strayBytes;
        report.repaired = h.strayBytes != 0 || h.count != h.records;
        // Trim a torn tail, then declare every whole record present:
        // records past a stale count are self-contained, so they are
        // adopted, not dropped.
        if (h.strayBytes != 0 &&
            ::ftruncate(fd, static_cast<off_t>(h.bytes) +
                                static_cast<off_t>(
                                    h.records * sizeof(DiskRecord))) !=
                0)
            report.error = "'" + path + "': cannot trim torn tail";
        else if (h.count != h.records &&
                 !patchCount(fd, h.bytes, h.records))
            report.error = "'" + path + "': cannot patch record count";
        else if (report.repaired && ::fsync(fd) != 0)
            report.error = "'" + path + "': fsync failed";
    }
    ::close(fd);
    return report;
}

SharedTraceFile::SharedTraceFile(const std::string &path)
    : filePath(path)
{
    fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
    if (fd < 0) {
        errorMessage = "cannot open '" + path + "'";
        return;
    }
    Header h;
    errorMessage = decodeHeader(fd, path, h);
    if (!ok())
        return;
    // Validate the declared count against the real file size before
    // anyone trusts it (a flipped count byte must not over-read the
    // file or drive a multi-gigabyte reserve in loadTrace()).
    if (h.count > h.records) {
        errorMessage = sim::strprintf(
            "'%s': header declares %llu records but only %llu fit in "
            "the file (truncated or corrupt)",
            path.c_str(), static_cast<unsigned long long>(h.count),
            static_cast<unsigned long long>(h.records));
        return;
    }
    // A file that is *longer* than the count implies may carry whole
    // appended records (ignored), but never a partial one: a ragged
    // tail means the writer died mid-record or the file is corrupt.
    if (h.strayBytes != 0) {
        errorMessage = sim::strprintf(
            "'%s': file ends in a partial record (%llu stray bytes "
            "after the last whole record; truncated or corrupt)",
            path.c_str(),
            static_cast<unsigned long long>(h.strayBytes));
        return;
    }
    headerBytes = h.bytes;
    count = h.count;
    headerSeed = h.seed;
}

SharedTraceFile::~SharedTraceFile()
{
    if (fd >= 0)
        ::close(fd);
}

std::size_t
SharedTraceFile::readRecords(std::uint64_t first, std::size_t n,
                             unsigned char *out) const
{
    if (fd < 0 || first >= count)
        return 0;
    n = static_cast<std::size_t>(
        std::min<std::uint64_t>(n, count - first));
    const off_t at = static_cast<off_t>(headerBytes) +
                     static_cast<off_t>(first * sizeof(DiskRecord));
    // Short only if the file shrank after validation or the device
    // failed; a torn last record is not delivered.
    return preadFully(fd, out, n * sizeof(DiskRecord), at) /
           sizeof(DiskRecord);
}

TraceReader::TraceReader(const std::string &path)
    : TraceReader(path, 0, std::numeric_limits<std::uint64_t>::max())
{
}

TraceReader::TraceReader(const std::string &path, std::uint64_t first,
                         std::uint64_t n)
    : owned(std::make_unique<SharedTraceFile>(path)),
      source(owned.get())
{
    initView(first, n);
}

TraceReader::TraceReader(const SharedTraceFile &file,
                         std::uint64_t first, std::uint64_t n)
    : source(&file)
{
    initView(first, n);
}

void
TraceReader::initView(std::uint64_t first, std::uint64_t n)
{
    if (!source->ok()) {
        errorMessage = source->error();
        return;
    }
    count = source->recordCount();
    headerSeed = source->seed();
    // Clamp the requested view to the declared records.
    baseRecord = std::min(first, count);
    limit = std::min(n, count - baseRecord);
}

bool
TraceReader::fillBuffer()
{
    bufferNext = 0;
    bufferedRecords = 0;
    const std::uint64_t remaining = limit - read;
    if (remaining == 0)
        return false;
    if (buffer.empty())
        buffer.resize(static_cast<std::size_t>(std::min<std::uint64_t>(
                          limit, readerBlockRecords)) *
                      sizeof(DiskRecord));
    const std::size_t want = static_cast<std::size_t>(
        std::min<std::uint64_t>(remaining, readerBlockRecords));
    const std::size_t got =
        source->readRecords(baseRecord + read, want, buffer.data());
    if (got == 0) {
        // The header promised these records (the size was validated
        // at open), so a short read means the file shrank or an I/O
        // error; surface it like a mid-record truncation.
        errorMessage = sim::strprintf(
            "'%s': truncated mid-record: record %llu of %llu",
            source->path().c_str(),
            static_cast<unsigned long long>(baseRecord + read),
            static_cast<unsigned long long>(count));
        return false;
    }
    bufferedRecords = got;
    return true;
}

void
TraceReader::decodeRecord(const unsigned char *bytes, TraceEvent &ev)
{
    // Three word loads plus shifts, decoding straight from the block
    // buffer; the memcpys compile to plain unaligned loads. This
    // stays fast even with the tree vectorizer off (see the GCC 12
    // note in the top-level CMakeLists.txt) where a struct-sized
    // memcpy through a DiskRecord temporary does not.
    std::uint64_t w0;
    std::uint64_t w1;
    std::uint64_t w2;
    std::memcpy(&w0, bytes, sizeof(w0));
    std::memcpy(&w1, bytes + 8, sizeof(w1));
    std::memcpy(&w2, bytes + 16, sizeof(w2));
    ev.timestamp = w0;
    ev.param = static_cast<std::uint32_t>(w1);
    ev.stream = static_cast<unsigned>(w1 >> 32);
    ev.token = static_cast<std::uint16_t>(w2);
    ev.flags = static_cast<std::uint8_t>(w2 >> 16);
}

std::size_t
TraceReader::nextRawBlock(const unsigned char *&bytes)
{
    if (bufferNext == bufferedRecords) {
        if (!ok() || !fillBuffer())
            return 0;
    }
    const std::size_t run = bufferedRecords - bufferNext;
    bytes = buffer.data() + bufferNext * sizeof(DiskRecord);
    bufferNext = bufferedRecords;
    read += run;
    return run;
}

bool
TraceReader::next(TraceEvent &ev)
{
    if (bufferNext == bufferedRecords) {
        if (!ok() || !fillBuffer())
            return false;
    }
    decodeRecord(buffer.data() + bufferNext * sizeof(DiskRecord), ev);
    ++bufferNext;
    ++read;
    return true;
}

std::size_t
TraceReader::nextBatch(TraceEvent *out, std::size_t max)
{
    std::size_t produced = 0;
    while (produced < max) {
        if (bufferNext == bufferedRecords) {
            if (!ok() || !fillBuffer())
                break;
        }
        const std::size_t run = std::min(
            max - produced, bufferedRecords - bufferNext);
        const unsigned char *src =
            buffer.data() + bufferNext * sizeof(DiskRecord);
        for (std::size_t i = 0; i < run; ++i)
            decodeRecord(src + i * sizeof(DiskRecord),
                         out[produced + i]);
        bufferNext += run;
        read += run;
        produced += run;
    }
    return produced;
}

std::optional<std::vector<TraceEvent>>
loadTrace(const std::string &path)
{
    TraceReader reader(path);
    if (!reader.ok())
        return std::nullopt;
    // The reader has validated the count against the file size, so
    // this allocation is bounded by the actual bytes on disk.
    std::vector<TraceEvent> events(
        static_cast<std::size_t>(reader.declaredCount()));
    const std::size_t got =
        reader.nextBatch(events.data(), events.size());
    if (got != events.size() || !reader.error().empty())
        return std::nullopt; // truncated mid-record
    return events;
}

} // namespace trace
} // namespace supmon
