/**
 * @file
 * Stock event sinks for the live ingestion service.
 *
 * VectorSink (tests) lives with the session; here are the production
 * sinks: SmtrSink archives a session's delivered stream as a .smtr
 * trace file through trace::TraceWriter — in block (lossless) mode
 * the resulting file is byte-identical to saveTrace() of the same
 * events — and NullSink discards (pure ingest benchmarks).
 */

#ifndef LIVE_SINKS_HH
#define LIVE_SINKS_HH

#include <string>

#include "live/session.hh"
#include "trace/io.hh"

namespace supmon
{
namespace live
{

/** Archive the delivered stream to a .smtr file. */
class SmtrSink : public EventSink
{
  public:
    SmtrSink(const std::string &path, std::uint64_t seed,
             trace::WriterOptions options = {})
        : writer(path, seed, options)
    {
    }

    bool
    ok() const
    {
        return writer.ok();
    }

    const std::string &
    error() const
    {
        return writer.error();
    }

    std::size_t
    accept(const trace::TraceEvent *events, std::size_t n) override
    {
        // A sticky I/O error must still consume: the session retries
        // unconsumed accounting events forever.
        writer.append(events, n);
        return n;
    }

    void
    finish() override
    {
        writer.finish();
    }

  private:
    trace::TraceWriter writer;
};

/** Count-and-discard (ingest benchmarks). */
class NullSink : public EventSink
{
  public:
    std::size_t
    accept(const trace::TraceEvent *, std::size_t n) override
    {
        accepted += n;
        return n;
    }

    std::uint64_t accepted = 0;
};

} // namespace live
} // namespace supmon

#endif // LIVE_SINKS_HH
