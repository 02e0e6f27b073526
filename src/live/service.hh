/**
 * @file
 * The live monitoring daemon's service core (tools/tracemond.cpp is a
 * thin CLI over this).
 *
 * One poll(2) network loop owns every transport endpoint: the Unix-
 * domain listening socket, accepted connections, and any ingest FIFOs.
 * Producer connections speak the wire protocol (live/wire.hh): Hello
 * opens a LiveSession on the async Collector, Events frames publish
 * into the session's ring, Bye closes it. Because the network loop is
 * one thread, it is the single producer of every session — the SPSC
 * contract holds without per-session locking — while the collector
 * loops drain the rings concurrently.
 *
 * Subscriber connections (Subscribe frame) receive the *delivered*
 * stream of every matching tenant — post-backpressure, shed
 * accounting tokens included — framed exactly like a producer would
 * send it (Hello, Events*, Bye), so `tracequery --follow <socket>`
 * is just a subscriber. Stats connections get the ingestion metrics
 * as one Json frame, live, without disturbing ingest.
 *
 * Shutdown is drain-and-flush: stop accepting, close every producer
 * session, let the collector drain and flush all of them (archives
 * get their trace headers patched, subscribers get their Byes), then
 * tear the endpoints down.
 */

#ifndef LIVE_SERVICE_HH
#define LIVE_SERVICE_HH

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <vector>

#include "live/collector.hh"
#include "live/session.hh"
#include "live/wire.hh"
#include "trace/io.hh"

namespace supmon
{
namespace live
{

/** Match tenant names against a subscriber pattern: literal bytes
 *  plus '*' (any run) and '?' (any one byte). */
bool tenantGlobMatch(const std::string &pattern,
                     const std::string &name);

struct ServiceConfig
{
    /** Unix-domain socket to listen on ("" = no socket). */
    std::string socketPath;
    /** TCP port to listen on for cross-host producers (-1 = no TCP
     *  listener; 0 = ephemeral, read it back with tcpListenPort()).
     *  Same frame protocol as the Unix socket. */
    int tcpPort = -1;
    /** Ingest FIFOs: each carries one producer frame stream. */
    std::vector<std::string> fifoPaths;
    /** Archive delivered streams as <dir>/<tenant>.smtr ("" = no
     *  archive). Every archive is journaled, so a killed daemon
     *  leaves a salvageable file: on startup the daemon repairs the
     *  torn archives in the directory (trace::recoverTruncated), and
     *  HelloResume producers with block policy continue the existing
     *  tenant file instead of collision-suffixing a new one. */
    std::string archiveDir;
    /** Records between journal commits of every archive. */
    std::uint64_t archiveCommitInterval = 4096;
    /** fdatasync(2) on every archive commit. */
    bool archiveFsync = false;
    /** The chaos harness's ENOSPC hook: every archive fails like a
     *  full disk after this many records (0 = disabled). */
    std::uint64_t archiveFailAfterRecords = 0;
    /** Resumable sessions: cumulative Ack at least every this many
     *  received events (Ping forces one). */
    std::uint64_t ackIntervalEvents = 1024;
    /** Session defaults; a Hello's policy byte overrides policy. */
    SessionConfig sessionDefaults;
    CollectorConfig collector;
};

/** Shared journaled archive of one resumable tenant: outlives the
 *  producer connections that feed it (defined in service.cc). */
struct TenantArchive;

/** Subscriber fd registry shared between the network loop and the
 *  collector threads' forwarding sinks (defined in service.cc). */
class SubscriberHub;

class LiveService
{
  public:
    explicit LiveService(ServiceConfig config);
    ~LiveService();

    LiveService(const LiveService &) = delete;
    LiveService &operator=(const LiveService &) = delete;

    /** Endpoints are up and the collector is running. */
    bool
    ok() const
    {
        return errorMessage.empty();
    }

    const std::string &
    error() const
    {
        return errorMessage;
    }

    /**
     * Run the network loop until requestStop(); returns after the
     * graceful drain-and-flush. Call from one thread only.
     */
    void run();

    /** Ask run() to wind down (safe from any thread / signal-ish
     *  context: one relaxed store). */
    void requestStop();

    /** Ingestion metrics as flat JSON (the Stats answer). */
    std::string statsJson() const;

    /** The TCP listener's bound port (the answer for tcpPort == 0),
     *  or -1 when no TCP listener is up. */
    int tcpListenPort() const;

  private:
    struct Connection
    {
        int fd = -1;
        bool isFifo = false;
        FrameDecoder decoder;
        enum class Role
        {
            Unknown,
            Producer,
            Subscriber,
        } role = Role::Unknown;
        std::shared_ptr<LiveSession> session;
        std::string tenant;
        /** Sanitized archive stem (resumable producers). */
        std::string stem;
        /** Producer spoke HelloResume: sequenced frames + acks. */
        bool resumable = false;
        /** Shared archive this producer's acks are floored by
         *  (null: ack the received floor instead). */
        std::shared_ptr<TenantArchive> archive;
        /** Received events since the last Ack went out. */
        std::uint64_t eventsSinceAck = 0;
        /** HelloResume waiting for the tenant's previous session to
         *  drain before the handshake completes. */
        std::unique_ptr<Frame> parkedResume;
    };

    /** One poll cycle. @return false when stopped and drained. */
    bool pollOnce(int timeout_ms);
    void acceptPending(int fd);
    /** Complete a (possibly parked) HelloResume handshake. */
    void completeResume(Connection &conn, const Frame &frame);
    /** Un-park connections whose tenant finished draining. */
    void serviceParked();
    /** Commit the tenant archive (if any) and Ack the floor. */
    void sendAck(Connection &conn);
    /** Drain readable bytes + decode frames for one connection.
     *  @return false if the connection should be dropped. */
    bool serveConnection(Connection &conn);
    bool handleFrame(Connection &conn, Frame &frame);
    void dropConnection(std::size_t index);

    /** finish() every resumable tenant archive (teardown). */
    void finishArchives();

    ServiceConfig cfg;
    /** The one writer policy of every archive: journaled, with
     *  cfg's commit interval, fsync and ENOSPC hook. */
    trace::WriterOptions archiveOptions;
    std::string errorMessage;
    std::unique_ptr<Collector> collector;

    int listenFd = -1;
    int tcpListenFd = -1;
    std::vector<std::unique_ptr<Connection>> connections;

    std::shared_ptr<SubscriberHub> hub;
    /** Archive-name collision counter per sanitized tenant stem. */
    std::map<std::string, unsigned> tenantOpens;
    /** Resumable tenants: shared archive per sanitized stem. */
    std::map<std::string, std::shared_ptr<TenantArchive>>
        tenantArchives;
    /** Received floor per sanitized stem (duplicate skip on replay;
     *  bootstrapped from the salvaged archive on resume). */
    std::map<std::string, std::uint64_t> tenantRecvSeq;
    /** Last producer session per stem (resume waits on finished()). */
    std::map<std::string, std::shared_ptr<LiveSession>>
        tenantSessions;

    std::atomic<bool> stopRequested{false};
    std::atomic<std::uint64_t> framesDecodedCount{0};
    std::atomic<std::uint64_t> protocolErrorCount{0};
    std::atomic<std::uint64_t> connectionsAcceptedCount{0};
    std::atomic<std::uint64_t> acksSentCount{0};
    std::atomic<std::uint64_t> sessionsResumedCount{0};
    std::atomic<std::uint64_t> archivesRepairedCount{0};
};

} // namespace live
} // namespace supmon

#endif // LIVE_SERVICE_HH
