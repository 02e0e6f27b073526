#include "service.hh"

#include <algorithm>
#include <cerrno>
#include <cstring>

#include <dirent.h>
#include <fcntl.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/stat.h>
#include <unistd.h>

#include "live/sinks.hh"
#include "sim/logging.hh"

namespace supmon
{
namespace live
{

bool
tenantGlobMatch(const std::string &pattern, const std::string &name)
{
    std::size_t p = 0;
    std::size_t n = 0;
    std::size_t starPattern = std::string::npos;
    std::size_t starName = 0;
    while (n < name.size()) {
        if (p < pattern.size() &&
            (pattern[p] == '?' || pattern[p] == name[n])) {
            ++p;
            ++n;
        } else if (p < pattern.size() && pattern[p] == '*') {
            starPattern = p++;
            starName = n;
        } else if (starPattern != std::string::npos) {
            // Backtrack: let the last '*' swallow one more byte.
            p = starPattern + 1;
            n = ++starName;
        } else {
            return false;
        }
    }
    while (p < pattern.size() && pattern[p] == '*')
        ++p;
    return p == pattern.size();
}

/**
 * Subscriber registry: the network loop adds/removes subscriber fds;
 * the collector threads' forwarding sinks write to them. The hub owns
 * the fds from add() on, and every operation holds the hub mutex, so
 * a write never races a close.
 */
class SubscriberHub
{
  public:
    ~SubscriberHub()
    {
        const std::lock_guard<std::mutex> lock(mutex);
        for (const Subscriber &sub : subscribers)
            ::close(sub.fd);
        subscribers.clear();
    }

    void
    add(int fd, const std::string &pattern)
    {
        const std::lock_guard<std::mutex> lock(mutex);
        subscribers.push_back(Subscriber{fd, pattern, {}});
    }

    std::size_t
    count() const
    {
        const std::lock_guard<std::mutex> lock(mutex);
        return subscribers.size();
    }

    std::uint64_t
    forwarded() const
    {
        const std::lock_guard<std::mutex> lock(mutex);
        return forwardedCount;
    }

    std::uint64_t
    evicted() const
    {
        const std::lock_guard<std::mutex> lock(mutex);
        return evictedCount;
    }

    void
    forward(const std::string &tenant, std::uint64_t seed,
            unsigned char policy, const trace::TraceEvent *events,
            std::size_t n)
    {
        const std::lock_guard<std::mutex> lock(mutex);
        if (subscribers.empty())
            return;
        std::vector<unsigned char> payload;
        encodeEvents(payload, events, n);
        for (std::size_t i = 0; i < subscribers.size();) {
            Subscriber &sub = subscribers[i];
            if (!tenantGlobMatch(sub.pattern, tenant)) {
                ++i;
                continue;
            }
            bool alive = true;
            if (sub.greeted.insert(tenant).second) {
                std::vector<unsigned char> hello;
                encodeHello(hello, tenant, seed, policy);
                alive = send(sub.fd, hello);
            }
            if (alive)
                alive = send(sub.fd, payload);
            if (!alive) {
                // A subscriber whose socket errors mid-fan-out is
                // evicted, never fatal: ingest must outlive any
                // observer.
                ::close(sub.fd);
                subscribers.erase(subscribers.begin() +
                                  static_cast<std::ptrdiff_t>(i));
                ++evictedCount;
                continue;
            }
            forwardedCount += n;
            ++i;
        }
    }

    /** A tenant's session retired: Bye to everyone it greeted. */
    void
    finishTenant(const std::string &tenant)
    {
        const std::lock_guard<std::mutex> lock(mutex);
        std::vector<unsigned char> bye;
        encodeBye(bye);
        for (Subscriber &sub : subscribers)
            if (sub.greeted.erase(tenant) > 0)
                send(sub.fd, bye);
    }

  private:
    struct Subscriber
    {
        int fd;
        std::string pattern;
        std::set<std::string> greeted;
    };

    static bool
    send(int fd, const std::vector<unsigned char> &bytes)
    {
        // MSG_NOSIGNAL: a vanished subscriber is EPIPE, not SIGPIPE.
        std::size_t sent = 0;
        while (sent < bytes.size()) {
            const ssize_t got =
                ::send(fd, bytes.data() + sent, bytes.size() - sent,
                       MSG_NOSIGNAL);
            if (got < 0) {
                if (errno == EINTR)
                    continue;
                return false;
            }
            sent += static_cast<std::size_t>(got);
        }
        return true;
    }

    mutable std::mutex mutex;
    std::vector<Subscriber> subscribers;
    std::uint64_t forwardedCount = 0;
    std::uint64_t evictedCount = 0;
};

/**
 * One resumable tenant's shared journaled archive. The writer
 * outlives producer connections: a session's sink commit()s on
 * finish instead of closing, the next HelloResume appends to the
 * same file, and the service finish()es it at teardown. The mutex
 * serializes the collector thread's appends against the network
 * loop's commit-for-ack.
 */
struct TenantArchive
{
    std::mutex mutex;
    std::unique_ptr<trace::TraceWriter> writer;
};

namespace
{

/** Archive seam of a resumable tenant: append into the shared
 *  journaled writer; finish() only commits (the writer must survive
 *  this producer's reconnect — the service finish()es it at
 *  teardown). A sticky writer error (disk full) still consumes: the
 *  producer's acks stop advancing instead, which is what pushes it
 *  into spool degradation. */
class SharedArchiveSink : public EventSink
{
  public:
    explicit SharedArchiveSink(std::shared_ptr<TenantArchive> arch)
        : archive(std::move(arch))
    {
    }

    std::size_t
    accept(const trace::TraceEvent *events, std::size_t n) override
    {
        const std::lock_guard<std::mutex> lock(archive->mutex);
        if (archive->writer)
            archive->writer->append(events, n);
        return n;
    }

    void
    finish() override
    {
        const std::lock_guard<std::mutex> lock(archive->mutex);
        if (archive->writer)
            archive->writer->commit();
    }

  private:
    std::shared_ptr<TenantArchive> archive;
};

/** A producer session's sink: archive to .smtr (optional) and fan
 *  the delivered stream out to matching subscribers. */
class ForwardSink : public EventSink
{
  public:
    ForwardSink(std::shared_ptr<SubscriberHub> hub_,
                std::string tenant_, std::uint64_t seed_,
                unsigned char policy_,
                std::shared_ptr<EventSink> archive_)
        : hub(std::move(hub_)),
          tenant(std::move(tenant_)),
          seed(seed_),
          policy(policy_),
          archive(std::move(archive_))
    {
    }

    std::size_t
    accept(const trace::TraceEvent *events, std::size_t n) override
    {
        if (archive)
            archive->accept(events, n);
        hub->forward(tenant, seed, policy, events, n);
        return n;
    }

    void
    finish() override
    {
        if (archive)
            archive->finish();
        hub->finishTenant(tenant);
    }

  private:
    std::shared_ptr<SubscriberHub> hub;
    std::string tenant;
    std::uint64_t seed;
    unsigned char policy;
    std::shared_ptr<EventSink> archive;
};

std::string
sanitizeTenant(const std::string &tenant)
{
    std::string out = tenant.empty() ? std::string("default")
                                     : tenant;
    for (char &c : out) {
        const bool ok = (c >= 'a' && c <= 'z') ||
                        (c >= 'A' && c <= 'Z') ||
                        (c >= '0' && c <= '9') || c == '.' ||
                        c == '_' || c == '-';
        if (!ok)
            c = '_';
    }
    return out;
}

bool
setNonBlocking(int fd)
{
    const int flags = ::fcntl(fd, F_GETFL, 0);
    return flags >= 0 &&
           ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) == 0;
}

} // namespace

LiveService::LiveService(ServiceConfig config)
    : cfg(std::move(config)),
      archiveOptions{true, cfg.archiveCommitInterval, cfg.archiveFsync,
                     cfg.archiveFailAfterRecords},
      hub(std::make_shared<SubscriberHub>())
{
    collector = std::make_unique<Collector>(cfg.collector);
    if (!cfg.archiveDir.empty()) {
        // Crash recovery: a previous daemon may have died
        // mid-archive. Salvage every torn tenant file now, so both
        // resumed writers and offline readers see whole records.
        if (DIR *dir = ::opendir(cfg.archiveDir.c_str())) {
            while (const dirent *entry = ::readdir(dir)) {
                const std::string name = entry->d_name;
                if (name.size() < 6 ||
                    name.compare(name.size() - 5, 5, ".smtr") != 0)
                    continue;
                const trace::RecoveryReport report =
                    trace::recoverTruncated(cfg.archiveDir + "/" +
                                            name);
                if (report.ok() && report.repaired)
                    archivesRepairedCount.fetch_add(
                        1, std::memory_order_relaxed);
            }
            ::closedir(dir);
        }
    }
    if (!cfg.socketPath.empty()) {
        listenFd = listenUnix(cfg.socketPath);
        if (listenFd < 0) {
            errorMessage = sim::strprintf(
                "tracemond: cannot listen on %s: %s",
                cfg.socketPath.c_str(), std::strerror(errno));
            return;
        }
        setNonBlocking(listenFd);
    }
    if (cfg.tcpPort >= 0) {
        tcpListenFd =
            listenTcp(static_cast<std::uint16_t>(cfg.tcpPort));
        if (tcpListenFd < 0) {
            errorMessage = sim::strprintf(
                "tracemond: cannot listen on tcp port %d: %s",
                cfg.tcpPort, std::strerror(errno));
            return;
        }
        setNonBlocking(tcpListenFd);
    }
    for (const std::string &path : cfg.fifoPaths) {
        if (::mkfifo(path.c_str(), 0600) != 0 && errno != EEXIST) {
            errorMessage =
                sim::strprintf("tracemond: cannot create fifo %s: %s",
                               path.c_str(), std::strerror(errno));
            return;
        }
        // O_RDWR keeps a writer reference alive so the fifo never
        // reports EOF between producer runs (the classic daemon
        // trick); producers end their stream with Bye instead.
        const int fd = ::open(path.c_str(), O_RDWR | O_NONBLOCK);
        if (fd < 0) {
            errorMessage =
                sim::strprintf("tracemond: cannot open fifo %s: %s",
                               path.c_str(), std::strerror(errno));
            return;
        }
        auto conn = std::make_unique<Connection>();
        conn->fd = fd;
        conn->isFifo = true;
        connections.push_back(std::move(conn));
    }
}

LiveService::~LiveService()
{
    for (const auto &conn : connections) {
        if (conn->session)
            conn->session->close();
        if (conn->fd >= 0)
            ::close(conn->fd);
    }
    connections.clear();
    collector->requestStop();
    try {
        collector->wait();
    } catch (...) {
        // Sink failures surfaced through run(); never throw here.
    }
    finishArchives();
    if (listenFd >= 0) {
        ::close(listenFd);
        if (!cfg.socketPath.empty())
            ::unlink(cfg.socketPath.c_str());
    }
    if (tcpListenFd >= 0)
        ::close(tcpListenFd);
}

void
LiveService::finishArchives()
{
    // Only after the collector stopped: no sink appends anymore.
    for (const auto &kv : tenantArchives) {
        if (!kv.second)
            continue;
        const std::lock_guard<std::mutex> lock(kv.second->mutex);
        if (kv.second->writer)
            kv.second->writer->finish();
    }
}

int
LiveService::tcpListenPort() const
{
    return tcpListenFd >= 0 ? boundTcpPort(tcpListenFd) : -1;
}

void
LiveService::requestStop()
{
    stopRequested.store(true, std::memory_order_relaxed);
}

void
LiveService::run()
{
    if (!ok())
        return;
    while (!stopRequested.load(std::memory_order_relaxed))
        pollOnce(100);

    // Drain and flush: no new connections, close every producer
    // session, and let the collector finish them all — archives get
    // their headers patched, subscribers get their Byes.
    if (listenFd >= 0) {
        ::close(listenFd);
        listenFd = -1;
        if (!cfg.socketPath.empty())
            ::unlink(cfg.socketPath.c_str());
    }
    if (tcpListenFd >= 0) {
        ::close(tcpListenFd);
        tcpListenFd = -1;
    }
    for (const auto &conn : connections) {
        if (conn->session)
            conn->session->close();
        if (conn->fd >= 0)
            ::close(conn->fd);
    }
    connections.clear();
    collector->requestStop();
    try {
        collector->wait();
    } catch (const std::exception &e) {
        errorMessage =
            sim::strprintf("tracemond: collector failed: %s",
                           e.what());
    }
    finishArchives();
}

bool
LiveService::pollOnce(int timeout_ms)
{
    serviceParked();

    std::vector<pollfd> fds;
    fds.reserve(connections.size() + 2);
    if (listenFd >= 0)
        fds.push_back(pollfd{listenFd, POLLIN, 0});
    if (tcpListenFd >= 0)
        fds.push_back(pollfd{tcpListenFd, POLLIN, 0});
    for (const auto &conn : connections)
        fds.push_back(pollfd{conn->fd, POLLIN, 0});

    // A parked handshake resolves on a collector-side event (the old
    // session draining), not a socket event — poll briefly so
    // serviceParked() gets its chance.
    const bool anyParked = std::any_of(
        connections.begin(), connections.end(),
        [](const std::unique_ptr<Connection> &c) {
            return c->parkedResume != nullptr;
        });
    const int ready =
        ::poll(fds.data(), static_cast<nfds_t>(fds.size()),
               anyParked ? std::min(timeout_ms, 1) : timeout_ms);
    if (ready <= 0)
        return true;

    std::size_t at = 0;
    if (listenFd >= 0) {
        if ((fds[at].revents & POLLIN) != 0)
            acceptPending(listenFd);
        ++at;
    }
    if (tcpListenFd >= 0) {
        if ((fds[at].revents & POLLIN) != 0)
            acceptPending(tcpListenFd);
        ++at;
    }
    // Walk by fd, not index: acceptPending() grew `connections`.
    std::vector<int> dropFds;
    for (; at < fds.size(); ++at) {
        if (fds[at].revents == 0)
            continue;
        const auto it = std::find_if(
            connections.begin(), connections.end(),
            [&](const std::unique_ptr<Connection> &c) {
                return c->fd == fds[at].fd;
            });
        if (it == connections.end())
            continue;
        if (!serveConnection(**it))
            dropFds.push_back(fds[at].fd);
    }
    for (const int fd : dropFds) {
        const auto it = std::find_if(
            connections.begin(), connections.end(),
            [&](const std::unique_ptr<Connection> &c) {
                return c->fd == fd;
            });
        if (it != connections.end())
            dropConnection(static_cast<std::size_t>(
                it - connections.begin()));
    }
    return true;
}

void
LiveService::acceptPending(int listenerFd)
{
    for (;;) {
        const int fd = ::accept(listenerFd, nullptr, nullptr);
        if (fd < 0) {
            if (errno == EINTR)
                continue;
            return; // EAGAIN: accepted everything pending
        }
        setNonBlocking(fd);
        auto conn = std::make_unique<Connection>();
        conn->fd = fd;
        connections.push_back(std::move(conn));
        connectionsAcceptedCount.fetch_add(
            1, std::memory_order_relaxed);
    }
}

void
LiveService::serviceParked()
{
    for (const auto &conn : connections) {
        if (!conn->parkedResume)
            continue;
        const std::string stem =
            sanitizeTenant(conn->parkedResume->tenant.empty()
                               ? std::string("default")
                               : conn->parkedResume->tenant);
        const auto it = tenantSessions.find(stem);
        if (it != tenantSessions.end() && it->second &&
            !it->second->finished())
            continue; // previous producer still draining
        const Frame frame = *conn->parkedResume;
        conn->parkedResume.reset();
        completeResume(*conn, frame);
    }
}

bool
LiveService::serveConnection(Connection &conn)
{
    bool sawEof = false;
    for (;;) {
        unsigned char chunk[65536];
        const ssize_t got = ::read(conn.fd, chunk, sizeof(chunk));
        if (got > 0) {
            conn.decoder.feed(chunk,
                              static_cast<std::size_t>(got));
            continue;
        }
        if (got == 0) {
            sawEof = true;
            break;
        }
        if (errno == EINTR)
            continue;
        if (errno == EAGAIN || errno == EWOULDBLOCK)
            break;
        sawEof = true; // hard read error: treat as gone
        break;
    }

    Frame frame;
    while (conn.decoder.next(frame)) {
        framesDecodedCount.fetch_add(1, std::memory_order_relaxed);
        if (!handleFrame(conn, frame))
            return false;
    }
    if (!conn.decoder.error().empty()) {
        protocolErrorCount.fetch_add(1, std::memory_order_relaxed);
        return false;
    }
    if (sawEof) {
        // A producer that vanishes without Bye still gets its
        // delivered events flushed: close, do not abandon.
        if (conn.session)
            conn.session->close();
        return false;
    }
    return true;
}

bool
LiveService::handleFrame(Connection &conn, Frame &frame)
{
    switch (frame.type) {
      case FrameType::Hello: {
        if (conn.session) {
            protocolErrorCount.fetch_add(1,
                                         std::memory_order_relaxed);
            return false;
        }
        SessionConfig session = cfg.sessionDefaults;
        session.tenant =
            frame.tenant.empty() ? "default" : frame.tenant;
        session.seed = frame.seed;
        if (frame.policy >= 1 && frame.policy <= 3)
            session.policy =
                static_cast<Backpressure>(frame.policy - 1);
        std::shared_ptr<SmtrSink> archive;
        if (!cfg.archiveDir.empty()) {
            std::string stem = sanitizeTenant(session.tenant);
            const unsigned nth = ++tenantOpens[stem];
            if (nth > 1)
                stem += sim::strprintf(".%u", nth);
            archive = std::make_shared<SmtrSink>(
                cfg.archiveDir + "/" + stem + ".smtr", session.seed,
                archiveOptions);
        }
        auto sink = std::make_shared<ForwardSink>(
            hub, session.tenant, session.seed,
            static_cast<unsigned char>(session.policy),
            std::move(archive));
        conn.session = collector->open(session, std::move(sink));
        conn.tenant = session.tenant;
        conn.role = Connection::Role::Producer;
        return true;
      }

      case FrameType::HelloResume: {
        if (conn.session || conn.parkedResume || conn.isFifo) {
            // Resumable sessions need a duplex transport for the
            // acks, which a fifo is not.
            protocolErrorCount.fetch_add(1,
                                         std::memory_order_relaxed);
            return false;
        }
        const std::string stem = sanitizeTenant(
            frame.tenant.empty() ? std::string("default")
                                 : frame.tenant);
        const auto it = tenantSessions.find(stem);
        if (it != tenantSessions.end() && it->second &&
            !it->second->finished()) {
            // The tenant's previous session (a dead connection's) is
            // still draining into the shared archive. Park the
            // handshake; the producer waits for our Ack before
            // replaying, so nothing else arrives meanwhile.
            conn.parkedResume = std::make_unique<Frame>(frame);
            return true;
        }
        completeResume(conn, frame);
        return true;
      }

      case FrameType::SeqEvents: {
        if (!conn.session || !conn.resumable) {
            protocolErrorCount.fetch_add(1,
                                         std::memory_order_relaxed);
            return false;
        }
        // Replay overlap is expected after a reconnect: skip records
        // at or below the received floor, they are already in flight
        // to the archive (or in it).
        std::uint64_t &recv = tenantRecvSeq[conn.stem];
        std::uint64_t seq = frame.seq;
        for (const trace::TraceEvent &ev : frame.events) {
            if (seq > recv) {
                conn.session->publish(ev);
                recv = seq;
            }
            ++seq;
        }
        conn.eventsSinceAck += frame.events.size();
        if (conn.eventsSinceAck >= cfg.ackIntervalEvents)
            sendAck(conn);
        return true;
      }

      case FrameType::Ping: {
        if (!conn.session || !conn.resumable) {
            protocolErrorCount.fetch_add(1,
                                         std::memory_order_relaxed);
            return false;
        }
        sendAck(conn);
        return true;
      }

      case FrameType::Events: {
        if (!conn.session) {
            protocolErrorCount.fetch_add(1,
                                         std::memory_order_relaxed);
            return false;
        }
        for (const trace::TraceEvent &ev : frame.events)
            conn.session->publish(ev);
        return true;
      }

      case FrameType::Bye: {
        if (conn.session) {
            conn.session->close();
            conn.session.reset();
        }
        if (conn.isFifo) {
            // The fifo outlives one producer run: back to waiting
            // for the next Hello.
            conn.role = Connection::Role::Unknown;
            conn.tenant.clear();
            return true;
        }
        return false;
      }

      case FrameType::Subscribe: {
        if (conn.session || conn.isFifo) {
            protocolErrorCount.fetch_add(1,
                                         std::memory_order_relaxed);
            return false;
        }
        // Ownership of the fd moves to the hub; the network loop
        // stops polling it (a vanished subscriber surfaces as a
        // failed forward write instead).
        hub->add(conn.fd,
                 frame.pattern.empty() ? "*" : frame.pattern);
        conn.fd = -1;
        return false;
      }

      case FrameType::Stats: {
        std::vector<unsigned char> reply;
        encodeJson(reply, statsJson());
        writeFully(conn.fd, reply.data(), reply.size());
        return true;
      }

      case FrameType::Json:
      case FrameType::Ack:
        // Acks flow daemon -> producer only.
        break;
    }
    protocolErrorCount.fetch_add(1, std::memory_order_relaxed);
    return false;
}

void
LiveService::completeResume(Connection &conn, const Frame &frame)
{
    SessionConfig session = cfg.sessionDefaults;
    session.tenant = frame.tenant.empty() ? "default" : frame.tenant;
    session.seed = frame.seed;
    if (frame.policy >= 1 && frame.policy <= 3)
        session.policy =
            static_cast<Backpressure>(frame.policy - 1);

    const std::string stem = sanitizeTenant(session.tenant);
    std::shared_ptr<EventSink> archiveSink;
    std::shared_ptr<TenantArchive> shared;
    if (!cfg.archiveDir.empty()) {
        if (session.policy == Backpressure::Block) {
            // Resume the tenant file: block policy keeps the archive
            // exactly the producer's record sequence, so the file
            // picks up where the salvaged count stopped.
            auto &slot = tenantArchives[stem];
            if (!slot) {
                slot = std::make_shared<TenantArchive>();
                const std::string path =
                    cfg.archiveDir + "/" + stem + ".smtr";
                if (::access(path.c_str(), F_OK) == 0)
                    slot->writer =
                        std::make_unique<trace::TraceWriter>(
                            trace::ResumeExisting{}, path,
                            archiveOptions);
                if (!slot->writer || !slot->writer->ok())
                    // Missing or unrecoverable: start fresh.
                    slot->writer =
                        std::make_unique<trace::TraceWriter>(
                            path, session.seed, archiveOptions);
                tenantRecvSeq[stem] = slot->writer->written();
                tenantOpens[stem] =
                    std::max(tenantOpens[stem], 1u);
            }
            shared = slot;
            archiveSink = std::make_shared<SharedArchiveSink>(slot);
        } else {
            // Shed policies append accounting markers at every
            // session end — resuming such a file would interleave
            // markers with later records. Fresh file per connection,
            // like a plain Hello; acks floor on the received count.
            std::string fileStem = stem;
            const unsigned nth = ++tenantOpens[fileStem];
            if (nth > 1)
                fileStem += sim::strprintf(".%u", nth);
            archiveSink = std::make_shared<SmtrSink>(
                cfg.archiveDir + "/" + fileStem + ".smtr",
                session.seed, archiveOptions);
        }
    }
    auto sink = std::make_shared<ForwardSink>(
        hub, session.tenant, session.seed,
        static_cast<unsigned char>(session.policy),
        std::move(archiveSink));
    conn.session = collector->open(session, std::move(sink));
    conn.tenant = session.tenant;
    conn.stem = stem;
    conn.resumable = true;
    conn.archive = std::move(shared);
    conn.role = Connection::Role::Producer;
    tenantSessions[stem] = conn.session;
    sessionsResumedCount.fetch_add(1, std::memory_order_relaxed);
    // Answer the handshake: the floor the producer must replay from.
    sendAck(conn);
}

void
LiveService::sendAck(Connection &conn)
{
    std::uint64_t floor = 0;
    if (conn.archive) {
        // Durable floor: commit the archive so an acked record
        // survives a daemon crash.
        const std::lock_guard<std::mutex> lock(conn.archive->mutex);
        if (conn.archive->writer) {
            conn.archive->writer->commit();
            floor = conn.archive->writer->committed();
        }
    } else {
        floor = tenantRecvSeq[conn.stem];
    }
    std::vector<unsigned char> reply;
    encodeAck(reply, floor);
    // Best effort on the non-blocking fd: acks are cumulative, a
    // skipped one is covered by the next.
    writeFully(conn.fd, reply.data(), reply.size());
    conn.eventsSinceAck = 0;
    acksSentCount.fetch_add(1, std::memory_order_relaxed);
}

void
LiveService::dropConnection(std::size_t index)
{
    Connection &conn = *connections[index];
    if (conn.session) {
        conn.session->close();
        conn.session.reset();
    }
    if (conn.fd >= 0)
        ::close(conn.fd);
    connections.erase(connections.begin() +
                      static_cast<std::ptrdiff_t>(index));
}

std::string
LiveService::statsJson() const
{
    const IngestMetrics m = collector->metrics();
    std::string ingest = m.toJson();
    while (!ingest.empty() &&
           (ingest.back() == '\n' || ingest.back() == ' '))
        ingest.pop_back();
    return sim::strprintf(
        "{\n"
        "\"ingest\": %s,\n"
        "\"service\": {\n"
        "  \"connections_accepted\": %llu,\n"
        "  \"frames_decoded\": %llu,\n"
        "  \"protocol_errors\": %llu,\n"
        "  \"subscribers\": %llu,\n"
        "  \"subscribers_evicted\": %llu,\n"
        "  \"events_forwarded\": %llu,\n"
        "  \"acks_sent\": %llu,\n"
        "  \"sessions_resumed\": %llu,\n"
        "  \"archives_repaired\": %llu\n"
        "}\n"
        "}\n",
        ingest.c_str(),
        static_cast<unsigned long long>(
            connectionsAcceptedCount.load(
                std::memory_order_relaxed)),
        static_cast<unsigned long long>(framesDecodedCount.load(
            std::memory_order_relaxed)),
        static_cast<unsigned long long>(protocolErrorCount.load(
            std::memory_order_relaxed)),
        static_cast<unsigned long long>(hub->count()),
        static_cast<unsigned long long>(hub->evicted()),
        static_cast<unsigned long long>(hub->forwarded()),
        static_cast<unsigned long long>(
            acksSentCount.load(std::memory_order_relaxed)),
        static_cast<unsigned long long>(
            sessionsResumedCount.load(std::memory_order_relaxed)),
        static_cast<unsigned long long>(
            archivesRepairedCount.load(std::memory_order_relaxed)));
}

} // namespace live
} // namespace supmon
