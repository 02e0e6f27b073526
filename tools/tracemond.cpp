/**
 * @file
 * tracemond - the live trace monitoring daemon: the modern stand-in
 * for the CEC side of the paper's monitoring chain, accepting event
 * streams from running producers instead of harvesting trace files
 * after the fact.
 *
 * Usage:
 *   tracemond [options] --socket <path>
 *   tracemond --stats <socket>
 *
 * Serve options:
 *   --socket PATH     Unix-domain socket to listen on (required)
 *   --tcp PORT        also listen on 127.0.0.1:PORT for resumable
 *                     sessions (0 = ephemeral port)
 *   --fifo PATH       also ingest the wire framing from a FIFO
 *                     (repeatable; created if missing)
 *   --archive DIR     write each tenant's delivered stream to
 *                     DIR/<tenant>.smtr, journaled: torn archives
 *                     are repaired at startup and a resuming
 *                     block-policy producer appends to its tenant
 *                     file
 *   --commit N        journal commit interval in records (default
 *                     4096)
 *   --fsync           fdatasync the archive on every commit
 *   --policy NAME     default backpressure policy: block,
 *                     shed-newest, shed-oldest (default block; a
 *                     producer's Hello can override per session)
 *   --ring N          per-session SPSC ring slots (default 4096)
 *   --buffer N        per-session bounded delivery buffer (default
 *                     65536)
 *   --threads N       collector drain loops (default 1)
 *
 * The daemon serves until SIGINT/SIGTERM, then drains and flushes:
 * every session's remaining events reach its archive and
 * subscribers, trace headers are patched, and the socket is removed.
 *
 * --stats connects to a running daemon, asks for its ingestion
 * metrics and prints the JSON reply — the runtime-queryable
 * ingestion counters (produced/delivered/dropped, stalls, ring and
 * buffer high-water marks, per-service totals).
 */

#include <cerrno>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include <unistd.h>

#include "live/service.hh"
#include "live/wire.hh"
#include "sim/logging.hh"

using namespace supmon;

namespace
{

int
usage(const char *argv0)
{
    std::fprintf(
        stderr,
        "usage: %s [options] --socket <path>\n"
        "       %s --stats <socket>\n"
        "options: --tcp PORT  --fifo PATH  --archive DIR\n"
        "         --commit N  --fsync\n"
        "         --policy block|shed-newest|shed-oldest\n"
        "         --ring N  --buffer N  --threads N\n",
        argv0, argv0);
    return 2;
}

live::LiveService *activeService = nullptr;

void
onSignal(int)
{
    if (activeService)
        activeService->requestStop();
}

int
queryStats(const std::string &path)
{
    const int fd = live::connectUnix(path);
    if (fd < 0) {
        std::fprintf(stderr, "tracemond: cannot connect to %s: %s\n",
                     path.c_str(), std::strerror(errno));
        return 1;
    }
    std::vector<unsigned char> request;
    live::encodeStats(request);
    if (!live::writeFully(fd, request.data(), request.size())) {
        std::fprintf(stderr, "tracemond: stats request failed\n");
        ::close(fd);
        return 1;
    }
    live::FrameReader reader(fd);
    live::Frame frame;
    int status = 1;
    if (reader.next(frame) && frame.type == live::FrameType::Json) {
        std::printf("%s", frame.json.c_str());
        status = 0;
    } else {
        std::fprintf(stderr, "tracemond: no stats reply (%s)\n",
                     reader.error().empty() ? "connection closed"
                                            : reader.error().c_str());
    }
    ::close(fd);
    return status;
}

} // namespace

int
main(int argc, char **argv)
{
    sim::setQuiet(true);

    live::ServiceConfig config;
    std::string statsPath;

    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--socket" && i + 1 < argc) {
            config.socketPath = argv[++i];
        } else if (arg == "--fifo" && i + 1 < argc) {
            config.fifoPaths.push_back(argv[++i]);
        } else if (arg == "--tcp" && i + 1 < argc) {
            const long port = std::atol(argv[++i]);
            if (port < 0 || port > 65535) {
                std::fprintf(stderr, "bad tcp port '%s'\n", argv[i]);
                return 2;
            }
            config.tcpPort = static_cast<int>(port);
        } else if (arg == "--archive" && i + 1 < argc) {
            config.archiveDir = argv[++i];
        } else if (arg == "--commit" && i + 1 < argc) {
            const long n = std::atol(argv[++i]);
            if (n < 1) {
                std::fprintf(stderr, "bad commit interval '%s'\n",
                             argv[i]);
                return 2;
            }
            config.archiveCommitInterval =
                static_cast<std::uint64_t>(n);
        } else if (arg == "--fsync") {
            config.archiveFsync = true;
        } else if (arg == "--policy" && i + 1 < argc) {
            if (!live::parseBackpressure(
                    argv[++i], config.sessionDefaults.policy)) {
                std::fprintf(stderr, "unknown policy '%s'\n",
                             argv[i]);
                return 2;
            }
        } else if (arg == "--ring" && i + 1 < argc) {
            const long n = std::atol(argv[++i]);
            if (n < 1) {
                std::fprintf(stderr, "bad ring size '%s'\n", argv[i]);
                return 2;
            }
            config.sessionDefaults.ringCapacity =
                static_cast<std::size_t>(n);
        } else if (arg == "--buffer" && i + 1 < argc) {
            const long n = std::atol(argv[++i]);
            if (n < 1) {
                std::fprintf(stderr, "bad buffer size '%s'\n",
                             argv[i]);
                return 2;
            }
            config.sessionDefaults.maxBuffered =
                static_cast<std::size_t>(n);
        } else if (arg == "--threads" && i + 1 < argc) {
            const int n = std::atoi(argv[++i]);
            if (n < 1 || n > 64) {
                std::fprintf(stderr, "bad thread count '%s'\n",
                             argv[i]);
                return 2;
            }
            config.collector.threads = static_cast<unsigned>(n);
        } else if (arg == "--stats" && i + 1 < argc) {
            statsPath = argv[++i];
        } else {
            return usage(argv[0]);
        }
    }

    if (!statsPath.empty())
        return queryStats(statsPath);
    if (config.socketPath.empty() && config.fifoPaths.empty())
        return usage(argv[0]);

    live::LiveService service(config);
    if (!service.ok()) {
        std::fprintf(stderr, "%s\n", service.error().c_str());
        return 1;
    }

    if (config.tcpPort >= 0 && service.tcpListenPort() > 0) {
        // Announce the bound port (matters for --tcp 0) so scripts
        // can pick it up.
        std::printf("tcp-port %d\n", service.tcpListenPort());
        std::fflush(stdout);
    }

    activeService = &service;
    std::signal(SIGINT, onSignal);
    std::signal(SIGTERM, onSignal);
    std::signal(SIGPIPE, SIG_IGN);

    service.run();
    activeService = nullptr;

    if (!service.ok()) {
        std::fprintf(stderr, "%s\n", service.error().c_str());
        return 1;
    }
    return 0;
}
