#include "service/serve.hh"

#include <atomic>
#include <cerrno>
#include <condition_variable>
#include <cstring>
#include <deque>
#include <fstream>
#include <memory>
#include <mutex>
#include <sstream>
#include <thread>
#include <vector>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <signal.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <sys/un.h>
#include <time.h>
#include <unistd.h>

#include "api/experiment_plan.hh"
#include "api/json.hh"
#include "api/result_sink.hh"
#include "api/session.hh"
#include "common/log.hh"
#include "service/faults.hh"
#include "service/store.hh"

namespace refrint
{

namespace
{

/** Bind+listen on the configured address; -1 with a warn() on error. */
int
openListener(const ServeOptions &opts)
{
    if (!opts.socketPath.empty()) {
        sockaddr_un addr{};
        addr.sun_family = AF_UNIX;
        if (opts.socketPath.size() >= sizeof(addr.sun_path)) {
            warn("serve: socket path too long: %s",
                 opts.socketPath.c_str());
            return -1;
        }
        std::strncpy(addr.sun_path, opts.socketPath.c_str(),
                     sizeof(addr.sun_path) - 1);
        const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
        if (fd < 0) {
            warn("serve: socket: %s", std::strerror(errno));
            return -1;
        }
        ::unlink(opts.socketPath.c_str()); // stale socket from a crash
        if (::bind(fd, reinterpret_cast<sockaddr *>(&addr),
                   sizeof(addr)) != 0 ||
            ::listen(fd, 16) != 0) {
            warn("serve: cannot listen on %s: %s",
                 opts.socketPath.c_str(), std::strerror(errno));
            ::close(fd);
            return -1;
        }
        return fd;
    }

    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0) {
        warn("serve: socket: %s", std::strerror(errno));
        return -1;
    }
    const int one = 1;
    ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(static_cast<std::uint16_t>(opts.port));
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    if (::bind(fd, reinterpret_cast<sockaddr *>(&addr), sizeof(addr)) !=
            0 ||
        ::listen(fd, 16) != 0) {
        warn("serve: cannot listen on 127.0.0.1:%u: %s", opts.port,
             std::strerror(errno));
        ::close(fd);
        return -1;
    }
    return fd;
}

/** SIGTERM latch for the graceful drain.  Written by the signal
 *  handler and read by the acceptor thread, so it must be atomic; a
 *  lock-free atomic keeps the handler async-signal-safe. */
std::atomic<int> gDrainRequested{0};
static_assert(std::atomic<int>::is_always_lock_free,
              "the SIGTERM latch must be lock-free to be signal-safe");

void
onSigterm(int)
{
    gDrainRequested.store(1);
}

struct ServeCounters
{
    std::size_t requests = 0;
    std::size_t plans = 0;
    std::size_t scenarios = 0;
    std::size_t warm = 0;
    std::size_t cold = 0;
    std::size_t errors = 0;
    std::size_t shed = 0;       ///< connections refused: queue full
    std::size_t idleClosed = 0; ///< connections closed: idle timeout
};

/** Arm a receive timeout on @p fd; 0 disables (wait forever). */
void
setReadTimeout(int fd, double seconds)
{
    timeval tv{};
    tv.tv_sec = static_cast<time_t>(seconds);
    tv.tv_usec = static_cast<suseconds_t>(
        (seconds - static_cast<double>(tv.tv_sec)) * 1e6);
    ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
}

void
replyError(std::FILE *io, ServeCounters &counters, const std::string &msg)
{
    ++counters.errors;
    std::fprintf(io, "{\"error\":%s}\n", jsonQuote(msg).c_str());
    std::fflush(io);
}

/**
 * Handle every request line on one connection.  Returns true when the
 * service should keep running, false after a shutdown request.
 * @p draining caps how long we wait for the client's next line so a
 * silent connection cannot stall the SIGTERM drain.
 */
bool
handleConnection(int fd, Session &session, const ServeOptions &opts,
                 ServeCounters &counters, std::size_t queueDepth,
                 bool draining)
{
    double readTimeout = opts.idleTimeoutSec;
    if (draining && (readTimeout <= 0 || readTimeout > 1.0))
        readTimeout = 1.0;
    if (readTimeout > 0)
        setReadTimeout(fd, readTimeout);

    std::FILE *io = ::fdopen(fd, "r+");
    if (io == nullptr) {
        ::close(fd);
        return true;
    }
    bool keepServing = true;
    char *line = nullptr;
    std::size_t cap = 0;
    ssize_t n;
    while (keepServing) {
        errno = 0;
        if ((n = ::getline(&line, &cap, io)) < 0) {
            if (errno == EAGAIN || errno == EWOULDBLOCK) {
                ++counters.idleClosed;
                inform("serve: closing connection idle for %.1fs",
                       readTimeout);
            }
            break;
        }
        std::string text(line, static_cast<std::size_t>(n));
        while (!text.empty() &&
               (text.back() == '\n' || text.back() == '\r'))
            text.pop_back();
        if (text.empty())
            continue;
        const std::size_t reqOrdinal = counters.requests++;

        // Chaos hook: hang up abruptly on request #N, so client
        // robustness against a dying server is testable.
        if (FaultPlan::global().at("serve.drop_conn", reqOrdinal)) {
            warn("serve: fault injection dropping connection at "
                 "request %zu",
                 reqOrdinal);
            break;
        }

        JsonValue doc;
        std::string err;
        if (!JsonValue::parse(text, doc, err)) {
            replyError(io, counters, "bad request JSON: " + err);
            continue;
        }
        const JsonValue *op =
            doc.isObject() ? doc.get("op") : nullptr;
        if (op != nullptr) {
            if (!op->isString()) {
                replyError(io, counters, "\"op\" must be a string");
            } else if (op->asString() == "stats") {
                std::fprintf(io,
                             "{\"stats\":true,\"requests\":%zu,"
                             "\"plans\":%zu,\"scenarios\":%zu,"
                             "\"warm\":%zu,\"cold\":%zu,"
                             "\"errors\":%zu,\"shed\":%zu,"
                             "\"queueDepth\":%zu}\n",
                             counters.requests, counters.plans,
                             counters.scenarios, counters.warm,
                             counters.cold, counters.errors,
                             counters.shed, queueDepth);
                std::fflush(io);
            } else if (op->asString() == "shutdown") {
                std::fprintf(io, "{\"bye\":true}\n");
                std::fflush(io);
                keepServing = false;
            } else {
                replyError(io, counters,
                           "unknown op \"" + op->asString() + "\"");
            }
            continue;
        }

        ExperimentPlan plan;
        if (!ExperimentPlan::tryFromJson(text, plan, err)) {
            replyError(io, counters, err);
            continue;
        }

        ++counters.plans;
        // Non-strict: a client hanging up mid-response must not kill
        // the service; the run completes (warming the store) and the
        // dead stream is noticed below.
        JsonLinesSink rows(io, /*strict=*/false);
        std::vector<ResultSink *> sinks{&rows};
        const SweepResult result =
            session.run(plan, sinks, opts.requestTimeoutSec);
        const RunMetrics &m = result.metrics;
        counters.scenarios += m.scenarios;
        counters.warm += m.cacheHits;
        counters.cold += m.simulated;
        if (std::ferror(io))
            break; // client is gone; nothing more to say
        if (m.skipped > 0) {
            // An incomplete response must end unambiguously: an error
            // terminator, never the done-summary.
            replyError(io, counters,
                       "deadline: " + std::to_string(m.skipped) +
                           " of " + std::to_string(m.scenarios) +
                           " scenarios abandoned after " +
                           std::to_string(opts.requestTimeoutSec) +
                           "s");
            continue;
        }
        const double msPerScenario =
            m.scenarios > 0 ? m.wallSeconds * 1000.0 /
                                  static_cast<double>(m.scenarios)
                            : 0.0;
        std::fprintf(io,
                     "{\"done\":true,\"plan\":%s,\"scenarios\":%zu,"
                     "\"warm\":%zu,\"cold\":%zu,\"queueDepth\":%zu,"
                     "\"wallSeconds\":%s,\"msPerScenario\":%s}\n",
                     jsonQuote(plan.name).c_str(), m.scenarios,
                     m.cacheHits, m.simulated, queueDepth,
                     jsonNumber(m.wallSeconds).c_str(),
                     jsonNumber(msPerScenario).c_str());
        std::fflush(io);
    }
    std::free(line);
    std::fclose(io); // also closes fd
    return keepServing;
}

} // namespace

int
runServe(const ServeOptions &opts)
{
    if (opts.socketPath.empty() && opts.port == 0) {
        warn("serve: need --socket PATH or --port N");
        return 1;
    }

    // A client dropping mid-response must not kill the service.
    ::signal(SIGPIPE, SIG_IGN);

    // SIGTERM = graceful drain (no SA_RESTART: poll/accept must wake).
    gDrainRequested.store(0);
    struct sigaction sa{};
    sa.sa_handler = onSigterm;
    sigemptyset(&sa.sa_mask);
    ::sigaction(SIGTERM, &sa, nullptr);

    const int listenFd = openListener(opts);
    if (listenFd < 0)
        return 1;

    std::unique_ptr<ResultStore> store;
    if (!opts.storeDir.empty())
        store = std::make_unique<ShardedStore>(opts.storeDir);
    Session session(std::move(store), opts.jobs);

    const std::size_t maxQueue = opts.maxQueue == 0 ? 1 : opts.maxQueue;
    std::mutex mu;
    std::condition_variable cv;
    std::deque<int> pending;
    bool stop = false;
    bool acceptorDown = false;
    std::size_t shedCount = 0;

    // The acceptor polls (instead of blocking in accept) so a SIGTERM
    // delivered to ANY thread is noticed within one poll interval.
    std::thread acceptor([&]() {
        for (;;) {
            if (gDrainRequested.load() != 0) {
                std::lock_guard<std::mutex> lock(mu);
                acceptorDown = true;
                cv.notify_one();
                break;
            }
            pollfd pfd{listenFd, POLLIN, 0};
            const int ready = ::poll(&pfd, 1, 200 /* ms */);
            if (ready < 0 && errno != EINTR) {
                std::lock_guard<std::mutex> lock(mu);
                acceptorDown = true; // listener closed or broken
                cv.notify_one();
                break;
            }
            if (ready <= 0)
                continue;
            const int fd = ::accept(listenFd, nullptr, nullptr);
            if (fd < 0) {
                if (errno == EINTR || errno == EAGAIN)
                    continue;
                std::lock_guard<std::mutex> lock(mu);
                acceptorDown = true;
                cv.notify_one();
                break;
            }
            bool shed = false;
            {
                std::lock_guard<std::mutex> lock(mu);
                if (stop) {
                    ::close(fd);
                    break;
                }
                if (pending.size() >= maxQueue) {
                    shed = true;
                    ++shedCount;
                } else {
                    pending.push_back(fd);
                    cv.notify_one();
                }
            }
            if (shed) {
                // Bounded queue: fail fast instead of letting tail
                // latency grow without limit.
                static const char msg[] = "{\"error\":\"overloaded\"}\n";
                ssize_t ignored = ::write(fd, msg, sizeof(msg) - 1);
                (void)ignored;
                ::close(fd);
            }
        }
    });

    if (!opts.socketPath.empty())
        inform("serve: listening on %s", opts.socketPath.c_str());
    else
        inform("serve: listening on 127.0.0.1:%u", opts.port);

    ServeCounters counters;
    bool drainLogged = false;
    for (;;) {
        int fd;
        std::size_t depth;
        bool draining;
        {
            std::unique_lock<std::mutex> lock(mu);
            counters.shed = shedCount;
            cv.wait(lock, [&]() {
                return !pending.empty() || acceptorDown;
            });
            draining = acceptorDown && gDrainRequested.load() != 0;
            if (pending.empty())
                break; // listener gone and the queue is dry
            fd = pending.front();
            pending.pop_front();
            depth = pending.size();
        }
        if (draining && !drainLogged) {
            drainLogged = true;
            inform("serve: SIGTERM — draining %zu queued "
                   "connection(s), then exiting",
                   depth + 1);
        }
        if (!handleConnection(fd, session, opts, counters, depth,
                              draining))
            break;
    }

    {
        std::lock_guard<std::mutex> lock(mu);
        stop = true;
        counters.shed = shedCount;
        for (const int fd : pending)
            ::close(fd);
        pending.clear();
    }
    ::shutdown(listenFd, SHUT_RDWR);
    ::close(listenFd); // unblocks the acceptor
    acceptor.join();
    if (!opts.socketPath.empty())
        ::unlink(opts.socketPath.c_str());
    // The session's store was flushed at the end of every run();
    // nothing buffered survives here, so a restart against the same
    // store answers everything warm.
    inform("serve: %s after %zu request(s), %zu plan(s) "
           "(%zu warm, %zu cold, %zu shed, %zu idle-closed)",
           gDrainRequested.load() != 0 ? "drained (SIGTERM)"
                                       : "shut down",
           counters.requests, counters.plans, counters.warm,
           counters.cold, counters.shed, counters.idleClosed);
    return 0;
}

namespace
{

/** Connect to the serve address, retrying for ~2 s. */
int
connectWithRetry(const SubmitOptions &opts)
{
    for (int attempt = 0; attempt < 40; ++attempt) {
        int fd = -1;
        if (!opts.socketPath.empty()) {
            sockaddr_un addr{};
            addr.sun_family = AF_UNIX;
            if (opts.socketPath.size() >= sizeof(addr.sun_path))
                return -1;
            std::strncpy(addr.sun_path, opts.socketPath.c_str(),
                         sizeof(addr.sun_path) - 1);
            fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
            if (fd >= 0 &&
                ::connect(fd, reinterpret_cast<sockaddr *>(&addr),
                          sizeof(addr)) == 0)
                return fd;
        } else {
            sockaddr_in addr{};
            addr.sin_family = AF_INET;
            addr.sin_port =
                htons(static_cast<std::uint16_t>(opts.port));
            addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
            fd = ::socket(AF_INET, SOCK_STREAM, 0);
            if (fd >= 0 &&
                ::connect(fd, reinterpret_cast<sockaddr *>(&addr),
                          sizeof(addr)) == 0)
                return fd;
        }
        if (fd >= 0)
            ::close(fd);
        timespec ts{0, 50 * 1000 * 1000}; // 50 ms
        ::nanosleep(&ts, nullptr);
    }
    return -1;
}

} // namespace

int
runSubmit(const SubmitOptions &opts)
{
    if (opts.socketPath.empty() && opts.port == 0) {
        warn("submit: need --socket PATH or --port N");
        return 1;
    }

    std::string request;
    if (opts.op == "run") {
        std::ifstream in(opts.planPath);
        if (!in) {
            warn("submit: cannot read plan file %s",
                 opts.planPath.c_str());
            return 1;
        }
        std::stringstream ss;
        ss << in.rdbuf();
        JsonValue doc;
        std::string err;
        if (!JsonValue::parse(ss.str(), doc, err)) {
            warn("submit: %s is not JSON: %s", opts.planPath.c_str(),
                 err.c_str());
            return 1;
        }
        request = doc.dump(0); // one compact line
    } else if (opts.op == "stats" || opts.op == "shutdown") {
        request = "{\"op\":\"" + opts.op + "\"}";
    } else {
        warn("submit: unknown op \"%s\"", opts.op.c_str());
        return 1;
    }

    ::signal(SIGPIPE, SIG_IGN);
    const int fd = connectWithRetry(opts);
    if (fd < 0) {
        if (!opts.socketPath.empty())
            warn("submit: cannot connect to %s",
                 opts.socketPath.c_str());
        else
            warn("submit: cannot connect to 127.0.0.1:%u", opts.port);
        return 1;
    }

    std::FILE *io = ::fdopen(fd, "r+");
    if (io == nullptr) {
        ::close(fd);
        return 1;
    }
    std::fprintf(io, "%s\n", request.c_str());
    std::fflush(io);

    std::FILE *out = opts.out != nullptr ? opts.out : stdout;
    int rc = 1; // no terminator seen = failure
    char *line = nullptr;
    std::size_t cap = 0;
    ssize_t n;
    while ((n = ::getline(&line, &cap, io)) >= 0) {
        std::fwrite(line, 1, static_cast<std::size_t>(n), out);
        JsonValue doc;
        std::string err;
        const std::string text(line, static_cast<std::size_t>(n));
        if (!JsonValue::parse(text, doc, err) || !doc.isObject())
            continue; // row line; keep streaming
        if (doc.get("error") != nullptr) {
            rc = 1;
            break;
        }
        if (doc.get("done") != nullptr || doc.get("stats") != nullptr ||
            doc.get("bye") != nullptr) {
            rc = 0;
            break;
        }
    }
    std::free(line);
    std::fflush(out);
    std::fclose(io);
    return rc;
}

} // namespace refrint
