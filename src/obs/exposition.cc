#include "obs/exposition.hh"

#include <cerrno>
#include <cstring>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

namespace penelope {
namespace obs {
namespace {

/** penelope_ prefix, dots and dashes to underscores. */
std::string
promName(const std::string &name)
{
    std::string out = "penelope_";
    for (const char c : name)
        out.push_back(c == '.' || c == '-' ? '_' : c);
    return out;
}

const char *
promType(MetricKind kind)
{
    switch (kind) {
      case MetricKind::Counter:
        return "counter";
      case MetricKind::Histogram:
        return "histogram";
    }
    return "untyped";
}

void
renderMetric(std::string &out, const SnapshotMetric &m)
{
    const std::string base = promName(m.name);
    out += "# TYPE ";
    out += base;
    out.push_back(' ');
    out += promType(m.kind);
    out.push_back('\n');
    if (m.kind == MetricKind::Histogram) {
        std::uint64_t cum = 0;
        for (std::size_t b = 0; b < kHistBuckets; ++b) {
            if (b < m.values.size())
                cum += m.values[b];
            // Only emit populated boundaries plus le=0 so the
            // series stays readable; the +Inf bucket always goes.
            if (b + 1 < kHistBuckets &&
                (b >= m.values.size() || m.values[b] == 0) &&
                b != 0)
                continue;
            out += base + "_bucket{le=\"" +
                std::to_string(bucketBound(b)) + "\"}";
            out.push_back(' ');
            out += std::to_string(cum);
            out.push_back('\n');
        }
        out += base + "_bucket{le=\"+Inf\"}";
        out.push_back(' ');
        out += std::to_string(m.count());
        out.push_back('\n');
        out += base + "_sum";
        out.push_back(' ');
        out += std::to_string(m.sum());
        out.push_back('\n');
        out += base + "_count";
        out.push_back(' ');
        out += std::to_string(m.count());
        out.push_back('\n');
        return;
    }
    out += base;
    out.push_back(' ');
    out += std::to_string(m.scalar());
    out.push_back('\n');
}

} // namespace

std::string
renderPrometheus(const Snapshot &snap)
{
    std::string out;
    for (const auto &m : snap.metrics)
        renderMetric(out, m);
    return out;
}

std::string
renderDump(const Snapshot &snap, const std::string &prefix)
{
    std::string out;
    for (const auto &m : snap.metrics) {
        if (m.kind == MetricKind::Histogram) {
            out += prefix + m.name +
                ".count " + std::to_string(m.count()) + "\n";
            out += prefix + m.name + ".sum " +
                std::to_string(m.sum()) + " " + m.unit + "\n";
            continue;
        }
        out += prefix + m.name + " " + std::to_string(m.scalar());
        if (m.unit != "1")
            out += " " + m.unit;
        out.push_back('\n');
    }
    return out;
}

bool
MetricsServer::start(std::uint16_t port, std::string *error)
{
    const auto fail = [&](const char *what) {
        if (error)
            *error = std::string(what) + ": " + std::strerror(errno);
        if (listenFd_ >= 0)
            ::close(listenFd_);
        listenFd_ = -1;
        return false;
    };
    listenFd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    if (listenFd_ < 0)
        return fail("socket");
    const int one = 1;
    ::setsockopt(listenFd_, SOL_SOCKET, SO_REUSEADDR, &one,
                 sizeof(one));
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    // Loopback only: run metrics are for the local operator, not
    // for every network the host is attached to.
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(port);
    if (::bind(listenFd_, reinterpret_cast<sockaddr *>(&addr),
               sizeof(addr)) != 0)
        return fail("bind");
    if (::listen(listenFd_, 16) != 0)
        return fail("listen");
    socklen_t len = sizeof(addr);
    if (::getsockname(listenFd_, reinterpret_cast<sockaddr *>(&addr),
                      &len) != 0)
        return fail("getsockname");
    port_ = ntohs(addr.sin_port);
    stop_.store(false);
    thread_ = std::thread([this] { serveLoop(); });
    return true;
}

void
MetricsServer::stop()
{
    if (!thread_.joinable())
        return;
    stop_.store(true);
    thread_.join();
    ::close(listenFd_);
    listenFd_ = -1;
}

void
MetricsServer::serveLoop()
{
    while (!stop_.load()) {
        // Poll in 100 ms slices so stop() is honoured promptly.
        pollfd listen_poll{listenFd_, POLLIN, 0};
        if (::poll(&listen_poll, 1, 100) <= 0 ||
            !(listen_poll.revents & POLLIN))
            continue;
        const int conn = ::accept(listenFd_, nullptr, nullptr);
        if (conn < 0)
            continue;
        // Drain whatever request line arrived; the response is
        // the same for every path.
        char buf[512];
        pollfd conn_poll{conn, POLLIN, 0};
        ::poll(&conn_poll, 1, 50);
        (void)::recv(conn, buf, sizeof buf, MSG_DONTWAIT);
        const std::string body =
            renderPrometheus(Registry::instance().scrape());
        const std::string resp = "HTTP/1.0 200 OK\r\n"
                                 "Content-Type: text/plain; "
                                 "version=0.0.4\r\n"
                                 "Content-Length: " +
            std::to_string(body.size()) + "\r\n\r\n" + body;
        const char *p = resp.data();
        std::size_t left = resp.size();
        while (left > 0) {
            const ssize_t sent = ::send(conn, p, left, MSG_NOSIGNAL);
            if (sent < 0 && errno == EINTR)
                continue;
            if (sent <= 0)
                break;
            p += sent;
            left -= static_cast<std::size_t>(sent);
        }
        ::close(conn);
    }
}

} // namespace obs
} // namespace penelope
