/**
 * @file
 * Text renderings of metric snapshots, and the tiny HTTP endpoint
 * that serves them.
 *
 *  - renderPrometheus(): Prometheus text exposition (`# TYPE`
 *    lines, `penelope_`-prefixed underscore names, cumulative
 *    `_bucket{le="..."}` series for histograms).
 *  - renderDump(): the sorted human-readable `obs: name value`
 *    listing `--metrics-dump` prints to stderr after a run.
 *  - MetricsServer: a one-thread HTTP/1.0 responder on
 *    `--metrics-port` (port 0 = ephemeral, announced on stderr).
 *    Every request gets the current scrape.
 *
 * All output paths here write to stderr or a socket -- never
 * stdout, which carries the byte-identical experiment statistics.
 */

#ifndef PENELOPE_OBS_EXPOSITION_HH
#define PENELOPE_OBS_EXPOSITION_HH

#include <atomic>
#include <cstdint>
#include <string>
#include <thread>

#include "obs/metrics.hh"

namespace penelope {
namespace obs {

std::string renderPrometheus(const Snapshot &snap);

/** Sorted `prefix name value` lines (one metric per line;
 *  histograms as `.count` / `.sum`). */
std::string renderDump(const Snapshot &snap,
                       const std::string &prefix = "obs: ");

/** Serves renderPrometheus() of the live registry over HTTP/1.0
 *  on a dedicated thread. */
class MetricsServer
{
  public:
    MetricsServer() = default;
    ~MetricsServer() { stop(); }
    MetricsServer(const MetricsServer &) = delete;
    MetricsServer &operator=(const MetricsServer &) = delete;

    /** Bind and start serving; false (error filled) on failure. */
    bool start(std::uint16_t port, std::string *error);
    std::uint16_t port() const { return port_; }
    void stop();

  private:
    void serveLoop();

    int listenFd_ = -1;
    std::thread thread_;
    std::atomic<bool> stop_{false};
    std::uint16_t port_ = 0;
};

} // namespace obs
} // namespace penelope

#endif // PENELOPE_OBS_EXPOSITION_HH
