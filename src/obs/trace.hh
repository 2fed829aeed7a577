/**
 * @file
 * Span tracer emitting Chrome `trace_event` JSON (one event per
 * line), loadable by Perfetto / chrome://tracing.
 *
 * The file is a JSON array written incrementally: the opening
 * `[` on its own line, then one complete-event object (`"ph":"X"`)
 * per line with a trailing comma, and on clean close a final `{}`
 * sentinel plus `]` -- so a closed trace is *strictly valid JSON*
 * (jq-parseable, CI asserts it) while a crashed run still leaves
 * a file the Chrome trace importer accepts (it tolerates the
 * missing terminator).
 *
 * Every timestamp comes from the one process-wide monotonic clock
 * (obs::monotonicMicros), so spans from the experiment driver,
 * the engine's pool threads, and cache I/O all line up on a
 * shared axis.  Thread ids are small dense integers assigned per
 * thread on first emission.
 *
 * Cost discipline matches the metrics registry: an inactive
 * tracer costs one relaxed bool per span site.
 */

#ifndef PENELOPE_OBS_TRACE_HH
#define PENELOPE_OBS_TRACE_HH

#include <atomic>
#include <cstdint>
#include <string>
#include <string_view>

#include "obs/metrics.hh"

namespace penelope {
namespace obs {

class Tracer
{
  public:
    static Tracer &instance();

    /** Open @p path and write the array header; enables span
     *  emission.  False (with @p error filled) on I/O failure. */
    bool open(const std::string &path, std::string *error);

    /** Write the close sentinel and `]`, flush, disable emission.
     *  Idempotent; safe with no open() ever. */
    void close();

    bool
    active() const
    {
        return active_.load(std::memory_order_relaxed);
    }

    /** Emit one complete event: [ts, ts+dur) microseconds on the
     *  shared monotonic clock.  @p name and @p cat must be plain
     *  ASCII without quotes/backslashes (they are event labels,
     *  not user data; a defensive escape is applied anyway). */
    void complete(std::string_view name, std::string_view cat,
                  std::uint64_t ts_us, std::uint64_t dur_us);

    /** Events written since open (test visibility). */
    std::uint64_t eventCount() const;

  private:
    Tracer() = default;
    std::atomic<bool> active_{false};
};

/** RAII span: stamps begin at construction, emits a complete
 *  event at destruction.  Inactive tracer: one relaxed load. */
class ScopedSpan
{
  public:
    explicit ScopedSpan(std::string_view name,
                        std::string_view cat = "penelope")
    {
        if (Tracer::instance().active()) {
            name_ = name;
            cat_ = cat;
            begin_ = monotonicMicros();
            armed_ = true;
        }
    }

    ~ScopedSpan()
    {
        if (armed_) {
            const std::uint64_t end = monotonicMicros();
            Tracer::instance().complete(
                name_, cat_, begin_,
                end > begin_ ? end - begin_ : 0);
        }
    }

    ScopedSpan(const ScopedSpan &) = delete;
    ScopedSpan &operator=(const ScopedSpan &) = delete;

  private:
    std::string_view name_;
    std::string_view cat_;
    std::uint64_t begin_ = 0;
    bool armed_ = false;
};

} // namespace obs
} // namespace penelope

#endif // PENELOPE_OBS_TRACE_HH
