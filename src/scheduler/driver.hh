/**
 * @file
 * Trace replay driver for the scheduler.
 *
 * Models slot lifecycle timing: uops arrive at a configurable
 * dispatch rate, occupy a slot for a geometrically distributed
 * residence (wait-for-operands plus issue), and release.  Defaults
 * are calibrated to the paper's 63% average occupancy.
 */

#ifndef PENELOPE_SCHEDULER_DRIVER_HH
#define PENELOPE_SCHEDULER_DRIVER_HH

#include <algorithm>
#include <array>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <optional>
#include <utility>
#include <vector>

#include "common/rng.hh"
#include "scheduler.hh"
#include "trace/generator.hh"

namespace penelope {

/** Replay parameters. */
struct SchedReplayConfig
{
    /** Mean uops dispatched per cycle (subject to slot space). */
    double arrivalRate = 2.5;

    /** Mean slot residence in cycles (allocate to issue). */
    double meanResidence = 8.0;

    std::uint64_t seed = 0x5c4ed;
};

/** Outcome of a replay. */
struct SchedReplayResult
{
    Cycle cycles = 0;
    std::uint64_t allocated = 0;
    std::uint64_t released = 0;
    std::uint64_t stallCycles = 0; ///< cycles with a blocked uop
    double occupancy = 0.0;
};

/**
 * Replays a uop stream against one or more Schedulers.
 *
 * The uop source is any type with a `Uop next()` member: the
 * workload's TraceGenerator, or an adversarial source such as
 * AttackTraceGenerator (trace/attack.hh).  Replay timing --
 * arrivals, residences, rename tags -- is drawn from the replay's
 * own Rng either way, so two sources differ only in the uops they
 * feed the slots.
 *
 * Several schedulers of one geometry replay in lockstep: every
 * allocate and release goes to each of them with the same uop, tags
 * and entry.  Slot allocation depends only on busy/free state,
 * which protection never changes, so each scheduler sees
 * exactly the call sequence a solo replay with the same seed would
 * give it -- one uop stream and one timing stream serve every arm
 * (baseline, protected) of a trace.  A scheduler that allocates a
 * different entry from the first one throws std::logic_error.
 */
class SchedulerReplay
{
  public:
    /** Lockstep replay of @p schedulers (not owned; all with the
     *  same numEntries, else std::invalid_argument). */
    SchedulerReplay(std::vector<Scheduler *> schedulers,
                    const SchedReplayConfig &config);

    SchedulerReplay(Scheduler &scheduler,
                    const SchedReplayConfig &config)
        : SchedulerReplay(std::vector<Scheduler *>{&scheduler},
                          config)
    {
    }

    template <class Gen>
    SchedReplayResult
    run(Gen &gen, std::size_t num_uops)
    {
        SchedReplayResult result;
        std::optional<Uop> pending;
        std::size_t consumed = 0;
        Cycle now = clock_;
        double &arrival_acc = arrivalAcc_;

        while (consumed < num_uops) {
            // Releases due this cycle.  The calendar wheel holds
            // each pending entry whose release falls inside the
            // next 64 cycles in the bucket of its due cycle, so a
            // cycle reads one word instead of scanning every slot;
            // entries further out wait in far_ and are promoted at
            // wheel-period boundaries, always before they fall due.
            // Due entries are released in ascending slot order.
            if ((now & 63) == 0 && !far_.empty())
                promoteFar(now);
            std::uint64_t due = wheel_[now & 63];
            wheel_[now & 63] = 0;
            for (; due; due &= due - 1) {
                const unsigned e =
                    static_cast<unsigned>(std::countr_zero(due));
                release(e, now);
                releaseAt_[e] = 0;
                ++result.released;
            }

            // Arrivals.
            arrival_acc += config_.arrivalRate;
            bool stalled = false;
            while (arrival_acc >= 1.0 && consumed < num_uops) {
                Uop uop;
                if (pending) {
                    uop = *pending;
                    pending.reset();
                } else {
                    uop = gen.next();
                }
                const int entry = allocate(uop, now);
                if (entry < 0) {
                    pending = uop;
                    stalled = true;
                    break;
                }
                arrival_acc -= 1.0;
                ++consumed;
                ++result.allocated;
                const Cycle residence = 1 + residence_(rng_);
                const Cycle at = now + residence;
                releaseAt_[static_cast<unsigned>(entry)] = at;
                if (residence < 64) {
                    wheel_[at & 63] |= std::uint64_t(1)
                        << static_cast<unsigned>(entry);
                } else {
                    far_.push_back(static_cast<unsigned>(entry));
                }
            }
            if (stalled) {
                ++result.stallCycles;
                // Cap the backlog so a long stall does not burst
                // later.
                arrival_acc = std::min(arrival_acc, 4.0);
            }
            ++now;
        }

        // Drain outstanding entries (releaseAt_ stays authoritative
        // alongside the wheel).
        for (unsigned e = 0; e < releaseAt_.size(); ++e) {
            if (releaseAt_[e] != 0) {
                const Cycle at = std::max(now, releaseAt_[e]);
                now = std::max(now, at);
                release(e, at);
                releaseAt_[e] = 0;
                ++result.released;
            }
        }
        wheel_.fill(0);
        far_.clear();

        clock_ = now;
        result.cycles = now;
        result.occupancy = scheds_.front()->occupancy(now);
        return result;
    }

  private:
    RenameTags nextTags(const Uop &uop);

    /** Allocate @p uop in every scheduler (one tag draw); the
     *  shared entry, or -1 when full. */
    int
    allocate(const Uop &uop, Cycle now)
    {
        const RenameTags tags = nextTags(uop);
        const int entry = scheds_.front()->allocate(uop, tags, now);
        for (std::size_t k = 1; k < scheds_.size(); ++k) {
            if (scheds_[k]->allocate(uop, tags, now) != entry)
                diverged();
        }
        return entry;
    }

    /** Release @p entry in every scheduler.  Each release takes
     *  one draw from the timing stream: it once decided whether an
     *  allocate port was free for the repair write, which the
     *  Scheduler applies either way (Section 3.2), and it stays so
     *  the stream -- and every cached result -- is unchanged. */
    void
    release(unsigned entry, Cycle now)
    {
        rng_();
        for (Scheduler *sched : scheds_)
            sched->release(entry, now);
    }

    [[noreturn]] static void diverged();

    /** Move far-off pending releases whose due cycle now falls
     *  inside the wheel window into their buckets. */
    void promoteFar(Cycle now);

    std::vector<Scheduler *> scheds_;
    SchedReplayConfig config_;
    GeometricDist residence_; ///< cycles past the first, mean - 1
    Rng rng_;
    std::vector<Cycle> releaseAt_; ///< per entry; 0 = free

    /** Calendar wheel over the next 64 cycles: bucket c is an
     *  entry-bit mask of releases due at cycles congruent to c
     *  (mod 64); a Scheduler has at most 64 entries, so every entry
     *  fits one mask word. */
    std::array<std::uint64_t, 64> wheel_{};
    std::vector<unsigned> far_; ///< pending releases >= 64 cycles out

    std::uint8_t tagCounter_ = 0;

    /** Persistent clock so successive run() calls continue time. */
    Cycle clock_ = 0;
    double arrivalAcc_ = 0.0;
};

/**
 * Replay @p num_uops uops of @p gen through one fresh scheduler per
 * entry of @p arms, in lockstep: a non-empty decision vector is
 * installed and protection enabled, an empty one leaves the arm
 * unprotected.  Returns each arm's stress snapshot, in arm order;
 * each equals the snapshot of a solo replay with the same seed.
 */
template <class Gen>
std::vector<SchedulerStress>
replaySchedulerArms(Gen &gen, std::size_t num_uops,
                    const SchedulerConfig &sched_config,
                    const SchedReplayConfig &replay_config,
                    const std::vector<std::vector<BitDecision>> &arms)
{
    std::deque<Scheduler> scheds;
    std::vector<Scheduler *> lockstep;
    for (const std::vector<BitDecision> &decisions : arms) {
        Scheduler &sched = scheds.emplace_back(sched_config);
        if (!decisions.empty()) {
            sched.configureProtection(decisions);
            sched.enableProtection(true);
        }
        lockstep.push_back(&sched);
    }
    SchedulerReplay replay(std::move(lockstep), replay_config);
    const SchedReplayResult r = replay.run(gen, num_uops);
    std::vector<SchedulerStress> out;
    for (Scheduler &sched : scheds)
        out.push_back(sched.snapshotStress(r.cycles));
    return out;
}

} // namespace penelope

#endif // PENELOPE_SCHEDULER_DRIVER_HH
