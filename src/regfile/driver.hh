/**
 * @file
 * Trace replay driver for register files.
 *
 * Models the renaming lifecycle the paper's simulator exposes to the
 * register file: a writing uop allocates a fresh physical register;
 * the previous mapping of its architectural register is released
 * once the writer commits (a fixed pipeline-depth delay here).
 * Write-port availability at release time is modelled as a Bernoulli
 * draw with the paper's measured probabilities (92% INT / 86% FP) as
 * defaults.
 */

#ifndef PENELOPE_REGFILE_DRIVER_HH
#define PENELOPE_REGFILE_DRIVER_HH

#include <cassert>
#include <cstdint>
#include <deque>
#include <utility>
#include <vector>

#include "common/ring.hh"
#include "common/rng.hh"
#include "regfile.hh"
#include "trace/generator.hh"

namespace penelope {

/** Replay parameters. */
struct RegReplayConfig
{
    /** Drive the FP (true) or integer (false) register file. */
    bool fp = false;

    /** Cycles between an overwrite and the release of the previous
     *  physical register (rename-to-commit depth). */
    unsigned commitDelay = 80;

    /** Probability a write port is free at release time. */
    double portFreeProb = 0.92;

    std::uint64_t seed = 0x4e60f11e;
};

/** Outcome counters of a replay. */
struct RegReplayResult
{
    Cycle cycles = 0;
    std::uint64_t writes = 0;
    std::uint64_t releases = 0;
    std::uint64_t forcedReleases = 0; ///< free-list pressure events
    double occupancy = 0.0;
    double freeFraction = 0.0;
};

/**
 * Replays a uop stream against one or more RegisterFiles (one cycle
 * per uop).
 *
 * The uop source is any type with a `Uop next()` member: the
 * workload's TraceGenerator, or an adversarial source such as
 * AttackTraceGenerator (trace/attack.hh) -- the same source
 * contract as SchedulerReplay, so the wearout-attack experiments
 * drive both structures with one generator.
 *
 * Several register files of one geometry replay in lockstep: every
 * allocate, write and release goes to each of them with the same
 * entry, value and port bit.  Allocation depends only on the free
 * list, which ISV never changes, so each file sees exactly the call
 * sequence a solo replay with the same seed would give it.  A file
 * that allocates a different entry from the first one throws
 * std::logic_error.
 */
class RegFileReplay
{
  public:
    /** Lockstep replay of @p files (not owned; all with the same
     *  numEntries and width, else std::invalid_argument). */
    RegFileReplay(std::vector<RegisterFile *> files,
                  const RegReplayConfig &config);

    RegFileReplay(RegisterFile &rf, const RegReplayConfig &config)
        : RegFileReplay(std::vector<RegisterFile *>{&rf}, config)
    {
    }

    /** Consume @p num_uops uops from @p gen. */
    template <class Gen>
    RegReplayResult
    run(Gen &gen, std::size_t num_uops)
    {
        RegisterFile &first = *files_.front();
        Cycle now = clock_;
        for (std::size_t i = 0; i < num_uops; ++i, ++now) {
            // Inline front-due guard: most cycles have no release
            // due, so the out-of-line drain loop is only entered
            // when the oldest pending entry has matured.
            if (!pending_.empty() && pending_.front().due <= now)
                drainReleases(now, false);
            const Uop uop = gen.next();
            if (!uop.writesReg())
                continue;
            if (isFp(uop.cls) != config_.fp)
                continue;

            int phys = allocate(now);
            if (phys < 0) {
                // Free-list pressure: force the oldest pending
                // release (the pipeline would have stalled until
                // commit).
                drainReleases(now, true);
                phys = allocate(now);
                if (phys < 0)
                    continue; // nothing to release; drop the write
            }
            const BitWord value = config_.fp
                ? BitWord(first.width(), uop.dstVal, uop.dstValHi)
                : BitWord(first.width(), uop.dstVal);
            for (RegisterFile *rf : files_)
                rf->write(static_cast<unsigned>(phys), value, now);
            ++result_.writes;

            const unsigned arch = uop.dstReg;
            assert(arch < archMap_.size());
            if (archMap_[arch] >= 0) {
                pending_.push_back(
                    {now + config_.commitDelay,
                     static_cast<unsigned>(archMap_[arch])});
            }
            archMap_[arch] = phys;
        }
        clock_ = now;
        result_.cycles = now;
        result_.occupancy = first.occupancy(now);
        result_.freeFraction = 1.0 - result_.occupancy;
        return result_;
    }

  private:
    struct PendingRelease
    {
        Cycle due;
        unsigned entry;
    };

    void drainReleases(Cycle now, bool force);

    /** Allocate in every file; the shared entry, or -1 when the
     *  free list is empty. */
    int allocate(Cycle now);

    std::vector<RegisterFile *> files_;
    RegReplayConfig config_;
    Rng rng_;
    std::vector<int> archMap_;

    /** Commit-delay window of not-yet-released physical registers
     *  (bounded by the register count: each pending slot names a
     *  distinct busy entry), kept in a flat ring -- it is pushed
     *  and polled every simulated cycle. */
    RingQueue<PendingRelease> pending_;
    RegReplayResult result_;

    /** Persistent clock: successive run() calls continue time so a
     *  register file can accumulate aging across many traces. */
    Cycle clock_ = 0;
};

/** One arm's outcome of replayRegFileArms(). */
struct RegFileArm
{
    BitBiasTracker bias{1}; ///< finalizeBias at the replay's end
    double freeFraction = 0.0;
    IsvStats isv;
};

/**
 * Replay @p num_uops uops of @p gen through one fresh register file
 * per entry of @p isv_arms, in lockstep, with ISV enabled where the
 * entry is true.  Returns each arm's outcome, in arm order; each
 * equals that of a solo replay with the same seed.
 */
template <class Gen>
std::vector<RegFileArm>
replayRegFileArms(Gen &gen, std::size_t num_uops,
                  const RegFileConfig &rf_config,
                  const RegReplayConfig &replay_config,
                  const std::vector<bool> &isv_arms)
{
    std::deque<RegisterFile> files;
    std::vector<RegisterFile *> lockstep;
    for (const bool isv : isv_arms) {
        RegisterFile &rf = files.emplace_back(rf_config);
        rf.enableIsv(isv);
        lockstep.push_back(&rf);
    }
    RegFileReplay replay(std::move(lockstep), replay_config);
    const RegReplayResult r = replay.run(gen, num_uops);
    std::vector<RegFileArm> out;
    for (RegisterFile &rf : files)
        out.push_back({rf.finalizeBias(r.cycles), r.freeFraction,
                       rf.isvStats()});
    return out;
}

} // namespace penelope

#endif // PENELOPE_REGFILE_DRIVER_HH
