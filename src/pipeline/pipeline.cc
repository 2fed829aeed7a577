#include "pipeline.hh"

#include <algorithm>
#include <bit>
#include <cassert>

namespace penelope {

PipelineConfig::PipelineConfig()
{
    intRf.name = "INT-RF";
    intRf.numEntries = 128;
    intRf.width = 32;

    fpRf.name = "FP-RF";
    fpRf.numEntries = 64;
    fpRf.width = 80;

    dl0.name = "DL0";
    dl0.sizeBytes = 32 * 1024;
    dl0.ways = 8;

    dtlb = CacheConfig::tlb(128, 8);
}

Pipeline::Pipeline(const PipelineConfig &config)
    : config_(config),
      intRf_(config.intRf),
      fpRf_(config.fpRf),
      sched_(config.sched),
      dl0_(config.dl0),
      dtlb_(config.dtlb),
      rng_(0x9090)
{
    intRf_.enableIsv(config_.intRfIsv);
    fpRf_.enableIsv(config_.fpRfIsv);
    dl0_.setPolicy(makeMechanism(config_.dl0Mechanism, config_.dl0,
                                 false,
                                 config_.mechanismTimeScale));
    dtlb_.setPolicy(makeMechanism(config_.dtlbMechanism,
                                  config_.dtlb, true,
                                  config_.mechanismTimeScale));

    intMap_.assign(numArchIntRegs, -1);
    fpMap_.assign(numArchFpRegs, -1);
    intReady_.assign(config_.intRf.numEntries, false);
    fpReady_.assign(config_.fpRf.numEntries, false);

    // Map the initial architectural state (zero values, ready).
    for (unsigned r = 0; r < numArchIntRegs; ++r) {
        const int phys = intRf_.allocate(0);
        assert(phys >= 0);
        intRf_.write(static_cast<unsigned>(phys),
                     BitWord(intRf_.width()), 0);
        intMap_[r] = phys;
        intReady_[phys] = true;
    }
    for (unsigned r = 0; r < numArchFpRegs; ++r) {
        const int phys = fpRf_.allocate(0);
        assert(phys >= 0);
        fpRf_.write(static_cast<unsigned>(phys),
                    BitWord(fpRf_.width()), 0);
        fpMap_[r] = phys;
        fpReady_[phys] = true;
    }
}

void
Pipeline::configureSchedulerProtection(
    std::vector<BitDecision> decisions)
{
    sched_.configureProtection(std::move(decisions));
    sched_.enableProtection(true);
}

bool
Pipeline::sourcesReady(const InFlight &f) const
{
    const bool fp = isFp(f.uop.cls);
    const auto &ready = fp ? fpReady_ : intReady_;
    if (f.src1Phys >= 0 && !ready[f.src1Phys])
        return false;
    if (f.src2Phys >= 0 && !ready[f.src2Phys])
        return false;
    return true;
}

namespace {

/** Issue ports (bit p = port p) open to @p cls under the given
 *  binding. */
unsigned
issuePorts(UopClass cls, int bound_port)
{
    if (bound_port >= 0)
        return 1u << bound_port;
    switch (cls) {
      case UopClass::IntAlu:
        return 0b00011;
      case UopClass::IntMul:
      case UopClass::Branch:
        return 0b00010;
      case UopClass::Load:
        return 0b00100;
      case UopClass::Store:
        return 0b01000;
      case UopClass::FpAdd:
        return 0b10000;
      case UopClass::FpMul:
        // FP multiply issues on port 0 (Core-style split of the FP
        // stack across ports) so FP-heavy traces are not serialised
        // behind a single port.
        return 0b00001;
      case UopClass::Nop:
      default:
        return 0b00001;
    }
}

} // namespace

void
Pipeline::doCommit(Cycle now)
{
    unsigned committed = 0;
    unsigned int_writes = rfWritesThisCycle_;
    while (!rob_.empty() && committed < config_.commitWidth &&
           rob_.front().completed) {
        InFlight &f = rob_.front();
        if (f.prevPhys >= 0) {
            const bool fp = isFp(f.uop.cls);
            RegisterFile &rf = fp ? fpRf_ : intRf_;
            const bool port_free =
                int_writes < config_.rfWritePorts;
            if (port_free)
                ++int_writes;
            rf.release(static_cast<unsigned>(f.prevPhys), now,
                       port_free);
            const unsigned cls = fp ? 1 : 0;
            ++rfReleaseTotal_[cls];
            if (port_free)
                ++rfReleaseFree_[cls];
        }
        rob_.pop_front();
        ++committed;
    }
}

void
Pipeline::doIssue(Cycle now)
{
    // One oldest-first ROB pass: each ready, un-issued uop takes the
    // lowest free port it may issue on (one issue per port per
    // cycle).  Every port ends up with its oldest eligible uop --
    // an unbound IntAlu is the only multi-port class, and it only
    // reaches port 1 once port 0 is taken -- and readiness cannot
    // change mid-cycle, so the picks equal a port-by-port scan.
    constexpr unsigned kPorts = 5;
    std::size_t picked[kPorts];
    unsigned free_ports = (1u << kPorts) - 1;
    for (std::size_t i = 0; i < rob_.size() && free_ports; ++i) {
        const InFlight &f = rob_[i];
        if (f.issued)
            continue;
        const unsigned open =
            issuePorts(f.uop.cls, f.boundPort) & free_ports;
        if (!open || !sourcesReady(f))
            continue;
        const unsigned port =
            static_cast<unsigned>(std::countr_zero(open));
        picked[port] = i;
        free_ports &= ~(1u << port);
    }

    // Side effects in port order, so the scheduler free list and
    // the DTLB/DL0 state evolve as if each port issued in turn.
    for (unsigned port = 0; port < kPorts; ++port) {
        if (free_ports & (1u << port))
            continue;
        InFlight &f = rob_[picked[port]];

        // Issue.  Memory uops live in the MOB, not the scheduler
        // (Table 2), so they have no entry to free.
        f.issued = true;
        if (f.schedEntry >= 0) {
            const bool alloc_port_free =
                allocsThisCycle_ < config_.allocWidth;
            sched_.release(static_cast<unsigned>(f.schedEntry), now);
            ++schedReleaseTotal_;
            if (alloc_port_free)
                ++schedReleaseFree_;
            f.schedEntry = -1;
        }

        unsigned latency = f.uop.latency;
        if (f.uop.cls == UopClass::Load ||
            f.uop.cls == UopClass::Store) {
            const bool is_write = f.uop.cls == UopClass::Store;
            const Word data = is_write ? f.uop.srcVal1 : f.uop.dstVal;
            const AccessResult tlb = dtlb_.access(
                f.uop.addr, false, now, f.uop.addr >> 12);
            if (!tlb.hit)
                latency += config_.dtlbMissPenalty;
            const AccessResult l1 =
                dl0_.access(f.uop.addr, is_write, now, data);
            if (!l1.hit)
                latency += config_.dl0MissPenalty;
            if (f.uop.cls == UopClass::Load)
                latency += config_.loadHitLatency - 1;
        }
        f.completeAt = now + std::max(1u, latency);

        // Adder accounting: integer ALU ports and AGUs.
        if (port < 4 && (f.uop.cls == UopClass::IntAlu || port >= 2))
            ++adderBusy_[port];
    }
}

bool
Pipeline::tryAllocate(const Uop &uop, Cycle now)
{
    // Loads and stores allocate into the MOB, not the scheduler
    // (Table 2: "loads and stores are not in the scheduler").
    const bool needs_sched = !isMemory(uop.cls);
    if (rob_.size() >= config_.robEntries)
        return false;
    if (needs_sched && sched_.full())
        return false;

    InFlight f;
    f.uop = uop;
    f.boundPort = -1;
    if (uop.cls == UopClass::IntAlu &&
        config_.adderPolicy == AdderAllocationPolicy::Uniform) {
        f.boundPort = uniformNextPortZero_ ? 0 : 1;
        uniformNextPortZero_ = !uniformNextPortZero_;
    }

    const bool fp = isFp(uop.cls);
    auto &map = fp ? fpMap_ : intMap_;
    auto &ready = fp ? fpReady_ : intReady_;
    RegisterFile &rf = fp ? fpRf_ : intRf_;

    if (uop.usesSrc1())
        f.src1Phys = fp ? fpMap_[uop.srcReg1 % numArchFpRegs]
                        : intMap_[uop.srcReg1 % numArchIntRegs];
    if (uop.usesSrc2())
        f.src2Phys = fp ? fpMap_[uop.srcReg2 % numArchFpRegs]
                        : intMap_[uop.srcReg2 % numArchIntRegs];

    if (uop.writesReg()) {
        const int phys = rf.allocate(now);
        if (phys < 0)
            return false; // free list empty: stall
        f.dstPhys = phys;
        ready[phys] = false;
        const unsigned arch = fp
            ? uop.dstReg % numArchFpRegs
            : uop.dstReg % numArchIntRegs;
        f.prevPhys = map[arch];
        map[arch] = phys;
    }

    if (needs_sched) {
        RenameTags tags;
        tags.dstTag = static_cast<std::uint8_t>(
            f.dstPhys >= 0 ? (f.dstPhys & 0x7f) : 0);
        tags.src1Tag = static_cast<std::uint8_t>(
            f.src1Phys >= 0 ? (f.src1Phys & 0x7f) : 0);
        tags.src2Tag = static_cast<std::uint8_t>(
            f.src2Phys >= 0 ? (f.src2Phys & 0x7f) : 0);
        const auto &src_ready = fp ? fpReady_ : intReady_;
        tags.ready1 = f.src1Phys < 0 || src_ready[f.src1Phys];
        tags.ready2 = f.src2Phys < 0 || src_ready[f.src2Phys];

        const int entry = sched_.allocate(uop, tags, now);
        assert(entry >= 0);
        f.schedEntry = entry;
    }

    if (uop.cls == UopClass::Branch &&
        rng_.nextBool(config_.mispredictProb)) {
        f.mispredicted = true;
    }

    rob_.push_back(f);
    return true;
}

PipelineStats
Pipeline::run(TraceGenerator &gen, std::size_t num_uops)
{
    PipelineStats stats;
    std::size_t consumed = 0;
    bool have_pending = false;
    Uop pending;
    Cycle now = 1;

    while (consumed < num_uops || !rob_.empty()) {
        rfWritesThisCycle_ = 0;
        allocsThisCycle_ = 0;

        // Completions.
        for (std::size_t i = 0; i < rob_.size(); ++i) {
            InFlight &f = rob_[i];
            if (f.issued && !f.completed && f.completeAt <= now) {
                f.completed = true;
                if (f.dstPhys >= 0) {
                    const bool fp = isFp(f.uop.cls);
                    RegisterFile &rf = fp ? fpRf_ : intRf_;
                    const BitWord value = fp
                        ? BitWord(rf.width(), f.uop.dstVal,
                                  f.uop.dstValHi)
                        : BitWord(rf.width(), f.uop.dstVal);
                    rf.write(static_cast<unsigned>(f.dstPhys),
                             value, now);
                    ++rfWritesThisCycle_;
                    (fp ? fpReady_ : intReady_)[f.dstPhys] = true;
                }
                if (f.mispredicted) {
                    allocBlockedUntil_ = std::max(
                        allocBlockedUntil_,
                        now + config_.redirectPenalty);
                }
            }
        }

        doCommit(now);
        doIssue(now);

        // Allocate.
        if (now >= allocBlockedUntil_) {
            while (allocsThisCycle_ < config_.allocWidth &&
                   consumed < num_uops) {
                if (!have_pending) {
                    pending = gen.next();
                    have_pending = true;
                }
                if (!tryAllocate(pending, now))
                    break;
                have_pending = false;
                ++consumed;
                ++allocsThisCycle_;
            }
        }

        dl0_.tick(now);
        dtlb_.tick(now);
        ++now;
    }

    stats.cycles = now;
    stats.uops = num_uops;
    stats.cpi = num_uops
        ? static_cast<double>(now) /
            static_cast<double>(num_uops)
        : 0.0;
    for (unsigned a = 0; a < 4; ++a) {
        stats.adderUtilization[a] =
            static_cast<double>(adderBusy_[a]) /
            static_cast<double>(now);
    }
    stats.intRfOccupancy = intRf_.occupancy(now);
    stats.fpRfOccupancy = fpRf_.occupancy(now);
    stats.schedOccupancy = sched_.occupancy(now);
    stats.intRfPortFree = rfReleaseTotal_[0]
        ? static_cast<double>(rfReleaseFree_[0]) /
            static_cast<double>(rfReleaseTotal_[0])
        : 1.0;
    stats.fpRfPortFree = rfReleaseTotal_[1]
        ? static_cast<double>(rfReleaseFree_[1]) /
            static_cast<double>(rfReleaseTotal_[1])
        : 1.0;
    stats.schedPortFree = schedReleaseTotal_
        ? static_cast<double>(schedReleaseFree_) /
            static_cast<double>(schedReleaseTotal_)
        : 1.0;
    stats.dl0Hits = dl0_.hits();
    stats.dl0Misses = dl0_.misses();
    stats.dtlbMisses = dtlb_.misses();
    const CategoryCounter &mru = dl0_.mruHitPositions();
    stats.mruHitFraction[0] = mru.fraction(0);
    stats.mruHitFraction[1] =
        mru.categories() > 1 ? mru.fraction(1) : 0.0;
    double rest = 0.0;
    for (std::size_t i = 2; i < mru.categories(); ++i)
        rest += mru.fraction(i);
    stats.mruHitFraction[2] = rest;
    return stats;
}

} // namespace penelope
