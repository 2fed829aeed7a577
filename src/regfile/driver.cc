#include "driver.hh"

#include <cassert>
#include <stdexcept>
#include <utility>

namespace penelope {

RegFileReplay::RegFileReplay(std::vector<RegisterFile *> files,
                             const RegReplayConfig &config)
    : files_(std::move(files)), config_(config), rng_(config.seed)
{
    if (files_.empty())
        throw std::invalid_argument("RegFileReplay: no register file");
    const RegisterFile &first = *files_.front();
    for (const RegisterFile *rf : files_) {
        if (rf->numEntries() != first.numEntries() ||
            rf->width() != first.width())
            throw std::invalid_argument(
                "RegFileReplay: lockstep register files differ in "
                "geometry");
    }
    const unsigned arch_regs =
        config_.fp ? numArchFpRegs : numArchIntRegs;
    archMap_.assign(arch_regs, -1);
    // Architectural state starts mapped, holding zero values
    // (non-inverted), as at the start of the paper's traces.
    const BitWord zero(first.width());
    for (unsigned r = 0; r < arch_regs; ++r) {
        const int phys = allocate(0);
        assert(phys >= 0);
        for (RegisterFile *rf : files_)
            rf->write(static_cast<unsigned>(phys), zero, 0);
        archMap_[r] = phys;
    }
}

int
RegFileReplay::allocate(Cycle now)
{
    const int phys = files_.front()->allocate(now);
    for (std::size_t k = 1; k < files_.size(); ++k) {
        if (files_[k]->allocate(now) != phys)
            throw std::logic_error(
                "RegFileReplay: lockstep register files allocated "
                "different entries");
    }
    return phys;
}

void
RegFileReplay::drainReleases(Cycle now, bool force)
{
    while (!pending_.empty() &&
           (pending_.front().due <= now || force)) {
        const PendingRelease rel = pending_.front();
        pending_.pop_front();
        const bool port = rng_.nextBool(config_.portFreeProb);
        for (RegisterFile *rf : files_)
            rf->release(rel.entry, now, port);
        ++result_.releases;
        if (force) {
            ++result_.forcedReleases;
            force = false; // free one entry, then stop forcing
        }
    }
}

} // namespace penelope
