#include "common/buildinfo.hh"

#include "core/resultcache.hh"
#include "obs/metrics.hh"
#include "scheduler/scheduler.hh"

namespace penelope {

BuildInfo
buildInfo()
{
    BuildInfo info;
#ifdef PENELOPE_ENABLE_AVX2
    info.avx2Compiled = true;
#endif
    info.avx2Runtime = Scheduler::avx2Supported();
    info.obsCompiled = obs::kCompiledIn;
    info.cacheSalt = kResultCacheSalt;
    return info;
}

std::string
buildInfoText()
{
    const BuildInfo info = buildInfo();
    const auto onoff = [](bool compiled, bool runtime) {
        return !compiled ? std::string("off")
            : runtime    ? std::string("on (host supported)")
                         : std::string("on (host unsupported)");
    };
    std::string out = "penelope_bench\n";
    out += "  avx2:       " +
        onoff(info.avx2Compiled, info.avx2Runtime) + "\n";
    out += "  obs:        ";
    out += info.obsCompiled ? "compiled in" : "compiled out";
    out += "\n";
    out += "  cache-salt: " + info.cacheSalt + "\n";
    return out;
}

} // namespace penelope
