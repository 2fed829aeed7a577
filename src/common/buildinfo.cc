#include "common/buildinfo.hh"

#include "core/resultcache.hh"

namespace penelope {

std::string
buildInfoText()
{
    std::string out = "penelope_bench\n  cache-salt: ";
    out += kResultCacheSalt;
    out += "\n";
    return out;
}

} // namespace penelope
