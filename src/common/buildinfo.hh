/**
 * @file
 * Build-configuration introspection for `penelope_bench
 * --version`: the result-cache salt -- enough to attribute a
 * BENCH_perf.json row or a metrics snapshot to a binary
 * configuration.
 */

#ifndef PENELOPE_COMMON_BUILDINFO_HH
#define PENELOPE_COMMON_BUILDINFO_HH

#include <string>

namespace penelope {

/** The multi-line text `--version` prints. */
std::string buildInfoText();

} // namespace penelope

#endif // PENELOPE_COMMON_BUILDINFO_HH
