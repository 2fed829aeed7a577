/**
 * @file
 * Versioned binary codecs for the mergeable per-trace result types
 * the result cache stores (see resultcache.hh).
 *
 * Every codec writes a one-byte type tag and a one-byte payload
 * version before its fields, in explicit little-endian byte order,
 * so entries are unambiguous across machines and across format
 * evolution.  Decoders validate everything they read -- tag,
 * version, sizes, and semantic invariants such as per-bit zero-time
 * never exceeding total time -- and return false on any
 * inconsistency; the engine treats a failed decode exactly like a
 * miss and recomputes (a corrupt cache can cost time, never
 * correctness).
 *
 * The overload set is what Engine::mapCached resolves against: add
 * an encodeResult/decodeResult pair here (or next to a runner-local
 * shard type) to make a new result type cacheable.
 */

#ifndef PENELOPE_CORE_SERIALIZE_HH
#define PENELOPE_CORE_SERIALIZE_HH

#include <vector>

#include "adder/analysis.hh"
#include "cache/timing.hh"
#include "common/duty.hh"
#include "core/resultcache.hh"
#include "pipeline/pipeline.hh"
#include "regfile/driver.hh"
#include "scheduler/scheduler.hh"

namespace penelope {

void encodeResult(ByteWriter &w, const IsvStats &v);
bool decodeResult(ByteReader &r, IsvStats &v);

void encodeResult(ByteWriter &w, const BitBiasTracker &v);
bool decodeResult(ByteReader &r, BitBiasTracker &v);

/** No tag of its own: the tracker, the free fraction, the ISV
 *  stats (the "regfile-replay" entry layout). */
void encodeResult(ByteWriter &w, const RegFileArm &v);
bool decodeResult(ByteReader &r, RegFileArm &v);

void encodeResult(ByteWriter &w, const SchedulerStress &v);
bool decodeResult(ByteReader &r, SchedulerStress &v);

void encodeResult(ByteWriter &w, const PipelineStats &v);
bool decodeResult(ByteReader &r, PipelineStats &v);

void encodeResult(ByteWriter &w, const MemLossSample &v);
bool decodeResult(ByteReader &r, MemLossSample &v);

void encodeResult(ByteWriter &w,
                  const std::vector<OperandSample> &v);
bool decodeResult(ByteReader &r, std::vector<OperandSample> &v);

} // namespace penelope

#endif // PENELOPE_CORE_SERIALIZE_HH
