#include "netlist.hh"

#include <algorithm>
#include <cassert>

#include "obs/metrics.hh"

namespace penelope {

namespace {

/** File-scope handles: evaluateBatch runs ~10^5-10^6 times per
 *  second, so the emission cost budget here is two relaxed adds
 *  (and a single relaxed bool when disabled).  Lane utilization
 *  is lanes-used (reported by the feeding drivers) over
 *  lane-capacity (64 x word width charged here). */
const obs::Counter g_batchEvals =
    obs::Registry::instance().counter("netlist.batch_evals");
const obs::Counter g_laneCapacity =
    obs::Registry::instance().counter("netlist.lane_capacity",
                                      "lanes");

} // namespace

SignalId
Netlist::newSignal(std::uint32_t producer_gate)
{
    const SignalId id = static_cast<SignalId>(producers_.size());
    producers_.push_back(producer_gate);
    return id;
}

SignalId
Netlist::addInput(const std::string &name)
{
    assert(!finalized_);
    Gate g;
    g.type = GateType::Input;
    const auto gate_index = static_cast<std::uint32_t>(gates_.size());
    g.output = newSignal(gate_index);
    gates_.push_back(std::move(g));
    inputs_.push_back(gates_.back().output);
    inputNames_.push_back(
        name.empty() ? "in" + std::to_string(inputs_.size() - 1)
                     : name);
    return gates_.back().output;
}

SignalId
Netlist::addConst(bool value)
{
    assert(!finalized_);
    Gate g;
    g.type = value ? GateType::Const1 : GateType::Const0;
    const auto gate_index = static_cast<std::uint32_t>(gates_.size());
    g.output = newSignal(gate_index);
    gates_.push_back(std::move(g));
    return gates_.back().output;
}

SignalId
Netlist::addInv(SignalId a)
{
    assert(!finalized_);
    assert(a < producers_.size());
    Gate g;
    g.type = GateType::Inv;
    g.inputs = {a};
    const auto gate_index = static_cast<std::uint32_t>(gates_.size());
    g.output = newSignal(gate_index);
    gates_.push_back(std::move(g));
    return gates_.back().output;
}

SignalId
Netlist::addNand(const std::vector<SignalId> &inputs)
{
    assert(!finalized_);
    assert(inputs.size() >= 2);
    for ([[maybe_unused]] auto s : inputs)
        assert(s < producers_.size());
    Gate g;
    g.type = GateType::Nand;
    g.inputs = inputs;
    const auto gate_index = static_cast<std::uint32_t>(gates_.size());
    g.output = newSignal(gate_index);
    gates_.push_back(std::move(g));
    return gates_.back().output;
}

SignalId
Netlist::addNor(const std::vector<SignalId> &inputs)
{
    assert(!finalized_);
    assert(inputs.size() >= 2);
    for ([[maybe_unused]] auto s : inputs)
        assert(s < producers_.size());
    Gate g;
    g.type = GateType::Nor;
    g.inputs = inputs;
    const auto gate_index = static_cast<std::uint32_t>(gates_.size());
    g.output = newSignal(gate_index);
    gates_.push_back(std::move(g));
    return gates_.back().output;
}

SignalId
Netlist::addBuf(SignalId a)
{
    return addInv(addInv(a));
}

SignalId
Netlist::addAnd(SignalId a, SignalId b)
{
    return addInv(addNand({a, b}));
}

SignalId
Netlist::addOr(SignalId a, SignalId b)
{
    return addInv(addNor({a, b}));
}

SignalId
Netlist::addXor(SignalId a, SignalId b)
{
    // Standard 4-NAND XOR.
    const SignalId n1 = addNand({a, b});
    const SignalId n2 = addNand({a, n1});
    const SignalId n3 = addNand({b, n1});
    return addNand({n2, n3});
}

SignalId
Netlist::addXnor(SignalId a, SignalId b)
{
    return addInv(addXor(a, b));
}

SignalId
Netlist::addMux(SignalId sel, SignalId a, SignalId b)
{
    // out = (a NAND sel) NAND (b NAND !sel)
    const SignalId nsel = addInv(sel);
    const SignalId t1 = addNand({a, sel});
    const SignalId t2 = addNand({b, nsel});
    return addNand({t1, t2});
}

SignalId
Netlist::addTgXor(SignalId a, SignalId b)
{
    assert(!finalized_);
    const SignalId na = addInv(a); // PMOS gated by a
    const SignalId nb = addInv(b); // PMOS gated by b
    // TG pair: PMOS devices gated by na and nb; logically a XOR b.
    Gate g;
    g.type = GateType::TgPass;
    g.inputs = {a, b, na, nb};
    const auto gate_index = static_cast<std::uint32_t>(gates_.size());
    g.output = newSignal(gate_index);
    gates_.push_back(std::move(g));
    return gates_.back().output;
}

void
Netlist::markWide(SignalId s)
{
    assert(!finalized_);
    assert(s < producers_.size());
    forcedWide_.push_back(producers_[s]);
}

const std::string &
Netlist::inputName(std::size_t i) const
{
    return inputNames_.at(i);
}

void
Netlist::evaluate(const std::vector<bool> &input_values,
                  std::vector<std::uint8_t> &signals) const
{
    assert(input_values.size() == inputs_.size());
    signals.resize(producers_.size());
    std::size_t next_input = 0;
    for (std::size_t i = 0; i < gates_.size(); ++i) {
        const Gate &g = gates_[i];
        switch (g.type) {
          case GateType::Input:
            signals[g.output] = input_values[next_input++] ? 1 : 0;
            break;
          case GateType::Const0:
            signals[g.output] = 0;
            break;
          case GateType::Const1:
            signals[g.output] = 1;
            break;
          case GateType::Inv:
            signals[g.output] = signals[g.inputs[0]] ^ 1;
            break;
          case GateType::Nand: {
            std::uint8_t all = 1;
            for (auto s : g.inputs)
                all &= signals[s];
            signals[g.output] = all ^ 1;
            break;
          }
          case GateType::Nor: {
            std::uint8_t any = 0;
            for (auto s : g.inputs)
                any |= signals[s];
            signals[g.output] = any ^ 1;
            break;
          }
          case GateType::TgPass:
            signals[g.output] =
                signals[g.inputs[0]] ^ signals[g.inputs[1]];
            break;
        }
    }
}

void
Netlist::evaluateBatch(const std::uint64_t *input_words,
                       std::vector<std::uint64_t> &net_words) const
{
    assert(finalized_);
    constexpr unsigned W = kBatchWords;
    g_batchEvals.add();
    g_laneCapacity.add(64 * W);
    net_words.resize(producers_.size() * W);

    // One switch over the compiled stream with W consecutive lane
    // words per net ([net * W + w] interleaving).
    std::uint64_t *w = net_words.data();
    for (const CompiledOp &op : ops_) {
        std::uint64_t *out = w + std::size_t(op.out) * W;
        const std::uint64_t *a = w + std::size_t(op.a) * W;
        const std::uint64_t *b = w + std::size_t(op.b) * W;
        switch (op.kind) {
          case CompiledOp::Kind::Input: {
            const std::uint64_t *in =
                input_words + std::size_t(op.a) * W;
            for (unsigned k = 0; k < W; ++k)
                out[k] = in[k];
            break;
          }
          case CompiledOp::Kind::Const0:
            for (unsigned k = 0; k < W; ++k)
                out[k] = 0;
            break;
          case CompiledOp::Kind::Const1:
            for (unsigned k = 0; k < W; ++k)
                out[k] = ~std::uint64_t(0);
            break;
          case CompiledOp::Kind::Inv:
            for (unsigned k = 0; k < W; ++k)
                out[k] = ~a[k];
            break;
          case CompiledOp::Kind::Nand2:
            for (unsigned k = 0; k < W; ++k)
                out[k] = ~(a[k] & b[k]);
            break;
          case CompiledOp::Kind::Nor2:
            for (unsigned k = 0; k < W; ++k)
                out[k] = ~(a[k] | b[k]);
            break;
          case CompiledOp::Kind::NandK: {
            std::uint64_t all[W];
            for (unsigned k = 0; k < W; ++k)
                all[k] = a[k] & b[k];
            for (std::uint32_t e = 0; e < op.extraCount; ++e) {
                const std::uint64_t *x = w +
                    std::size_t(extraFanins_[op.extra + e]) * W;
                for (unsigned k = 0; k < W; ++k)
                    all[k] &= x[k];
            }
            for (unsigned k = 0; k < W; ++k)
                out[k] = ~all[k];
            break;
          }
          case CompiledOp::Kind::NorK: {
            std::uint64_t any[W];
            for (unsigned k = 0; k < W; ++k)
                any[k] = a[k] | b[k];
            for (std::uint32_t e = 0; e < op.extraCount; ++e) {
                const std::uint64_t *x = w +
                    std::size_t(extraFanins_[op.extra + e]) * W;
                for (unsigned k = 0; k < W; ++k)
                    any[k] |= x[k];
            }
            for (unsigned k = 0; k < W; ++k)
                out[k] = ~any[k];
            break;
          }
          case CompiledOp::Kind::TgPass:
            for (unsigned k = 0; k < W; ++k)
                out[k] = a[k] ^ b[k];
            break;
        }
    }
}

void
Netlist::compile()
{
    // One op per gate, in gate (topological) order; every op writes
    // the word its output net owns.
    ops_.reserve(gates_.size());
    std::uint32_t next_input = 0;
    for (const Gate &g : gates_) {
        CompiledOp op;
        op.out = g.output;
        switch (g.type) {
          case GateType::Input:
            op.kind = CompiledOp::Kind::Input;
            op.a = next_input++;
            break;
          case GateType::Const0:
            op.kind = CompiledOp::Kind::Const0;
            break;
          case GateType::Const1:
            op.kind = CompiledOp::Kind::Const1;
            break;
          case GateType::Inv:
            op.kind = CompiledOp::Kind::Inv;
            op.a = g.inputs[0];
            break;
          case GateType::Nand:
          case GateType::Nor: {
            const bool nand = g.type == GateType::Nand;
            op.a = g.inputs[0];
            op.b = g.inputs[1];
            if (g.inputs.size() == 2) {
                op.kind = nand ? CompiledOp::Kind::Nand2
                               : CompiledOp::Kind::Nor2;
            } else {
                op.kind = nand ? CompiledOp::Kind::NandK
                               : CompiledOp::Kind::NorK;
                op.extra = static_cast<std::uint32_t>(
                    extraFanins_.size());
                op.extraCount = static_cast<std::uint32_t>(
                    g.inputs.size() - 2);
                extraFanins_.insert(extraFanins_.end(),
                                    g.inputs.begin() + 2,
                                    g.inputs.end());
            }
            break;
          }
          case GateType::TgPass:
            op.kind = CompiledOp::Kind::TgPass;
            op.a = g.inputs[0];
            op.b = g.inputs[1];
            break;
        }
        ops_.push_back(op);
    }
}

void
Netlist::finalize(unsigned wide_fanout)
{
    // Idempotent: a second finalize() (defensive wrappers, shared
    // netlists) must not double-extract PMOS devices or recompile
    // the op stream.
    if (finalized_)
        return;

    fanout_.assign(producers_.size(), 0);
    for (const Gate &g : gates_)
        for (auto s : g.inputs)
            ++fanout_[s];

    // Width classes: a gate driving >= wide_fanout consumers is
    // implemented with upsized transistors, as are gates the
    // builder explicitly marked (carry-merge chains).
    for (Gate &g : gates_) {
        if (g.type == GateType::Input || g.type == GateType::Const0 ||
            g.type == GateType::Const1) {
            continue;
        }
        g.width = fanout_[g.output] >= wide_fanout
            ? WidthClass::Wide : WidthClass::Narrow;
    }
    for (auto gate_index : forcedWide_)
        gates_.at(gate_index).width = WidthClass::Wide;

    // PMOS extraction: one device per primitive-gate input, tied to
    // that input signal, sized with the owning gate's class.  A
    // TG-XOR's pass devices are gated by the operand complements
    // (inputs 2 and 3 of the TgPass record).
    pmos_.clear();
    for (std::size_t i = 0; i < gates_.size(); ++i) {
        const Gate &g = gates_[i];
        if (g.type == GateType::Inv || g.type == GateType::Nand ||
            g.type == GateType::Nor) {
            for (auto s : g.inputs) {
                pmos_.push_back(
                    {s, static_cast<std::uint32_t>(i), g.width});
            }
        } else if (g.type == GateType::TgPass) {
            pmos_.push_back(
                {g.inputs[2], static_cast<std::uint32_t>(i),
                 g.width});
            pmos_.push_back(
                {g.inputs[3], static_cast<std::uint32_t>(i),
                 g.width});
        }
    }

    // Group devices by gate net, sort-based rather than a map.
    // Ascending nets let the trackers' batch observe loops sweep
    // the net word array in order.
    pmosGateNets_.clear();
    for (const PmosDevice &d : pmos_)
        pmosGateNets_.push_back(d.gateSignal);
    std::sort(pmosGateNets_.begin(), pmosGateNets_.end());
    pmosGateNets_.erase(
        std::unique(pmosGateNets_.begin(), pmosGateNets_.end()),
        pmosGateNets_.end());
    pmosDeviceSlots_.clear();
    for (const PmosDevice &d : pmos_) {
        pmosDeviceSlots_.push_back(static_cast<std::uint32_t>(
            std::lower_bound(pmosGateNets_.begin(),
                             pmosGateNets_.end(), d.gateSignal) -
            pmosGateNets_.begin()));
    }

    // Logic depth.
    std::vector<unsigned> sig_depth(producers_.size(), 0);
    depth_ = 0;
    for (const Gate &g : gates_) {
        if (g.type == GateType::Input || g.type == GateType::Const0 ||
            g.type == GateType::Const1) {
            sig_depth[g.output] = 0;
            continue;
        }
        unsigned d = 0;
        for (auto s : g.inputs)
            d = std::max(d, sig_depth[s]);
        sig_depth[g.output] = d + 1;
        depth_ = std::max(depth_, d + 1);
    }

    compile();
    finalized_ = true;
}

const std::vector<PmosDevice> &
Netlist::pmosDevices() const
{
    assert(finalized_);
    return pmos_;
}

const std::vector<SignalId> &
Netlist::pmosGateNets() const
{
    assert(finalized_);
    return pmosGateNets_;
}

const std::vector<std::uint32_t> &
Netlist::pmosDeviceSlots() const
{
    assert(finalized_);
    return pmosDeviceSlots_;
}

SignalId
buildFigure2Circuit(Netlist &netlist)
{
    const SignalId a = netlist.addInput("A");
    const SignalId b = netlist.addInput("B");
    const SignalId c = netlist.addInput("C");
    const SignalId nand_ab = netlist.addNand({a, b});
    const SignalId nor_out = netlist.addNor({nand_ab, c});
    return netlist.addInv(nor_out);
}

} // namespace penelope
