/**
 * @file
 * Gate-level netlist with static-CMOS PMOS extraction.
 *
 * The combinational-block experiments (Sections 3.1 and 4.3) need
 * per-PMOS-transistor zero-signal probabilities.  A netlist is built
 * from inverting CMOS primitives (INV / NAND / NOR); convenience
 * builders compose AND, OR, XOR, XNOR and MUX from them the way a
 * standard-cell library would.  Every primitive gate contributes one
 * PMOS device per input, whose gate terminal is tied to that input
 * signal; a PMOS is under NBTI stress exactly when its input signal
 * is "0".
 *
 * Width classes: gates that drive many consumers are implemented
 * with upsized (wide) devices.  Wide PMOS degrade far less under the
 * same stress (Section 4.3 / Xuan [19]), which the aging analysis
 * accounts for.
 *
 * Word-parallel evaluation: finalize() also compiles the gate list
 * into a flat op stream, one fixed-size record per gate (op kind,
 * fanin nets, output net, with the common arities specialised), so
 * the evaluator is a single switch over a contiguous array with no
 * per-gate heap indirection and no `vector<bool>` proxy objects.
 * evaluateBatch() runs the stream over 64 input vectors at once:
 * net s owns word s, and bit v of that word is the net's value under
 * input vector v -- exactly what a scalar evaluate() of vector v
 * produces, which is what keeps the batched aging statistics
 * bit-identical to the scalar ones.
 */

#ifndef PENELOPE_CIRCUIT_NETLIST_HH
#define PENELOPE_CIRCUIT_NETLIST_HH

#include <cstdint>
#include <string>
#include <vector>

#include "nbti/guardband.hh"

namespace penelope {

/** Index of a signal (net) in the netlist. */
using SignalId = std::uint32_t;

inline constexpr SignalId invalidSignal = ~SignalId(0);

/** CMOS primitive gate types. */
enum class GateType : std::uint8_t
{
    Input,  ///< primary input (no transistors)
    Const0, ///< tie-low (no transistors)
    Const1, ///< tie-high (no transistors)
    Inv,    ///< inverter: 1 PMOS
    Nand,   ///< k-input NAND: k parallel PMOS
    Nor,    ///< k-input NOR: k series (stacked) PMOS
    TgPass, ///< transmission-gate pair of a TG-XOR: 2 PMOS gated
            ///< by the select and its complement; logic value is
            ///< input[0] XOR input[1] (see addTgXor)
};

/** One PMOS device extracted from the netlist. */
struct PmosDevice
{
    /** Signal tied to the device's gate terminal. */
    SignalId gateSignal;

    /** Owning gate index. */
    std::uint32_t gateIndex;

    /** Device sizing class. */
    WidthClass width;
};

/**
 * A combinational netlist.  Gates must be created in topological
 * order (inputs before consumers), which the builder API enforces
 * naturally because operands are SignalIds of existing nets.
 */
class Netlist
{
  public:
    struct Gate
    {
        GateType type;
        std::vector<SignalId> inputs;
        SignalId output;
        WidthClass width = WidthClass::Narrow;
    };

    Netlist() = default;

    /** @name Primitive builders */
    /// @{
    SignalId addInput(const std::string &name = std::string());
    SignalId addConst(bool value);
    SignalId addInv(SignalId a);
    SignalId addNand(const std::vector<SignalId> &inputs);
    SignalId addNor(const std::vector<SignalId> &inputs);
    /// @}

    /** @name Composite builders (standard-cell decompositions) */
    /// @{
    SignalId addBuf(SignalId a);              ///< 2 inverters
    SignalId addAnd(SignalId a, SignalId b);  ///< NAND + INV
    SignalId addOr(SignalId a, SignalId b);   ///< NOR + INV
    SignalId addXor(SignalId a, SignalId b);  ///< 4 NAND
    SignalId addXnor(SignalId a, SignalId b); ///< XOR + INV
    /** 2:1 mux: out = sel ? a : b (NAND-based). */
    SignalId addMux(SignalId sel, SignalId a, SignalId b);

    /**
     * Transmission-gate XOR, the standard datapath XOR cell: two
     * input inverters plus a TG pair steered by a / !a.  4 PMOS
     * total, each gated by a primary operand or its complement, so
     * alternating operands leave no device fully stressed.
     */
    SignalId addTgXor(SignalId a, SignalId b);
    /// @}

    /**
     * Force the producing gate of @p s (and, for composite cells,
     * the cell's internal gates if marked individually) into the
     * wide class at finalize() time.  Used for carry-merge gates
     * that a real layout upsizes regardless of fanout.
     */
    void markWide(SignalId s);

    std::size_t numSignals() const { return producers_.size(); }
    std::size_t numGates() const { return gates_.size(); }
    std::size_t numInputs() const { return inputs_.size(); }

    const Gate &gate(std::size_t i) const { return gates_.at(i); }
    const std::vector<SignalId> &inputs() const { return inputs_; }
    const std::string &inputName(std::size_t i) const;

    /**
     * Evaluate the netlist.  @p input_values must supply one value
     * per primary input, in creation order.  @p signals is resized
     * to numSignals() and receives every net's value.  (The scalar
     * path interprets the gate list directly; it never goes through
     * the compiled op stream, so it is also the oracle the batched
     * paths are tested against.)
     */
    void evaluate(const std::vector<bool> &input_values,
                  std::vector<std::uint8_t> &signals) const;

    /** Lane words per net of one evaluateBatchWide() pass. */
    static constexpr unsigned kWideWords = 4;

    /**
     * Evaluate 64 input vectors at once (valid after finalize()).
     * @p input_words holds one lane word per primary input, in
     * creation order: bit v of word i is input i's value under
     * vector v.  @p net_words is resized to numSignals(); bit v of
     * net_words[s] is exactly what evaluate() of vector v would
     * leave in signals[s].  Unused lanes cost nothing extra and
     * carry whatever the padded input bits imply; consumers mask
     * them out (see PmosAgingTracker::observeBatch).
     */
    void evaluateBatch(const std::uint64_t *input_words,
                       std::vector<std::uint64_t> &net_words) const;

    /**
     * Evaluate 64 * kWideWords input vectors in one pass over the
     * op stream.  @p input_words holds kWideWords lane words per
     * primary input, interleaved [input * kWideWords + w];
     * @p net_words is resized to numSignals() * kWideWords with the
     * same interleaving.  Word w of every net is bit-for-bit what
     * evaluateBatch() over the inputs' w-th words would produce.
     */
    void evaluateBatchWide(const std::uint64_t *input_words,
                           std::vector<std::uint64_t> &net_words)
        const;

    /**
     * Finalise the netlist: derive fanout counts, assign width
     * classes (gates with output fanout >= @p wide_fanout become
     * wide), extract the PMOS device list and compile the op
     * stream.  Must be called before pmosDevices(); idempotent --
     * a second call is a no-op (same fanout threshold or not), so
     * wrappers can finalize defensively without double-extracting
     * devices or recompiling the stream.
     */
    void finalize(unsigned wide_fanout = 4);

    /** Extracted PMOS devices (valid after finalize()). */
    const std::vector<PmosDevice> &pmosDevices() const;

    /**
     * The distinct gate nets of the PMOS devices, ascending, and per
     * device the index of its gate net there (valid after
     * finalize()).  Devices gated by one net always observe the same
     * value, so PmosAgingTracker keeps one zero-time slot per net.
     */
    const std::vector<SignalId> &pmosGateNets() const;
    const std::vector<std::uint32_t> &pmosDeviceSlots() const;

    /** Total PMOS count (valid after finalize()). */
    std::size_t numPmos() const { return pmos_.size(); }

    /** Fanout (number of gate inputs fed) of a signal. */
    unsigned fanout(SignalId s) const { return fanout_.at(s); }

    /** Logic depth in primitive gates (valid after finalize()). */
    unsigned depth() const { return depth_; }

    /** Length of the compiled op stream (valid after finalize()). */
    std::size_t numCompiledOps() const { return ops_.size(); }

  private:
    /**
     * One record of the compiled op stream.  Operand and output
     * fields are SignalIds (the word a net owns in a batch pass),
     * except an Input op's @p a, which is the input's ordinal.  The
     * two-input forms are specialised so the evaluator never touches
     * the spill array for them; wider gates read their remaining
     * fanins from extraFanins_.
     */
    struct CompiledOp
    {
        enum class Kind : std::uint8_t
        {
            Input,  ///< out = input word [a = input ordinal]
            Const0, ///< out = 0
            Const1, ///< out = ~0
            Inv,    ///< out = ~a
            Nand2,  ///< out = ~(a & b)
            Nor2,   ///< out = ~(a | b)
            NandK,  ///< out = ~(a & b & extras...)
            NorK,   ///< out = ~(a | b | extras...)
            TgPass, ///< out = a ^ b
        };

        Kind kind;
        std::uint32_t out;
        std::uint32_t a = 0;
        std::uint32_t b = 0;
        std::uint32_t extra = 0;
        std::uint32_t extraCount = 0;
    };

    SignalId newSignal(std::uint32_t producer_gate);

    /** Build ops_/extraFanins_ from gates_: one op per gate. */
    void compile();

    /** W-word op-stream pass (W lane words per net). */
    template <unsigned W>
    void evaluateBatchImpl(const std::uint64_t *input_words,
                           std::uint64_t *net_words) const;

    std::vector<Gate> gates_;
    std::vector<CompiledOp> ops_;
    std::vector<std::uint32_t> extraFanins_;
    /** Producing gate index for each signal. */
    std::vector<std::uint32_t> producers_;
    std::vector<SignalId> inputs_;
    std::vector<std::string> inputNames_;
    std::vector<unsigned> fanout_;
    std::vector<PmosDevice> pmos_;
    std::vector<SignalId> pmosGateNets_;
    std::vector<std::uint32_t> pmosDeviceSlots_;
    std::vector<std::uint32_t> forcedWide_;
    unsigned depth_ = 0;
    bool finalized_ = false;
};

/**
 * Builds the example circuit of the paper's Figure 2:
 * D = NOT(NOR(NAND(A, B), C)); the output inverter's PMOS observes D.
 * Returns the output signal; inputs are created as A, B, C.
 */
SignalId buildFigure2Circuit(Netlist &netlist);

} // namespace penelope

#endif // PENELOPE_CIRCUIT_NETLIST_HH
