/**
 * @file
 * Protocol invariant checker, run at quiesce points (iteration
 * barriers, loop boundaries) to catch silent corruption early --
 * especially under fault injection (sim/fault.hh), where a bug in a
 * recovery path would otherwise surface only as a wrong final array.
 *
 * Checked invariants:
 *
 *  - cache tags vs.\ directory state: a Dirty line has exactly one
 *    holder and the home names it; Shared copies match memory and
 *    are covered by presence bits; Uncached lines are cached nowhere
 *    (single-writer / multi-reader).
 *  - non-privatization access bits (paper section 3.2): First/NoShr/
 *    ROnly are mutually consistent at each home and every cache tag
 *    agrees with its home's authoritative bits.
 *  - privatization time stamps (paper section 3.3): MaxR1st and MinW
 *    move monotonically, and MaxR1st > MinW implies the speculation
 *    failure is latched.
 *  - quiescence: after a drain nothing is in flight anywhere (no
 *    active or queued directory transactions, no pending
 *    retransmissions, no outstanding read-ins).
 *
 * It reads both the memory system and the speculation units' access
 * bits, so it sits in the spec layer, above mem.
 *
 * Violations are reported through a structured ProtocolViolation
 * channel: a settable handler, defaulting to warn() (which respects
 * the installed LogSink), plus a counter stat. The checker never
 * panics on a violation -- callers decide whether to abort, degrade,
 * or keep going.
 */

#ifndef SPECRT_SPEC_INVARIANTS_HH
#define SPECRT_SPEC_INVARIANTS_HH

#include <functional>
#include <string>
#include <unordered_map>

#include "mem/dsm.hh"
#include "sim/stats.hh"
#include "sim/types.hh"

namespace specrt
{

class SpecSystem;

/** One detected protocol invariant violation. */
struct ProtocolViolation
{
    /** Short invariant identifier, e.g.\ "dirty-single-owner". */
    std::string invariant;
    /** Human-readable description with addresses and nodes. */
    std::string detail;

    std::string str() const { return invariant + ": " + detail; }
};

/** Checks machine-wide protocol invariants at quiesce points. */
class InvariantChecker : public StatGroup
{
  public:
    using Handler = std::function<void(const ProtocolViolation &)>;

    /**
     * How much in-flight activity the checked state may contain.
     *
     * Quiesce (the default) asserts the full set and is only valid
     * after a drain. Delivery is safe after any single message
     * delivery: lines with an active transaction at their home or
     * any in-flight cache activity are skipped (their tags and
     * directory state legitimately diverge mid-transaction), the
     * cache-tag-vs-home spec-bit cross-check is skipped (tag updates
     * are deferred until lines leave the cache), and the quiescence
     * pass is skipped entirely.
     */
    enum class Granularity
    {
        Quiesce,
        Delivery,
    };

    explicit InvariantChecker(DsmSystem &dsm);

    /** Attach the speculation hardware (enables spec-bit passes). */
    void setSpecSystem(const SpecSystem *s) { spec = s; }

    /**
     * Install a violation handler (e.g.\ a test capturing them).
     * Without one, each violation warn()s through the logging layer.
     */
    void setHandler(Handler h) { handler = std::move(h); }

    /** Forget monotonicity baselines (call at each run start). */
    void newRun();

    /**
     * Run every pass valid at @p g. @return number of violations
     * found this call.
     */
    size_t checkAll(Granularity g = Granularity::Quiesce);

    /** Cache tags vs.\ directory state (+ Shared data vs memory). */
    size_t checkCoherence(Granularity g = Granularity::Quiesce);
    /** Spec access-bit consistency and monotonicity (needs spec). */
    size_t checkSpecBits(Granularity g = Granularity::Quiesce);
    /** Nothing in flight (call only after a drain). */
    size_t checkQuiesced();

    uint64_t
    numViolations() const
    {
        return static_cast<uint64_t>(violations.value());
    }

    Scalar violations;
    Scalar checks;

  private:
    void report(const char *invariant, std::string detail);

    /** Any controller (home or any cache) mid-transaction on @p line. */
    bool lineInFlight(Addr line) const;

    DsmSystem &dsm;
    const SpecSystem *spec = nullptr;
    Handler handler;
    size_t foundThisCall = 0;

    /** Monotonicity baselines from the previous check of this run. */
    struct NpBase
    {
        NodeId first;
        bool noShr;
        bool rOnly;
    };
    struct PsBase
    {
        IterNum maxR1st;
        IterNum minW;
    };
    struct PpBase
    {
        IterNum pMaxR1st;
        IterNum pMaxW;
    };
    std::unordered_map<Addr, NpBase> npBase;
    std::unordered_map<Addr, PsBase> psBase;
    std::unordered_map<Addr, PpBase> ppBase;
};

} // namespace specrt

#endif // SPECRT_SPEC_INVARIANTS_HH
