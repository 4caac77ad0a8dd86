/**
 * @file
 * TOL self-execution cost model.
 *
 * In DARCO the TOL is real host software whose instruction stream the
 * timing simulator sees interleaved with the translated application.
 * Here TOL's algorithms are C++; this class emits the corresponding
 * host-instruction stream into the timing simulator, parameterized by
 * the *actual* work performed and touching the *actual* simulated
 * addresses of TOL's data structures (translation-map buckets probed,
 * profile counters bumped, IBTC entries filled, IR buffers scanned,
 * guest context slots, and guest code bytes fetched as data). That
 * keeps TOL IPC, its D$/I$ behaviour, and TOL<->application cache
 * interference emergent rather than assumed.
 *
 * Synthetic PCs: each TOL module owns a PC window inside the TOL code
 * region; emission walks the window sequentially (wrapping), so the
 * timing model's L1-I sees a small, hot TOL code footprint — matching
 * the paper's observation that TOL I$ impact is negligible.
 */

#ifndef DARCO_TOL_COST_MODEL_HH
#define DARCO_TOL_COST_MODEL_HH

#include <cstdint>

#include "host/address_map.hh"
#include "host/isa.hh"
#include "timing/record.hh"

namespace darco::tol {

/** One synthetic TOL instruction stream writer. */
class CostStream
{
  public:
    /**
     * Records are built in place in @p record_batcher, which every
     * stream and the functional executor share, so the TOL's
     * interleaved instruction stream stays in emission order.
     */
    CostStream(timing::RecordBatcher &record_batcher,
               timing::Module module, uint32_t pc_window_base,
               uint32_t pc_window_bytes)
        : batcher(record_batcher), mod(module), pcBase(pc_window_base),
          pcBytes(pc_window_bytes)
    {
        buildTemplates();
    }

    /** Emit @p count simple ALU instructions. */
    void alu(unsigned count);

    /** Emit one load from @p addr (drives the D$/TLB like real code). */
    void load(uint32_t addr, uint8_t size = 4);

    /** Emit one store to @p addr. */
    void store(uint32_t addr, uint8_t size = 4);

    /**
     * Emit a conditional branch. @p taken drives the branch
     * predictor; the target stays inside the module's PC window so
     * the BTB behaves like a small runtime loop.
     */
    void branch(bool taken);

    /**
     * Emit an indirect jump to a synthetic handler address (e.g. the
     * interpreter's opcode dispatch). Distinct @p selector values map
     * to distinct targets, so target-varying dispatch mispredicts in
     * the BTB exactly like a real threaded interpreter.
     */
    void dispatch(uint32_t selector);

    /** Emit a (well-predicted) loop-back jump to the window start. */
    void loopBack();

    /**
     * Restart emission at a fixed routine entry inside the window.
     * Called at the start of each TOL activity so repeated activities
     * re-execute the same PCs — the loop-like behaviour of real TOL
     * routines that keeps them branch-predictable and L1-I resident.
     */
    void
    routine(uint32_t entry_offset)
    {
        pcOffset = entry_offset % pcBytes;
    }

  private:
    /** Start a record in a batcher slot from @p tmpl (a per-kind
     *  template holding every static field). */
    timing::Record &
    begin(const timing::Record &tmpl)
    {
        timing::Record &rec = batcher.alloc();
        rec = tmpl;
        return rec;
    }

    uint32_t nextPc();
    uint8_t nextDst();
    void buildTemplates();

    timing::RecordBatcher &batcher;
    /** Per-kind templates with all static fields prefilled. */
    timing::Record aluTmpl, loadTmpl, storeTmpl, branchTmpl,
        dispatchTmpl, loopTmpl;
    timing::Module mod;
    uint32_t pcBase;
    uint32_t pcBytes;
    uint32_t pcOffset = 0;
    uint32_t lastSelector = 0;
    uint8_t rotor = 0;
    uint8_t lastDst = host::hreg::TolScratch0;
};

/**
 * The per-module cost streams TOL uses. PC windows are sized so the
 * whole TOL code footprint is a few tens of KBs (paper: TOL's static
 * code largely fits in L1-I).
 */
class CostModel
{
  public:
    explicit CostModel(timing::RecordBatcher &batcher);

    CostStream im;        ///< interpreter loop + handlers
    CostStream bbm;       ///< BB translation
    CostStream sbm;       ///< superblock formation + optimization
    CostStream chain;     ///< chaining / patching
    CostStream lookup;    ///< translation-map lookups, IBTC fills
    CostStream other;     ///< dispatch loop, transitions, init
};

} // namespace darco::tol

#endif // DARCO_TOL_COST_MODEL_HH
