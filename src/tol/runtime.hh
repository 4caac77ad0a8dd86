/**
 * @file
 * The TOL runtime: the execution-flow state machine of Figure 3.
 *
 * Owns every co-design-component piece — code store + functional
 * executor, translation map, profiler, IBTC, translator, optimizer
 * pipeline, emitter, interpreter, and the cost model — and drives:
 *
 *   lookup -> execute from code cache
 *          -> (miss) counter > IM/BBth ? translate BB : interpret
 *   BB execution counter > BB/SBth -> form + optimize superblock
 *   region exits -> chaining; indirect misses -> lookup + IBTC fill
 *
 * Also tracks guest state location (application register partition
 * vs. the in-memory context block) and emits the fill/spill
 * transition traffic at IM boundaries — the cost the split register
 * file of the paper's host exists to minimize.
 */

#ifndef DARCO_TOL_RUNTIME_HH
#define DARCO_TOL_RUNTIME_HH

#include <algorithm>
#include <array>
#include <memory>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "common/cancel.hh"
#include "guest/assembler.hh"
#include "guest/emulator.hh"
#include "host/code_store.hh"
#include "host/executor.hh"
#include "ir/passes.hh"
#include "ir/regalloc.hh"
#include "tol/config.hh"
#include "tol/cost_model.hh"
#include "tol/emitter.hh"
#include "tol/flag_scan.hh"
#include "tol/ibtc.hh"
#include "tol/interpreter.hh"
#include "tol/profile.hh"
#include "tol/stats.hh"
#include "tol/trans_map.hh"
#include "tol/translator.hh"

namespace darco::tol {

/**
 * Observer of architectural commit points, used by the co-simulation
 * state checker: called after every interpreter step and after every
 * translated-execution burst with the number of guest instructions
 * retired since the previous call.
 */
class CommitObserver
{
  public:
    virtual ~CommitObserver() = default;
    /**
     * @param retired     guest instructions retired in this commit
     * @param state       the co-design component's architectural view
     * @param known_flags fmask bits of EFLAGS that are architecturally
     *                    valid in @p state (lazy flags: the rest are
     *                    provably dead)
     */
    virtual void onCommit(uint64_t retired, const guest::State &state,
                          uint8_t known_flags) = 0;
};

/**
 * The live EIP -> highest mode map behind TolStats' static counters:
 * run-time state of tol::Runtime, which notes every interpreted and
 * every translated guest instruction and stores the counts and digest
 * in TolStats when run() returns. Not copyable: its pointer cache
 * aliases its own map.
 */
class StaticModeTracker
{
  public:
    StaticModeTracker() = default;
    StaticModeTracker(const StaticModeTracker &) = delete;
    StaticModeTracker &operator=(const StaticModeTracker &) = delete;

    void
    note(uint32_t eip, Mode mode)
    {
        // Direct-mapped pointer cache in front of the hash map: this
        // runs once per interpreted guest instruction, and hot loops
        // revisit the same few EIPs. unordered_map references are
        // node-stable, so cached pointers survive growth.
        const uint8_t m = static_cast<uint8_t>(mode);
        Slot &cached = cache[eip & (cache.size() - 1)];
        if (cached.mode && cached.eip == eip) {
            if (*cached.mode < m)
                *cached.mode = m;
            return;
        }
        uint8_t &mode_of = modes[eip];
        mode_of = std::max(mode_of, m);
        cached = {eip, &mode_of};
    }

    /**
     * Store the map in @p stats: the EIPs per highest mode, and as
     * staticModeHash the wrapping sum of a 64-bit mix (the splitmix64
     * finalizer) of each `eip << 2 | mode`. A sum does not depend on
     * the map's iteration order, so it needs no sort.
     */
    void
    summarizeInto(TolStats &stats) const
    {
        uint64_t per_mode[3] = {};  // indexed by Mode
        uint64_t hash = 0;
        for (const auto &[eip, mode] : modes) {
            ++per_mode[mode];
            uint64_t z = uint64_t{eip} << 2 | mode;
            z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
            z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
            hash += z ^ (z >> 31);
        }
        stats.staticIm = per_mode[0];
        stats.staticBbm = per_mode[1];
        stats.staticSbm = per_mode[2];
        stats.staticModeHash = hash;
    }

  private:
    struct Slot
    {
        uint32_t eip = 0;
        uint8_t *mode = nullptr;
    };
    std::unordered_map<uint32_t, uint8_t> modes;
    std::array<Slot, 2048> cache{};
};

class Runtime
{
  public:
    Runtime(const TolConfig &config, host::Memory &memory,
            timing::RecordSink &sink);

    /** Load a guest program image and reset TOL state. */
    void load(const guest::Program &program);

    struct RunResult
    {
        uint64_t guestRetired = 0;
        bool halted = false;
        /** Stopped by @p cancel before HALT/budget: guestRetired and
         *  every stat reflect exactly the work that completed. */
        bool cancelled = false;
    };

    /**
     * Run until HALT or (at least) @p guest_budget instructions.
     * When @p cancel is non-null it is polled by the dispatch loop
     * and, in translated code, by the executor wherever it checks
     * its budget (a retiring transfer onto a region entry); a
     * request stops the run at the next clean architectural point
     * and reports partial results (docs/robustness.md).
     */
    RunResult run(uint64_t guest_budget,
                  const common::CancelToken *cancel = nullptr);

    void setObserver(CommitObserver *obs) { observer = obs; }

    const TolStats &stats() const { return tolStats; }
    const guest::State &guestState() const { return gstate; }
    /** Translated-region store (for region-dump tooling). */
    host::CodeStore &codeStore() { return store; }

  private:
    // ----- dispatch-loop pieces ---------------------------------------
    struct Tier;

    uint32_t translateBb(uint32_t eip);
    uint32_t promoteToSuperblock(uint32_t bb_eip);
    /**
     * The compile steps BBM and SBM share: translate @p path, run
     * @p tier's passes (and scheduler), allocate registers, emit and
     * install the region (flushing the code cache and retrying when
     * it is full). Every step is charged to the tier's cost stream
     * and, under verifyIr, checked by the IR verifier.
     */
    host::CodeRegion *compileRegion(const std::vector<PathInst> &path,
                                    const Tier &tier,
                                    const EmitOptions &opts,
                                    EmitStats &es);
    void interpretBurst(uint64_t &remaining);
    void flushCodeCache();

    std::vector<PathInst> buildBbPath(uint32_t eip);
    std::vector<PathInst> buildSbPath(uint32_t start_eip);

    void applyFlagMasks(ir::Trace &trace);
    void chargeTranslationWork(CostStream &stream, uint32_t guest_insts,
                               uint32_t first_eip);
    void chargePassWork(CostStream &stream, const ir::PassStats &ps,
                        bool hashed);
    void chargeEmitWork(CostStream &stream, const host::CodeRegion &rgn);

    // ----- state-location management -----------------------------------
    void ensureInRegs();
    void ensureInCtx();
    void syncRegsToState(uint8_t flag_mask);
    void writeContextBlock();

    void commit(uint64_t retired);

    // ----- members -----------------------------------------------------
    const TolConfig &cfg;
    host::Memory &mem;

    /**
     * The one record buffer between every TOL record producer (cost
     * streams and the executor) and the timing pipelines; flushed
     * before run() returns so callers observe a fully drained stream.
     */
    timing::RecordBatcher batcher;

    CostModel cost;
    host::CodeStore store;
    host::Executor exec;
    TransMap transMap;
    Profiler profiler;
    Ibtc ibtc;
    GuestCodeReader reader;
    FlagScanner flagScanner;
    Translator translator;
    Interpreter interp;

    guest::State gstate;
    bool guestHalted = false;
    bool stateInRegs = false;
    uint8_t knownFlagsMask = 0;

    struct BbMeta
    {
        uint32_t profBlockAddr = 0;
        host::CodeRegion *region = nullptr;
    };
    std::unordered_map<uint32_t, BbMeta> bbMeta;

    TolStats tolStats;
    /** Live source of tolStats' static counters, summarized into it
     *  when run() returns. */
    StaticModeTracker staticModes;
    CommitObserver *observer = nullptr;

    // Executor counter snapshots for per-mode dynamic accounting.
    uint64_t lastBbRetired = 0;
    uint64_t lastSbRetired = 0;
    uint64_t lastIndirect = 0;

    uint32_t irBufCursor = 0;
};

} // namespace darco::tol

#endif // DARCO_TOL_RUNTIME_HH
