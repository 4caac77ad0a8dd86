/**
 * @file
 * Functional executor for translated host code.
 *
 * Executes HostInst regions from the code store against the simulated
 * host memory and register file, building one timing Record per
 * executed instruction in the TOL runtime's record batcher (the
 * executor holds no record buffer of its own; the batcher's owner
 * flushes it). Control returns to the TOL runtime whenever
 * the next PC lands on a runtime service address (region exit, IBTC
 * miss, promotion trigger, guest HALT) or when the guest-instruction
 * budget for the current run is exhausted.
 */

#ifndef DARCO_HOST_EXECUTOR_HH
#define DARCO_HOST_EXECUTOR_HH

#include <array>
#include <cstdint>

#include "common/cancel.hh"
#include "common/paged_memory.hh"
#include "host/address_map.hh"
#include "host/code_store.hh"
#include "host/isa.hh"
#include "timing/record.hh"

namespace darco::host {

/** Host memory: 32-bit paged space shared by guest data and TOL. */
using Memory = PagedMemory<uint32_t>;

class Executor
{
  public:
    enum class StopReason : uint8_t {
        Dispatch,   ///< region exit through a stub (x58 = target EIP)
        IbtcMiss,   ///< inline IBTC probe missed (x58 = target EIP)
        Promote,    ///< BB execution counter crossed SB threshold
        Halt,       ///< guest executed HALT
        Budget,     ///< guest-instruction budget exhausted mid-run
    };

    struct Stop
    {
        StopReason reason;
        CodeRegion *region;    ///< region that was executing
        uint32_t exitId;       ///< x59 at stop (valid for Dispatch)
        uint32_t guestEip;     ///< guest EIP at stop (valid for Budget)
    };

    Executor(CodeStore &code_store, Memory &memory,
             timing::RecordBatcher &record_batcher)
        : store(code_store), mem(memory), batcher(record_batcher)
    {}

    /** Integer register file (x0 reads as zero). */
    std::array<uint32_t, kNumIntRegs> x{};
    /** FP register file. */
    std::array<double, kNumFpRegs> f{};

    /**
     * Run translated code starting at @p pc (which must lie inside an
     * installed region) until a service stop or until @p guest_budget
     * guest instructions have been retired.
     *
     * Each timing record is built in place in the batcher, so the
     * per-instruction cost is a struct fill, not a virtual call into
     * every timing pipeline. Records may still sit in the batcher
     * when run() returns.
     */
    Stop run(uint32_t pc, uint64_t guest_budget);

    /** Guest instructions retired by the most recent run(). */
    uint64_t lastGuestRetired() const { return lastRetired; }

    /**
     * Cooperative cancellation (nullptr = never cancelled). Polled
     * where the budget is checked — on a retiring transfer onto a
     * region entry, and only when a token is set — so the
     * per-instruction path pays nothing, and a cancelled run stops
     * through the ordinary Budget stop at that clean guest boundary
     * with exact partial accounting.
     */
    void setCancelToken(const common::CancelToken *token)
    {
        cancel = token;
    }

    /** Guest instructions retired in BB / SB regions (Figure 5b). */
    uint64_t bbGuestRetired() const { return bbRetired; }
    uint64_t sbGuestRetired() const { return sbRetired; }

    /** Guest indirect branches retired inside translated code. */
    uint64_t indirectRetired() const { return indirectCount; }

  private:
    uint32_t readReg(uint8_t r) const { return r ? x[r] : 0; }

    void
    writeReg(uint8_t r, uint32_t value)
    {
        if (r)
            x[r] = value;
    }

    CodeStore &store;
    Memory &mem;
    timing::RecordBatcher &batcher;
    const common::CancelToken *cancel = nullptr;
    uint64_t lastRetired = 0;
    uint64_t bbRetired = 0;
    uint64_t sbRetired = 0;
    uint64_t indirectCount = 0;
};

} // namespace darco::host

#endif // DARCO_HOST_EXECUTOR_HH
