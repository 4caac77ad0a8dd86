/**
 * @file
 * The dynamic host-instruction record stream.
 *
 * The co-design component (functional side) produces one TimingRecord
 * per executed host instruction — both for translated application
 * code and for TOL's own activity — exactly like DARCO's timing
 * simulator "receives the dynamic instruction stream from the
 * co-design component" and "is able to distinguish the instructions
 * corresponding to the emulation of the x86 application from those
 * corresponding to TOL" (§II-A).
 */

#ifndef DARCO_TIMING_RECORD_HH
#define DARCO_TIMING_RECORD_HH

#include <array>
#include <cstddef>
#include <cstdint>

#include "host/isa.hh"

namespace darco::timing {

/**
 * Attribution of a host instruction. Module::App marks translated
 * application code (forward progress); all other values are TOL
 * activity, matching the Figure 7 breakdown categories.
 */
enum class Module : uint8_t {
    App = 0,       ///< translated guest code (application time)
    TolOther,      ///< dispatch loop, transitions, stubs, init
    IM,            ///< interpreter
    BBM,           ///< BB translation + profiling instrumentation
    SBM,           ///< superblock formation + optimization
    Chaining,      ///< linking translated regions, patching
    Lookup,        ///< code cache (translation map) lookups + IBTC fill
    NumModules,
};

/** True if the module counts as TOL overhead (everything but App). */
constexpr bool
isTol(Module m)
{
    return m != Module::App;
}

const char *moduleName(Module m);

/** One dynamically executed host instruction, ready for timing. */
struct Record
{
    uint32_t pc = 0;           ///< host PC (4-byte granules)
    uint32_t memAddr = 0;      ///< effective address for LD/ST
    uint32_t branchTarget = 0; ///< actual next PC for taken transfers
    host::HOp op = host::HOp::NOP; ///< host opcode (execution class)
    uint8_t rd = host::kNoReg;  ///< int regs 0..63, FP regs 64..95
    uint8_t rs1 = host::kNoReg; ///< first source register
    uint8_t rs2 = host::kNoReg; ///< second source register
    uint8_t size = 0;          ///< memory access bytes
    Module module = Module::App; ///< attribution (Figure 7)
    /**
     * True when the instruction belongs to translated-region code
     * (the executor's stream, including embedded instrumentation and
     * exit stubs); false for TOL software streams (interpreter,
     * translator, runtime services). The isolation pipelines split by
     * this bit so the two instances never share instruction lines;
     * module tags stay for the Figure 6/7/9 attribution.
     */
    bool fromRegion = false;
    bool isLoad = false;        ///< reads memory at memAddr
    bool isStore = false;       ///< writes memory at memAddr
    bool isBranch = false;      ///< any control transfer
    bool isCondBranch = false;  ///< conditional subset
    bool isIndirect = false;    ///< JALR-class transfer
    bool taken = false;         ///< actual direction
    bool guestBoundary = false; ///< begins a new guest instruction
};

/** Register-identifier helpers (FP registers offset by 64). */
constexpr uint8_t kFpRegBase = 64;

constexpr uint8_t
intRegId(uint8_t r)
{
    return r;
}

constexpr uint8_t
fpRegId(uint8_t f)
{
    return static_cast<uint8_t>(kFpRegBase + f);
}

/**
 * Consumer interface for the record stream. The system fans records
 * out to up to four timing-pipeline instances (combined, TOL-only,
 * APP-only, TOL-module) plus any tracing observers.
 */
class RecordSink
{
  public:
    virtual ~RecordSink() = default;

    /** Accept one record, in stream order. */
    virtual void consume(const Record &rec) = 0;

    /**
     * Consume @p count records in order. Semantically identical to
     * calling consume() once per record; the RecordBatcher forwards
     * whole batches so the per-instruction virtual dispatch is
     * amortized, and sinks may override with a tighter inner loop.
     */
    virtual void
    consumeBatch(const Record *recs, std::size_t count)
    {
        for (std::size_t i = 0; i < count; ++i)
            consume(recs[i]);
    }
};

/**
 * Order-preserving record batcher: the one record buffer between the
 * TOL's producers and the sinks. The cost streams and the functional
 * executor all build their records in place with alloc(), so the
 * buffer holds the TOL's interleaved instruction stream in emission
 * order, and it goes downstream in 256-record batches. The owner must
 * flush() before anyone reads the downstream sink's state.
 */
class RecordBatcher
{
  public:
    explicit RecordBatcher(RecordSink &downstream) : down(downstream) {}

    /** Forward everything buffered downstream, preserving order. */
    void
    flush()
    {
        if (count) {
            down.consumeBatch(buf.data(), count);
            count = 0;
        }
    }

    /**
     * Hand out the next buffer slot (forwarding a full buffer
     * downstream first). The slot holds stale data: the caller must
     * overwrite every field before the next batcher call.
     */
    Record &
    alloc()
    {
        if (count == buf.size())
            flush();
        return buf[count++];
    }

  private:
    RecordSink &down;
    std::array<Record, 256> buf;
    std::size_t count = 0;
};

} // namespace darco::timing

#endif // DARCO_TIMING_RECORD_HH
