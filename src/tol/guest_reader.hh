/**
 * @file
 * Decode-cached reader of guest code out of the co-design component's
 * host memory (where the emulated guest image lives in the low 3 GiB).
 * Shared by the interpreter, the translator's path builders and the
 * flag-liveness scanner. Guest code is immutable (GX86 has no
 * self-modifying-code support; docs/deviations.md §7), so backing
 * entries never invalidate.
 *
 * Layout: decoded instructions live in a hash map whose entries are
 * address-stable, paired with their static OpInfo so hot consumers
 * (the interpreter loop) pay neither a re-decode nor an opcode-table
 * call. A direct-mapped eip-indexed cache sits in front of the hash
 * map and turns the repeated lookups of hot loops into one array
 * probe. Neither ever goes stale: the backing map never erases, and
 * a code-cache flush drops translations, not decoded guest code.
 */

#ifndef DARCO_TOL_GUEST_READER_HH
#define DARCO_TOL_GUEST_READER_HH

#include <array>
#include <unordered_map>

#include "common/logging.hh"
#include "guest/encoding.hh"
#include "guest/isa.hh"
#include "host/executor.hh"

namespace darco::tol {

/** A decoded guest instruction plus its static opcode properties. */
struct DecodedInst
{
    guest::Inst inst;
    const guest::OpInfo *info = nullptr;
};

class GuestCodeReader
{
  public:
    explicit GuestCodeReader(host::Memory &memory) : mem(memory) {}

    /** Decoded instruction at @p eip (fatal on undecodable bytes). */
    const guest::Inst &
    at(uint32_t eip)
    {
        return decoded(eip).inst;
    }

    /**
     * Decoded instruction + OpInfo at @p eip. The returned reference
     * is stable for the lifetime of the reader.
     */
    const DecodedInst &
    decoded(uint32_t eip)
    {
        FastSlot &slot = fast[fastIndex(eip)];
        if (slot.entry && slot.eip == eip)
            return *slot.entry;
        const DecodedInst &entry = decodeSlow(eip);
        slot.eip = eip;
        slot.entry = &entry;
        return entry;
    }

  private:
    static constexpr unsigned kFastBits = 12;

    static size_t
    fastIndex(uint32_t eip)
    {
        // Guest instructions are variable-length with no alignment;
        // use the low bits directly.
        return eip & ((size_t(1) << kFastBits) - 1);
    }

    const DecodedInst &
    decodeSlow(uint32_t eip)
    {
        auto it = cache.find(eip);
        if (it != cache.end())
            return it->second;
        uint8_t buf[guest::kMaxInstLength];
        mem.readBytes(eip, buf, sizeof(buf));
        DecodedInst entry;
        const guest::DecodeStatus status =
            guest::decode(buf, sizeof(buf), entry.inst);
        if (status != guest::DecodeStatus::Ok) {
            // A guest error, not a simulator bug: a trace file can
            // carry an arbitrary program image (the CSUM section
            // authenticates the bytes as written, not as sane), so
            // undecodable code must fail the run, not the process.
            fatal_kind(ErrKind::Guest,
                       "TOL: undecodable guest instruction at 0x%08x "
                       "(%d)", eip, static_cast<int>(status));
        }
        entry.info = &guest::opInfo(entry.inst.op);
        return cache.emplace(eip, entry).first->second;
    }

    struct FastSlot
    {
        uint32_t eip = 0;
        const DecodedInst *entry = nullptr;
    };

    host::Memory &mem;
    std::unordered_map<uint32_t, DecodedInst> cache;
    std::array<FastSlot, size_t(1) << kFastBits> fast{};
};

} // namespace darco::tol

#endif // DARCO_TOL_GUEST_READER_HH
