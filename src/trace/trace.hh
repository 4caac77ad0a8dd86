/**
 * @file
 * Binary workload traces: the portable workload currency.
 *
 * A trace serializes a complete guest::Program image plus the run
 * recipe that produced it (seed, guest budget, promotion thresholds,
 * suite tags) and, optionally, the capture run's determinism pins
 * (guest_retired, sim_cycles, host_records, TOL mode counters).
 * Capture once — from a synthetic builder, a recorded regression, a
 * reduced repro case, an externally authored guest — and replay
 * deterministically: the engine is deterministic, so a replayed
 * trace drives the functional/timing pipeline bit-identically to the
 * original run under the same configuration.
 *
 * Format (full specification and compat rules in docs/traces.md):
 * a 12-byte header (magic "DTRC", version major.minor) followed by
 * tagged, length-prefixed sections (META, PROG, PINS, CSUM). Readers
 * skip unknown sections and ignore trailing bytes inside known ones,
 * so minor-version additions stay readable; a major bump is a layout
 * break and is rejected.
 */

#ifndef DARCO_TRACE_TRACE_HH
#define DARCO_TRACE_TRACE_HH

#include <cstdint>
#include <string>
#include <vector>

#include "common/fields.hh"
#include "guest/assembler.hh"

namespace darco::trace {

/** Build a section tag from its four ASCII bytes (little-endian). */
constexpr uint32_t
fourcc(char a, char b, char c, char d)
{
    return uint32_t(uint8_t(a)) | uint32_t(uint8_t(b)) << 8 |
           uint32_t(uint8_t(c)) << 16 | uint32_t(uint8_t(d)) << 24;
}

constexpr uint32_t kMagic = fourcc('D', 'T', 'R', 'C');
constexpr uint16_t kVersionMajor = 1;
constexpr uint16_t kVersionMinor = 0;

constexpr uint32_t kSectionMeta = fourcc('M', 'E', 'T', 'A');
constexpr uint32_t kSectionProgram = fourcc('P', 'R', 'O', 'G');
constexpr uint32_t kSectionPins = fourcc('P', 'I', 'N', 'S');
constexpr uint32_t kSectionChecksum = fourcc('C', 'S', 'U', 'M');

/** FNV-1a 64-bit offset basis: the hash of no bytes. */
constexpr uint64_t kFnvOffset = 0xCBF29CE484222325ull;
/** FNV-1a 64-bit prime. */
constexpr uint64_t kFnvPrime = 0x100000001B3ull;

/**
 * FNV-1a 64-bit of @p data (the CSUM section's hash, the config
 * fingerprint and the result cache's file names), continuing from
 * @p hash: hashing a run in pieces gives the hash of the whole run.
 */
inline uint64_t
fnv1a64(const uint8_t *data, size_t len, uint64_t hash = kFnvOffset)
{
    for (size_t i = 0; i < len; ++i) {
        hash ^= data[i];
        hash *= kFnvPrime;
    }
    return hash;
}

/**
 * Capture-time run recipe: what must be re-applied for a replay to
 * be bit-identical. Only the TOL-visible configuration is pinned —
 * the budget and promotion thresholds determine the functional
 * execution (and hence the record stream); the host
 * microarchitecture is deliberately NOT part of a trace, because the
 * whole point of the format is comparing one captured workload
 * across timing configurations (docs/traces.md §4).
 */
struct TraceMeta
{
    std::string name;                ///< workload display name
    std::string suite;               ///< suite tag ("SPEC INT", ...)
    uint64_t seed = 0;               ///< generator seed (provenance)
    uint64_t guestBudget = 0;        ///< capture run's guest budget
    uint32_t imToBbThreshold = 0;    ///< capture TolConfig value
    uint32_t bbToSbThreshold = 0;    ///< capture TolConfig value
    std::vector<std::string> tags;   ///< free-form provenance tags

    bool operator==(const TraceMeta &) const = default;
};

/**
 * Determinism fingerprint of the capture run. guestRetired,
 * hostRecords and the TOL mode counters depend only on the workload
 * and the TraceMeta recipe (functional pins: machine- and
 * microarchitecture-independent); simCycles and timingCore
 * additionally depend on the capture run's TimingConfig (timing
 * pins: comparable only under the same host model).
 */
struct TracePins
{
    uint64_t guestRetired = 0;
    uint64_t simCycles = 0;
    uint64_t hostRecords = 0;
    std::string timingCore;          ///< "event" / "reference"
    // TOL activity counters (tol::TolStats).
    uint64_t dynIm = 0;
    uint64_t dynBbm = 0;
    uint64_t dynSbm = 0;
    uint64_t bbsTranslated = 0;
    uint64_t sbsCreated = 0;
    uint64_t guestIndirectBranches = 0;

    bool operator==(const TracePins &) const = default;

    /**
     * The field list, in PINS-section order. Keys are the pins'
     * report names; each TOL counter's key is its tol::TolStats
     * name in snake_case, which is how sim::capturePins finds it.
     */
    template <class Self, class Visit>
    static constexpr void
    forEachField(Self &self, Visit &&visit)
    {
        visit("guest_retired", self.guestRetired);
        visit("sim_cycles", self.simCycles);
        visit("host_records", self.hostRecords);
        visit("timing_core", self.timingCore);
        visit("dyn_im", self.dynIm);
        visit("dyn_bbm", self.dynBbm);
        visit("dyn_sbm", self.dynSbm);
        visit("bbs_translated", self.bbsTranslated);
        visit("sbs_created", self.sbsCreated);
        visit("guest_indirect_branches", self.guestIndirectBranches);
    }
};
static_assert(fields::listsEveryMember<TracePins>());

/** A parsed trace: program image + recipe + optional pins. */
struct TraceFile
{
    TraceMeta meta;
    guest::Program program;
    bool hasPins = false;
    TracePins pins;
};

/**
 * Serialize @p file to @p path (always includes a CSUM section).
 * fatal() on I/O failure — a capture path the harness cannot write
 * is a user error, not a recoverable condition.
 */
void writeTrace(const std::string &path, const TraceFile &file);

/**
 * How a trace read failed, for callers that need to decide between
 * retrying and rejecting (runner retry policy, sim/run_error.hh):
 * Io failures (file unreadable) can be transient on a loaded or
 * networked filesystem; Corrupt means the bytes were read fine but
 * failed a structural or checksum test — re-reading cannot help.
 */
enum class ReadFail : uint8_t { None, Io, Corrupt };

/** readTrace outcome: `error` empty means success. */
struct ReadResult
{
    TraceFile file;
    std::string error;
    ReadFail failKind = ReadFail::None;

    bool ok() const { return error.empty(); }
};

/**
 * Parse the trace at @p path. Never panics on malformed input: any
 * structural problem (bad magic, unsupported major version, short
 * section, checksum mismatch, missing META/PROG/CSUM) is reported
 * in ReadResult::error so callers can decide between fatal() and a
 * graceful skip. A trace is only accepted once its CSUM section has
 * verified, so corruption anywhere in the file — including damage
 * to the checksum section itself — is detected.
 */
ReadResult readTrace(const std::string &path);

} // namespace darco::trace

#endif // DARCO_TRACE_TRACE_HH
