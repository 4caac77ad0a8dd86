/**
 * @file
 * Trace serializer: builds the whole image in memory (traces are
 * megabytes at most — a program image plus metadata), appends the
 * FNV-1a checksum section over everything written so far, and lands
 * on disk with one fwrite.
 */

#include "trace/trace.hh"

#include <cstdio>
#include <type_traits>

#include "common/logging.hh"

namespace darco::trace {

namespace {

/** Little-endian byte-vector builder. */
class ByteWriter
{
  public:
    void
    u16(uint16_t value)
    {
        raw(&value, 2);
    }

    void
    u32(uint32_t value)
    {
        raw(&value, 4);
    }

    void
    u64(uint64_t value)
    {
        raw(&value, 8);
    }

    void
    str(const std::string &value)
    {
        u32(static_cast<uint32_t>(value.size()));
        bytes.insert(bytes.end(), value.begin(), value.end());
    }

    void
    blob(const uint8_t *data, size_t len)
    {
        u64(len);
        bytes.insert(bytes.end(), data, data + len);
    }

    /**
     * Append a section: tag, 64-bit payload size, payload. The
     * payload is built by @p fill into a scratch writer so the size
     * prefix is exact.
     */
    template <typename Fill>
    void
    section(uint32_t tag, Fill fill)
    {
        ByteWriter payload;
        fill(payload);
        u32(tag);
        u64(payload.bytes.size());
        bytes.insert(bytes.end(), payload.bytes.begin(),
                     payload.bytes.end());
    }

    std::vector<uint8_t> bytes;

  private:
    void
    raw(const void *data, size_t len)
    {
        const uint8_t *p = static_cast<const uint8_t *>(data);
        // The simulator only targets little-endian hosts (the guest
        // ISA emulation already assumes it); the format is defined
        // little-endian regardless.
        bytes.insert(bytes.end(), p, p + len);
    }
};

} // namespace

void
writeTrace(const std::string &path, const TraceFile &file)
{
    ByteWriter out;
    out.u32(kMagic);
    out.u16(kVersionMajor);
    out.u16(kVersionMinor);
    out.u32(0);  // header flags, reserved

    out.section(kSectionMeta, [&](ByteWriter &w) {
        w.str(file.meta.name);
        w.str(file.meta.suite);
        w.u64(file.meta.seed);
        w.u64(file.meta.guestBudget);
        w.u32(file.meta.imToBbThreshold);
        w.u32(file.meta.bbToSbThreshold);
        w.u32(static_cast<uint32_t>(file.meta.tags.size()));
        for (const std::string &tag : file.meta.tags)
            w.str(tag);
    });

    out.section(kSectionProgram, [&](ByteWriter &w) {
        const guest::Program &prog = file.program;
        w.u32(prog.codeBase);
        w.u32(prog.entry);
        w.u32(prog.stackTop);
        w.blob(prog.code.data(), prog.code.size());
        w.u32(static_cast<uint32_t>(prog.data.size()));
        for (const guest::Program::DataSegment &seg : prog.data) {
            w.u32(seg.addr);
            w.blob(seg.bytes.data(), seg.bytes.size());
        }
    });

    if (file.hasPins) {
        out.section(kSectionPins, [&](ByteWriter &w) {
            TracePins::forEachField(file.pins, [&w](const char *,
                                                    const auto &pin) {
                if constexpr (std::is_same_v<decltype(pin),
                                             const std::string &>)
                    w.str(pin);
                else
                    w.u64(pin);
            });
        });
    }

    // The checksum covers every byte that precedes the CSUM section
    // header, so a writer appends it last and a reader verifies it
    // against exactly the bytes it already consumed.
    const uint64_t sum = fnv1a64(out.bytes.data(), out.bytes.size());
    out.section(kSectionChecksum,
                [&](ByteWriter &w) { w.u64(sum); });

    FILE *fp = std::fopen(path.c_str(), "wb");
    fatal_if(!fp, "trace: cannot open %s for writing", path.c_str());
    const size_t written =
        std::fwrite(out.bytes.data(), 1, out.bytes.size(), fp);
    const bool closed = std::fclose(fp) == 0;
    fatal_if(written != out.bytes.size() || !closed,
             "trace: short write to %s", path.c_str());
}

} // namespace darco::trace
