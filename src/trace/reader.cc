/**
 * @file
 * Trace parser. Defensive by design: traces cross machine and PR
 * boundaries, so every structural assumption is checked and reported
 * through ReadResult::error instead of panicking. Compat rules
 * (docs/traces.md): same major version required; unknown sections
 * are skipped; a known section appears at most once and may carry
 * trailing bytes a newer minor version appended, which are ignored.
 */

#include "trace/trace.hh"

#include <cstdio>
#include <cstring>
#include <type_traits>

#include "common/faultinject.hh"
#include "common/logging.hh"

namespace darco::trace {

namespace {

/** Bounds-checked little-endian cursor over the file image. */
class ByteReader
{
  public:
    ByteReader(const uint8_t *data, size_t len)
        : base(data), size(len)
    {}

    bool failed() const { return truncated; }
    size_t pos() const { return cursor; }
    size_t remaining() const { return size - cursor; }

    uint16_t
    u16()
    {
        uint16_t v = 0;
        raw(&v, 2);
        return v;
    }

    uint32_t
    u32()
    {
        uint32_t v = 0;
        raw(&v, 4);
        return v;
    }

    uint64_t
    u64()
    {
        uint64_t v = 0;
        raw(&v, 8);
        return v;
    }

    std::string
    str()
    {
        const uint32_t len = u32();
        if (!take(len))
            return {};
        std::string s(reinterpret_cast<const char *>(base + cursor - len),
                      len);
        return s;
    }

    std::vector<uint8_t>
    blob()
    {
        const uint64_t len = u64();
        if (!take(len))
            return {};
        return std::vector<uint8_t>(base + cursor - len, base + cursor);
    }

    /** Advance past @p len bytes (skipping unknown content). */
    bool
    take(uint64_t len)
    {
        if (truncated || len > remaining()) {
            truncated = true;
            return false;
        }
        cursor += static_cast<size_t>(len);
        return true;
    }

  private:
    void
    raw(void *out, size_t len)
    {
        if (!take(len))
            return;
        std::memcpy(out, base + cursor - len, len);
    }

    const uint8_t *base;
    size_t size;
    size_t cursor = 0;
    bool truncated = false;
};

void
parseMeta(ByteReader &r, TraceMeta &meta)
{
    meta.name = r.str();
    meta.suite = r.str();
    meta.seed = r.u64();
    meta.guestBudget = r.u64();
    meta.imToBbThreshold = r.u32();
    meta.bbToSbThreshold = r.u32();
    const uint32_t num_tags = r.u32();
    for (uint32_t i = 0; i < num_tags && !r.failed(); ++i)
        meta.tags.push_back(r.str());
}

void
parseProgram(ByteReader &r, guest::Program &prog)
{
    prog.codeBase = r.u32();
    prog.entry = r.u32();
    prog.stackTop = r.u32();
    prog.code = r.blob();
    const uint32_t num_segments = r.u32();
    for (uint32_t i = 0; i < num_segments && !r.failed(); ++i) {
        guest::Program::DataSegment seg;
        seg.addr = r.u32();
        seg.bytes = r.blob();
        prog.data.push_back(std::move(seg));
    }
}

void
parsePins(ByteReader &r, TracePins &pins)
{
    TracePins::forEachField(pins, [&r](const char *, auto &pin) {
        if constexpr (std::is_same_v<decltype(pin), std::string &>)
            pin = r.str();
        else
            pin = r.u64();
    });
}

/** The four ASCII bytes of a section tag ("META", ...). */
std::string
tagName(uint32_t tag)
{
    std::string name;
    for (unsigned shift = 0; shift < 32; shift += 8)
        name += static_cast<char>(tag >> shift & 0xff);
    return name;
}

std::vector<uint8_t>
slurp(const std::string &path, std::string &error)
{
    if (faultinject::fire(faultinject::Point::TraceIoFail)) {
        error = strprintf("trace %s: injected transient I/O failure",
                          path.c_str());
        return {};
    }
    FILE *fp = std::fopen(path.c_str(), "rb");
    if (!fp) {
        error = strprintf("trace %s: cannot open for reading",
                          path.c_str());
        return {};
    }
    std::vector<uint8_t> bytes;
    uint8_t buf[1 << 16];
    size_t got;
    while ((got = std::fread(buf, 1, sizeof(buf), fp)) > 0)
        bytes.insert(bytes.end(), buf, buf + got);
    const bool read_error = std::ferror(fp) != 0;
    std::fclose(fp);
    if (read_error) {
        error = strprintf("trace %s: read error", path.c_str());
        return {};
    }
    return bytes;
}

} // namespace

ReadResult
readTrace(const std::string &path)
{
    ReadResult result;
    // Everything below the successful slurp is a structural failure:
    // the bytes were read, they just do not form a valid trace.
    auto fail = [&](std::string msg) {
        result.error = std::move(msg);
        result.failKind = ReadFail::Corrupt;
        return result;
    };

    std::vector<uint8_t> bytes = slurp(path, result.error);
    if (!result.error.empty()) {
        result.failKind = ReadFail::Io;
        return result;
    }
    // Post-read corruption injection: a single byte flip anywhere in
    // the image must be caught by the structural checks or the CSUM
    // section (tests/test_trace_roundtrip.cc proves the same for
    // every byte offset).
    if (!bytes.empty() &&
        faultinject::fire(faultinject::Point::TraceCorrupt)) {
        bytes[faultinject::param(faultinject::Point::TraceCorrupt) %
              bytes.size()] ^= 0xff;
    }

    ByteReader r(bytes.data(), bytes.size());
    const uint32_t magic = r.u32();
    const uint16_t major = r.u16();
    const uint16_t minor = r.u16();
    r.u32();  // header flags, reserved
    if (r.failed() || magic != kMagic) {
        return fail(strprintf("trace %s: bad magic (not a DTRC trace)",
                              path.c_str()));
    }
    if (major != kVersionMajor) {
        return fail(strprintf(
            "trace %s: format major version %u unsupported (this "
            "reader speaks %u.%u; major bumps are layout breaks)",
            path.c_str(), major, kVersionMajor, kVersionMinor));
    }
    (void)minor;  // any minor of the same major is readable

    bool have_meta = false, have_program = false;
    bool have_checksum = false;
    while (r.remaining() > 0) {
        const uint32_t tag = r.u32();
        const uint64_t size = r.u64();
        if (r.failed() || size > r.remaining()) {
            return fail(strprintf("trace %s: truncated section header "
                                  "or payload at offset %zu",
                                  path.c_str(), r.pos()));
        }
        // Verify the checksum against exactly the bytes preceding
        // the CSUM section header (12 bytes: tag + size).
        if (tag == kSectionChecksum) {
            const size_t covered = r.pos() - 12;
            ByteReader payload(bytes.data() + r.pos(),
                               static_cast<size_t>(size));
            const uint64_t recorded = payload.u64();
            const uint64_t computed = fnv1a64(bytes.data(), covered);
            if (payload.failed() || recorded != computed) {
                return fail(strprintf(
                    "trace %s: checksum mismatch (file corrupt?)",
                    path.c_str()));
            }
            have_checksum = true;
            r.take(size);
            // The checksum only covers what precedes it, so it must
            // be the final section — anything after it would be
            // accepted unverified (e.g. a concatenated fragment
            // overwriting PROG).
            if (r.remaining() > 0) {
                return fail(strprintf(
                    "trace %s: %zu trailing bytes after the CSUM "
                    "section (corrupt or concatenated file)",
                    path.c_str(), r.remaining()));
            }
            continue;
        }
        // A known section appears at most once: a second copy would
        // overwrite or extend the first. No writer emits one.
        bool *const seen = tag == kSectionMeta      ? &have_meta
                           : tag == kSectionProgram ? &have_program
                           : tag == kSectionPins    ? &result.file.hasPins
                                                    : nullptr;
        if (seen && *seen) {
            return fail(strprintf("trace %s: repeated %s section",
                                  path.c_str(), tagName(tag).c_str()));
        }
        if (seen)
            *seen = true;
        ByteReader payload(bytes.data() + r.pos(),
                           static_cast<size_t>(size));
        r.take(size);
        switch (tag) {
          case kSectionMeta:
            parseMeta(payload, result.file.meta);
            break;
          case kSectionProgram:
            parseProgram(payload, result.file.program);
            break;
          case kSectionPins:
            parsePins(payload, result.file.pins);
            break;
          default:
            break;  // unknown section: forward-compat skip
        }
        if (payload.failed()) {
            return fail(strprintf("trace %s: section 0x%08X payload "
                                  "shorter than its declared fields",
                                  path.c_str(), tag));
        }
    }

    if (!have_meta || !have_program) {
        return fail(strprintf("trace %s: missing mandatory %s section",
                              path.c_str(),
                              have_meta ? "PROG" : "META"));
    }
    // Writers always append a checksum; a trace without a *verified*
    // CSUM section is rejected, otherwise corruption that removes or
    // retags the trailing section (the likeliest damage: a truncated
    // copy) would bypass the integrity check entirely.
    if (!have_checksum) {
        return fail(strprintf("trace %s: missing CSUM section "
                              "(truncated or corrupt file)",
                              path.c_str()));
    }
    return result;
}

} // namespace darco::trace
