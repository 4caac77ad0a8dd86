#include "runner/snapshot_codec.hh"

#include <algorithm>
#include <array>
#include <cstdint>
#include <cstring>
#include <type_traits>

#include "common/fields.hh"
#include "trace/trace.hh"

namespace darco::runner::codec {

namespace {

constexpr char kHexDigits[] = "0123456789abcdef";

/** The seal sealLine appends: `,"csum":"<16 hex>"}`. */
constexpr std::string_view kSealOpen = ",\"csum\":\"";
constexpr std::string_view kSealClose = "\"}";
constexpr size_t kSealSize = kSealOpen.size() + 16 + kSealClose.size();

/** The two hex digits of every byte value. */
constexpr std::array<char, 512> kHexPairs = [] {
    std::array<char, 512> pairs{};
    for (size_t b = 0; b < 256; ++b) {
        pairs[2 * b] = kHexDigits[b >> 4];
        pairs[2 * b + 1] = kHexDigits[b & 0xf];
    }
    return pairs;
}();

/** Value of a lowercase hex digit (the writer emits no other), or
 *  0x10 for any other byte. */
constexpr std::array<uint8_t, 256> kHexValues = [] {
    std::array<uint8_t, 256> values{};
    values.fill(0x10);
    for (uint8_t d = 0; d < 16; ++d)
        values[static_cast<uint8_t>(kHexDigits[d])] = d;
    return values;
}();

/** Grow @p out by @p n bytes and return where they start. */
char *
grow(std::string &out, size_t n)
{
    const size_t at = out.size();
    out.resize(at + n);
    return out.data() + at;
}

/** Write the low @p bytes bytes of @p v at @p p, most significant
 *  first, two hex digits each; returns the end. */
char *
putHex(char *p, uint64_t v, unsigned bytes)
{
    for (unsigned i = bytes; i-- > 0;) {
        const size_t pair = 2 * ((v >> (8 * i)) & 0xff);
        *p++ = kHexPairs[pair];
        *p++ = kHexPairs[pair + 1];
    }
    return p;
}

/** @p n hex digits at @p p as a big-endian number; false on a byte
 *  that is not a lowercase hex digit. */
bool
takeHex(const char *p, unsigned n, uint64_t &value)
{
    uint64_t v = 0;
    uint8_t bad = 0;
    for (unsigned i = 0; i < n; ++i) {
        const uint8_t d = kHexValues[static_cast<uint8_t>(p[i])];
        bad |= d;
        v = (v << 4) | (d & 0xf);
    }
    value = v;
    return (bad & 0x10) == 0;
}

/** Leaves of a PipeStats field list. */
size_t
pipeStatsLeaves()
{
    static const size_t leaves = [] {
        size_t n = 0;
        const timing::PipeStats ps;
        fields::forEachLeaf(ps, [&n](const auto &leaf) {
            static_assert(std::is_same_v<decltype(leaf), const uint64_t &>,
                          "every PipeStats leaf is an exact count");
            ++n;
        });
        return n;
    }();
    return leaves;
}

/**
 * PipeStats as hex: every scalar of its field list in list order, each
 * as 8 little-endian bytes. Defined by the list, never by the
 * struct's layout.
 */
void
appendPipeStats(std::string &out, const timing::PipeStats &ps)
{
    char *p = grow(out, pipeStatsLeaves() * 16);
    fields::forEachLeaf(ps, [&p](const uint64_t &value) {
        p = putHex(p, __builtin_bswap64(value), 8);
    });
}

/** The open hex value of @p in as a PipeStats blob. */
bool
readPipeStats(FieldReader &in, timing::PipeStats &ps)
{
    if (in.left() != pipeStatsLeaves() * 16)
        return false;
    bool ok = true;
    fields::forEachLeaf(ps, [&](uint64_t &value) {
        uint64_t bits = 0;
        ok = takeHex(in.next(16), 16, bits) && ok;
        value = __builtin_bswap64(bits);
    });
    return ok && in.close();
}

/**
 * RunProfile as a flat hex stream of u64 fields (maps are
 * length-prefixed; std::map iteration order is the sort order, so
 * serialization is canonical and two equal profiles serialize to the
 * same bytes).
 */
void
appendProfile(std::string &out, const profile::RunProfile &p)
{
    char *at = grow(out, (7 + 2 * p.dataReuse.counts.size() +
                          6 * p.branches.sites.size()) * 16);
    const auto put = [&at](uint64_t v) { at = putHex(at, v, 8); };
    put(p.lineBytes);
    put(p.dataReuse.coldAccesses);
    put(p.dataReuse.counts.size());
    for (const auto &[dist, cnt] : p.dataReuse.counts) {
        put(dist);
        put(cnt);
    }
    put(p.branches.dynBranches);
    put(p.branches.dynCondBranches);
    put(p.branches.mispredicts);
    put(p.branches.sites.size());
    for (const auto &[pc, site] : p.branches.sites) {
        put(pc);
        put(site.taken);
        put(site.notTaken);
        put(site.transitions);
        put(site.mispredicts);
        put((site.isCond ? 1u : 0u) | (site.isIndirect ? 2u : 0u));
    }
}

/** The open hex value of @p in as a profile. Strict: the map keys
 *  must strictly increase, as appendProfile writes them, so a
 *  duplicated or reordered key is a damaged entry; so is a 32-bit
 *  field (lineBytes, a branch PC) past 32 bits, or a site-flag bit
 *  appendProfile never sets. */
bool
readProfile(FieldReader &in, profile::RunProfile &p)
{
    bool ok = true;
    const auto take = [&]() {
        uint64_t v = 0;
        const char *digits = in.next(16);
        ok = digits && takeHex(digits, 16, v) && ok;
        return v;
    };
    const auto after_last = [](const auto &map, uint64_t key) {
        return map.empty() || key > map.rbegin()->first;
    };
    const uint64_t line_bytes = take();
    p.dataReuse.coldAccesses = take();
    const uint64_t ncounts = take();
    if (!ok || line_bytes > UINT32_MAX)
        return false;
    p.lineBytes = static_cast<uint32_t>(line_bytes);
    for (uint64_t i = 0; i < ncounts; ++i) {
        const uint64_t dist = take();
        const uint64_t cnt = take();
        if (!ok || !after_last(p.dataReuse.counts, dist))
            return false;
        p.dataReuse.counts.emplace_hint(p.dataReuse.counts.end(), dist,
                                        cnt);
    }
    p.branches.dynBranches = take();
    p.branches.dynCondBranches = take();
    p.branches.mispredicts = take();
    const uint64_t nsites = take();
    for (uint64_t i = 0; ok && i < nsites; ++i) {
        const uint64_t pc = take();
        profile::BranchSite site;
        site.taken = take();
        site.notTaken = take();
        site.transitions = take();
        site.mispredicts = take();
        const uint64_t flags = take();
        if (!ok || pc > UINT32_MAX ||
            !after_last(p.branches.sites, pc) || flags > 3) {
            return false;
        }
        site.isCond = (flags & 1) != 0;
        site.isIndirect = (flags & 2) != 0;
        p.branches.sites.emplace_hint(p.branches.sites.end(),
                                      static_cast<uint32_t>(pc), site);
    }
    return ok && in.close();
}

/** `,"key":` */
void
appendKey(std::string &out, const char *key)
{
    out += ",\"";
    out += key;
    out += "\":";
}

} // namespace

uint64_t
hashString(std::string_view s)
{
    return trace::fnv1a64(
        reinterpret_cast<const uint8_t *>(s.data()), s.size());
}

uint64_t
sealHash(std::string_view body)
{
    // One FNV-1a step per little-endian 64-bit word, then one per
    // tail byte: a multiply latency per 8 bytes, not per byte. Each
    // step h -> (h ^ w) * prime is a bijection of h and of w, so a
    // change confined to one word always changes the seal. The word
    // is assembled byte by byte (compilers fuse it into one load), so
    // the seal does not depend on the host's byte order.
    const char *p = body.data();
    uint64_t hash = trace::kFnvOffset;
    for (size_t words = body.size() / 8; words > 0; --words, p += 8) {
        uint64_t w = 0;
        for (unsigned b = 0; b < 8; ++b)
            w |= uint64_t{static_cast<uint8_t>(p[b])} << (8 * b);
        hash = (hash ^ w) * trace::kFnvPrime;
    }
    return trace::fnv1a64(reinterpret_cast<const uint8_t *>(p),
                          body.size() % 8, hash);
}

std::string
escape(const std::string &s)
{
    std::string out;
    out.reserve(s.size());
    for (const char c : s) {
        if (c == '\\' || c == '"') {
            out += '\\';
            out += c;
        } else if (static_cast<unsigned char>(c) < 0x20) {
            out += "\\u00";
            out.append(&kHexPairs[2 * static_cast<uint8_t>(c)], 2);
        } else {
            out += c;
        }
    }
    return out;
}

FieldReader::FieldReader(std::string_view line)
{
    // The seal is fixed-size: split it off and check it against the
    // whole body before a single field is read.
    const std::string_view seal =
        line.substr(line.size() - std::min(line.size(), kSealSize));
    uint64_t sealed = 0;
    if (line.size() <= kSealSize || line[0] != '{' ||
        !seal.starts_with(kSealOpen) || !seal.ends_with(kSealClose) ||
        !takeHex(seal.data() + kSealOpen.size(), 16, sealed) ||
        sealHash(line.substr(0, line.size() - kSealSize)) != sealed) {
        ok = false;
        return;
    }
    pos = line.data();
    end = pos + line.size() - kSealSize;
}

bool
FieldReader::at(const char *key) const
{
    const size_t n = std::strlen(key);
    return ok && valueEnd == nullptr &&
           static_cast<size_t>(end - pos) >= n + 4 &&
           pos[0] == separator && pos[1] == '"' &&
           std::memcmp(pos + 2, key, n) == 0 && pos[n + 2] == '"' &&
           pos[n + 3] == ':';
}

bool
FieldReader::take(const char *key)
{
    if (!at(key))
        return fail();
    pos += std::strlen(key) + 4;
    separator = ',';
    return true;
}

bool
FieldReader::u64(const char *key, uint64_t &value)
{
    if (!take(key))
        return false;
    // Canonical only: no leading zero, no sign, no overflow, so the
    // value re-encodes to the same digits.
    const size_t room = static_cast<size_t>(end - pos);
    size_t i = 0;
    uint64_t v = 0;
    for (; i < room && pos[i] >= '0' && pos[i] <= '9'; ++i) {
        const uint64_t d = static_cast<uint64_t>(pos[i] - '0');
        if (v > (UINT64_MAX - d) / 10)
            return fail();
        v = v * 10 + d;
    }
    if (i == 0 || (pos[0] == '0' && i > 1))
        return fail();
    pos += i;
    value = v;
    return true;
}

bool
FieldReader::str(const char *key, std::string &value)
{
    if (!take(key) || pos == end || *pos != '"')
        return fail();
    const size_t room = static_cast<size_t>(end - pos);
    value.clear();
    for (size_t i = 1; i < room; ++i) {
        const char c = pos[i];
        if (c == '"') {
            pos += i + 1;
            return true;
        }
        if (static_cast<unsigned char>(c) < 0x20)
            break;  // escape() never leaves a control byte raw
        if (c != '\\') {
            value += c;
            continue;
        }
        if (++i >= room)
            break;
        const char e = pos[i];
        uint64_t code = 0;
        if (e == '\\' || e == '"') {
            value += e;
        } else if (e == 'u' && i + 4 < room && pos[i + 1] == '0' &&
                   pos[i + 2] == '0' && takeHex(pos + i + 3, 2, code) &&
                   code < 0x20) {
            value += static_cast<char>(code);
            i += 4;
        } else {
            break;
        }
    }
    return fail();
}

bool
FieldReader::open(const char *key)
{
    if (!take(key) || pos == end || *pos != '"')
        return fail();
    ++pos;
    valueEnd = static_cast<const char *>(
        std::memchr(pos, '"', static_cast<size_t>(end - pos)));
    return valueEnd != nullptr || fail();
}

const char *
FieldReader::next(size_t n)
{
    if (valueEnd == nullptr || left() < n) {
        fail();
        return nullptr;
    }
    const char *record = pos;
    pos += n;
    return record;
}

bool
FieldReader::close()
{
    if (valueEnd == nullptr || pos != valueEnd)
        return fail();
    valueEnd = nullptr;
    ++pos;
    return true;
}

bool
FieldReader::hex64(const char *key, uint64_t &value)
{
    if (!open(key) || left() != 16 || !takeHex(next(16), 16, value))
        return fail();
    return close();
}

bool
FieldReader::done() const
{
    return ok && pos == end && valueEnd == nullptr;
}

void
appendSnapshotFields(std::string &body, const sim::RunSnapshot &snap)
{
    body.reserve(body.size() + 2048 + (1 + sim::kIsolationPipes.size()) *
                                          pipeStatsLeaves() * 16);
    appendKey(body, "guest_retired");
    fields::appendText(body, snap.result.guestRetired);
    appendKey(body, "halted");
    body += snap.result.halted ? '1' : '0';
    appendKey(body, "cycles");
    fields::appendText(body, snap.result.cycles);
    appendKey(body, "timing_core");
    body += '"';
    body += escape(snap.timingCore);
    body += '"';
    const auto blob = [&body](const char *key, const auto &append,
                              const auto &value) {
        appendKey(body, key);
        body += '"';
        append(body, value);
        body += '"';
    };
    blob("stats", appendPipeStats, snap.stats);
    for (const sim::IsolationPipe &pipe : sim::kIsolationPipes) {
        if (const std::optional<timing::PipeStats> &ps = snap.*pipe.stats)
            blob(pipe.key, appendPipeStats, *ps);
    }
    if (snap.profile)
        blob("profile", appendProfile, *snap.profile);
    tol::TolStats::forEachField(snap.tolStats, [&body](const char *key,
                                                       uint64_t count) {
        appendKey(body, key);
        fields::appendText(body, count);
    });
}

bool
parseSnapshotFields(FieldReader &in, sim::RunSnapshot &snap)
{
    uint64_t halted = 0;
    if (!in.u64("guest_retired", snap.result.guestRetired) ||
        !in.u64("halted", halted) || halted > 1 ||
        !in.u64("cycles", snap.result.cycles) ||
        !in.str("timing_core", snap.timingCore) || !in.open("stats") ||
        !readPipeStats(in, snap.stats)) {
        return false;
    }
    snap.result.halted = halted != 0;
    for (const sim::IsolationPipe &pipe : sim::kIsolationPipes) {
        if (in.at(pipe.key) &&
            (!in.open(pipe.key) ||
             !readPipeStats(in, (snap.*pipe.stats).emplace())))
            return false;
    }
    if (in.at("profile") &&
        (!in.open("profile") || !readProfile(in, snap.profile.emplace()))) {
        return false;
    }
    bool counters_ok = true;
    tol::TolStats::forEachField(snap.tolStats, [&](const char *key,
                                                   uint64_t &count) {
        counters_ok = counters_ok && in.u64(key, count);
    });
    return counters_ok;
}

std::string
sealLine(std::string body)
{
    const uint64_t csum = sealHash(body);
    body += kSealOpen;
    putHex(grow(body, 16), csum, 8);
    body += kSealClose;
    return body;
}

} // namespace darco::runner::codec
