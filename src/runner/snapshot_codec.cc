#include "runner/snapshot_codec.hh"

#include <bit>
#include <cerrno>
#include <cstdint>
#include <cstdlib>
#include <string_view>
#include <type_traits>

#include "common/fields.hh"
#include "common/logging.hh"
#include "trace/trace.hh"

namespace darco::runner::codec {

namespace {

constexpr char kHexDigits[] = "0123456789abcdef";

void
appendHex(std::string &out, const uint8_t *data, size_t len)
{
    for (size_t i = 0; i < len; ++i) {
        out += kHexDigits[data[i] >> 4];
        out += kHexDigits[data[i] & 0xf];
    }
}

int
hexVal(char c)
{
    if (c >= '0' && c <= '9')
        return c - '0';
    if (c >= 'a' && c <= 'f')
        return c - 'a' + 10;
    return -1;
}

bool
decodeHex(std::string_view hex, uint8_t *out, size_t len)
{
    if (hex.size() != len * 2)
        return false;
    for (size_t i = 0; i < len; ++i) {
        const int hi = hexVal(hex[2 * i]);
        const int lo = hexVal(hex[2 * i + 1]);
        if (hi < 0 || lo < 0)
            return false;
        out[i] = static_cast<uint8_t>((hi << 4) | lo);
    }
    return true;
}

/**
 * PipeStats as hex: every scalar of its field list in list order, each
 * as 8 little-endian bytes (doubles as their IEEE-754 bits). Defined
 * by the list, never by the struct's layout.
 */
std::string
pipeStatsHex(const timing::PipeStats &ps)
{
    std::string out;
    fields::forEachLeaf(ps, [&out](const auto &value) {
        uint64_t bits;
        if constexpr (std::is_same_v<decltype(value), const double &>)
            bits = std::bit_cast<uint64_t>(value);
        else
            bits = value;
        uint8_t bytes[8];
        for (uint8_t &b : bytes) {
            b = static_cast<uint8_t>(bits);
            bits >>= 8;
        }
        appendHex(out, bytes, 8);
    });
    return out;
}

bool
pipeStatsFromHex(const std::string &hex, timing::PipeStats &ps)
{
    const std::string_view digits = hex;
    size_t pos = 0;
    bool ok = true;
    fields::forEachLeaf(ps, [&](auto &value) {
        uint8_t bytes[8];
        if (!ok || pos + 16 > digits.size() ||
            !decodeHex(digits.substr(pos, 16), bytes, 8)) {
            ok = false;
            return;
        }
        pos += 16;
        uint64_t bits = 0;
        for (int i = 7; i >= 0; --i)
            bits = (bits << 8) | bytes[i];
        if constexpr (std::is_same_v<decltype(value), double &>)
            value = std::bit_cast<double>(bits);
        else
            value = bits;
    });
    return ok && pos == hex.size();
}

size_t
findKey(const std::string &line, const char *key)
{
    const std::string pat = strprintf("\"%s\":", key);
    const size_t pos = line.find(pat);
    return pos == std::string::npos ? std::string::npos
                                    : pos + pat.size();
}

void
appendU64Hex(std::string &out, uint64_t v)
{
    for (int shift = 60; shift >= 0; shift -= 4)
        out += kHexDigits[(v >> shift) & 0xf];
}

std::optional<uint64_t>
takeU64Hex(const std::string &s, size_t &pos)
{
    if (pos + 16 > s.size())
        return std::nullopt;
    uint64_t v = 0;
    for (size_t i = 0; i < 16; ++i) {
        const int d = hexVal(s[pos + i]);
        if (d < 0)
            return std::nullopt;
        v = (v << 4) | static_cast<uint64_t>(d);
    }
    pos += 16;
    return v;
}

/**
 * RunProfile as a flat hex stream of u64 fields (maps are
 * length-prefixed; std::map iteration order is the sort order, so
 * serialization is canonical and two equal profiles serialize to the
 * same bytes).
 */
std::string
profileHex(const profile::RunProfile &p)
{
    std::string out;
    out.reserve((8 + 2 * p.dataReuse.counts.size() +
                 6 * p.branches.sites.size()) * 16);
    appendU64Hex(out, p.lineBytes);
    appendU64Hex(out, p.dataReuse.coldAccesses);
    appendU64Hex(out, p.dataReuse.counts.size());
    for (const auto &[dist, cnt] : p.dataReuse.counts) {
        appendU64Hex(out, dist);
        appendU64Hex(out, cnt);
    }
    appendU64Hex(out, p.branches.dynBranches);
    appendU64Hex(out, p.branches.dynCondBranches);
    appendU64Hex(out, p.branches.mispredicts);
    appendU64Hex(out, p.branches.sites.size());
    for (const auto &[pc, site] : p.branches.sites) {
        appendU64Hex(out, pc);
        appendU64Hex(out, site.taken);
        appendU64Hex(out, site.notTaken);
        appendU64Hex(out, site.transitions);
        appendU64Hex(out, site.mispredicts);
        appendU64Hex(out, (site.isCond ? 1u : 0u) |
                          (site.isIndirect ? 2u : 0u));
    }
    return out;
}

/** Strict, like staticModesFromHex: the map keys must strictly
 *  increase, as profileHex writes them, so a duplicated or reordered
 *  key is a damaged entry; so is a 32-bit field (lineBytes, a branch
 *  PC) past 32 bits, or a site-flag bit profileHex never sets. */
bool
profileFromHex(const std::string &hex, profile::RunProfile &p)
{
    size_t pos = 0;
    const auto take = [&]() { return takeU64Hex(hex, pos); };
    const auto after_last = [](const auto &map, uint64_t key) {
        return map.empty() || key > map.rbegin()->first;
    };
    const auto line_bytes = take();
    const auto cold = take();
    const auto ncounts = take();
    if (!line_bytes || *line_bytes > UINT32_MAX || !cold || !ncounts)
        return false;
    p.lineBytes = static_cast<uint32_t>(*line_bytes);
    p.dataReuse.coldAccesses = *cold;
    for (uint64_t i = 0; i < *ncounts; ++i) {
        const auto dist = take();
        const auto cnt = take();
        if (!dist || !cnt || !after_last(p.dataReuse.counts, *dist))
            return false;
        p.dataReuse.counts.emplace_hint(p.dataReuse.counts.end(), *dist,
                                        *cnt);
    }
    const auto dyn = take();
    const auto dyn_cond = take();
    const auto mispred = take();
    const auto nsites = take();
    if (!dyn || !dyn_cond || !mispred || !nsites)
        return false;
    p.branches.dynBranches = *dyn;
    p.branches.dynCondBranches = *dyn_cond;
    p.branches.mispredicts = *mispred;
    for (uint64_t i = 0; i < *nsites; ++i) {
        const auto pc = take();
        const auto taken = take();
        const auto not_taken = take();
        const auto transitions = take();
        const auto site_mispred = take();
        const auto flags = take();
        if (!pc || *pc > UINT32_MAX ||
            !after_last(p.branches.sites, *pc) || !taken || !not_taken ||
            !transitions || !site_mispred || !flags || *flags > 3) {
            return false;
        }
        profile::BranchSite site;
        site.taken = *taken;
        site.notTaken = *not_taken;
        site.transitions = *transitions;
        site.mispredicts = *site_mispred;
        site.isCond = (*flags & 1) != 0;
        site.isIndirect = (*flags & 2) != 0;
        p.branches.sites.emplace_hint(p.branches.sites.end(),
                                      static_cast<uint32_t>(*pc), site);
    }
    return pos == hex.size();
}

/** Static mode list as stored (sorted by EIP), 10 hex chars per
 *  (eip, mode) pair. */
std::string
staticModesHex(const tol::TolStats &ts)
{
    std::string out;
    out.reserve(ts.staticMode.size() * 10);
    for (const auto &[eip, mode] : ts.staticMode)
        out += strprintf("%08x%02x", eip, mode);
    return out;
}

/** Strict: the EIPs must strictly increase, as every run writes them,
 *  so a duplicated or reordered pair is a damaged entry; a mode past
 *  SBM is one too. */
bool
staticModesFromHex(const std::string &hex, tol::TolStats &ts)
{
    if (hex.size() % 10 != 0)
        return false;
    ts.staticMode.clear();
    ts.staticMode.reserve(hex.size() / 10);
    for (size_t i = 0; i < hex.size(); i += 10) {
        uint8_t bytes[5];
        if (!decodeHex(hex.substr(i, 10), bytes, 5))
            return false;
        const uint32_t eip = (uint32_t{bytes[0]} << 24) |
                             (uint32_t{bytes[1]} << 16) |
                             (uint32_t{bytes[2]} << 8) |
                             uint32_t{bytes[3]};
        if (bytes[4] > static_cast<uint8_t>(tol::Mode::SBM) ||
            (!ts.staticMode.empty() &&
             eip <= ts.staticMode.back().first)) {
            return false;
        }
        ts.staticMode.emplace_back(eip, bytes[4]);
    }
    return true;
}

} // namespace

uint64_t
hashString(const std::string &s)
{
    return trace::fnv1a64(
        reinterpret_cast<const uint8_t *>(s.data()), s.size());
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
            out += strprintf("\\u%04x", c);
        } else {
            out += c;
        }
    }
    return out;
}

std::optional<uint64_t>
getU64(const std::string &line, const char *key)
{
    const size_t pos = findKey(line, key);
    if (pos == std::string::npos || pos >= line.size())
        return std::nullopt;
    if (line[pos] < '0' || line[pos] > '9')
        return std::nullopt;
    // Strict: a value that overflows u64 or runs into anything but
    // the next field is malformed, never saturated or truncated.
    char *end = nullptr;
    errno = 0;
    const unsigned long long v =
        std::strtoull(line.c_str() + pos, &end, 10);
    if (errno == ERANGE || (*end != ',' && *end != '}'))
        return std::nullopt;
    return v;
}

std::optional<std::string>
getStr(const std::string &line, const char *key)
{
    size_t pos = findKey(line, key);
    if (pos == std::string::npos || pos >= line.size() ||
        line[pos] != '"') {
        return std::nullopt;
    }
    std::string out;
    for (++pos; pos < line.size(); ++pos) {
        const char c = line[pos];
        if (c == '"')
            return out;
        if (c != '\\') {
            out += c;
            continue;
        }
        if (++pos >= line.size())
            return std::nullopt;
        const char e = line[pos];
        if (e == '\\' || e == '"') {
            out += e;
        } else if (e == 'u' && pos + 4 < line.size()) {
            const int h1 = hexVal(line[pos + 3]);
            const int h2 = hexVal(line[pos + 4]);
            if (h1 < 0 || h2 < 0)
                return std::nullopt;
            out += static_cast<char>((h1 << 4) | h2);
            pos += 4;
        } else {
            return std::nullopt;
        }
    }
    return std::nullopt;  // unterminated string
}

std::optional<uint64_t>
getHex64(const std::string &line, const char *key)
{
    const std::optional<std::string> s = getStr(line, key);
    if (!s || s->size() != 16)
        return std::nullopt;
    uint64_t v = 0;
    for (const char c : *s) {
        const int d = hexVal(c);
        if (d < 0)
            return std::nullopt;
        v = (v << 4) | static_cast<uint64_t>(d);
    }
    return v;
}

void
appendSnapshotFields(std::string &body, const sim::RunSnapshot &snap)
{
    body += strprintf(
        ",\"guest_retired\":%llu,\"halted\":%u,\"cycles\":%llu,"
        "\"timing_core\":\"%s\"",
        static_cast<unsigned long long>(snap.result.guestRetired),
        snap.result.halted ? 1u : 0u,
        static_cast<unsigned long long>(snap.result.cycles),
        escape(snap.timingCore).c_str());
    body += ",\"stats\":\"" + pipeStatsHex(snap.stats) + "\"";
    if (snap.tolOnly)
        body += ",\"tol_only\":\"" + pipeStatsHex(*snap.tolOnly) + "\"";
    if (snap.appOnly)
        body += ",\"app_only\":\"" + pipeStatsHex(*snap.appOnly) + "\"";
    if (snap.tolModule) {
        body += ",\"tol_module\":\"" + pipeStatsHex(*snap.tolModule) +
                "\"";
    }
    if (snap.profile)
        body += ",\"profile\":\"" + profileHex(*snap.profile) + "\"";
    tol::TolStats::forEachField(snap.tolStats, [&body](const char *key,
                                                       uint64_t count) {
        body += strprintf(",\"%s\":%llu", key,
                          static_cast<unsigned long long>(count));
    });
    body += ",\"static_modes\":\"" + staticModesHex(snap.tolStats) +
            "\"";
}

bool
parseSnapshotFields(const std::string &line, sim::RunSnapshot &snap)
{
    const auto retired = getU64(line, "guest_retired");
    const auto halted = getU64(line, "halted");
    const auto cycles = getU64(line, "cycles");
    const auto core = getStr(line, "timing_core");
    const auto stats = getStr(line, "stats");
    const auto statics = getStr(line, "static_modes");
    if (!retired || !halted || !cycles || !core || !stats || !statics)
        return false;
    snap.result.guestRetired = *retired;
    snap.result.halted = *halted != 0;
    snap.result.cycles = *cycles;
    snap.timingCore = *core;
    if (!pipeStatsFromHex(*stats, snap.stats))
        return false;
    const auto blob = [&](const char *key,
                          std::optional<timing::PipeStats> &dst) {
        const auto hex = getStr(line, key);
        if (!hex)
            return true;  // absent is fine
        timing::PipeStats ps;
        if (!pipeStatsFromHex(*hex, ps))
            return false;
        dst = ps;
        return true;
    };
    if (!blob("tol_only", snap.tolOnly) ||
        !blob("app_only", snap.appOnly) ||
        !blob("tol_module", snap.tolModule)) {
        return false;
    }
    if (const auto prof_hex = getStr(line, "profile")) {
        profile::RunProfile rp;
        if (!profileFromHex(*prof_hex, rp))
            return false;
        snap.profile = std::move(rp);
    }
    bool counters_ok = true;
    tol::TolStats::forEachField(snap.tolStats, [&](const char *key,
                                                   uint64_t &count) {
        const auto v = getU64(line, key);
        counters_ok = counters_ok && v.has_value();
        count = v.value_or(0);
    });
    return counters_ok && staticModesFromHex(*statics, snap.tolStats);
}

std::string
sealLine(const std::string &body)
{
    return body + strprintf(",\"csum\":\"%016llx\"}",
                            static_cast<unsigned long long>(
                                hashString(body)));
}

std::optional<std::string>
checksummedBody(const std::string &line)
{
    // Authenticate before parsing: the checksum covers every byte of
    // the body, so a torn or bit-damaged line cannot half-parse.
    const size_t csum_at = line.rfind(",\"csum\":\"");
    if (csum_at == std::string::npos)
        return std::nullopt;
    const std::string tail = line.substr(csum_at);
    const std::optional<uint64_t> csum = getHex64(tail, "csum");
    if (!csum || *csum != hashString(line.substr(0, csum_at)))
        return std::nullopt;
    return line.substr(0, csum_at);
}

} // namespace darco::runner::codec
