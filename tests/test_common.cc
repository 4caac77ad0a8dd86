/**
 * @file
 * Common-library tests: PRNG determinism and distribution sanity,
 * bit utilities, paged memory (cross-page accesses, dirty tracking),
 * table rendering, printf-style formatting, strict command-line
 * number parsing, field-list diffs, and the assembler's label fixup
 * machinery.
 */

#include <gtest/gtest.h>

#include <limits>
#include <vector>

#include "common/bitutils.hh"
#include "common/fields.hh"
#include "common/fpu.hh"
#include "common/logging.hh"
#include "common/paged_memory.hh"
#include "common/parse.hh"
#include "common/prng.hh"
#include "common/table.hh"
#include "guest/assembler.hh"
#include "guest/emulator.hh"

using namespace darco;

TEST(Prng, DeterministicAcrossInstances)
{
    Prng a(42), b(42);
    for (int i = 0; i < 1000; ++i)
        ASSERT_EQ(a.next(), b.next());
}

TEST(Prng, DifferentSeedsDiverge)
{
    Prng a(1), b(2);
    unsigned same = 0;
    for (int i = 0; i < 100; ++i) {
        if (a.next() == b.next())
            ++same;
    }
    EXPECT_EQ(same, 0u);
}

TEST(Prng, BelowStaysInRange)
{
    Prng rng(7);
    for (int i = 0; i < 10000; ++i)
        ASSERT_LT(rng.below(13), 13u);
}

TEST(Prng, BelowIsUnbiasedForNonPowerOfTwoBounds)
{
    // The unbiased bounded draw must hit every residue of a
    // non-power-of-two bound at ~uniform frequency. (The old
    // `next() % bound` construction is also near-uniform for tiny
    // bounds; the sharp check is the huge-bound one below, where
    // modulo reduction would concentrate mass on [0, 2^64 mod b).)
    Prng rng(19);
    constexpr uint64_t kBound = 13;
    constexpr int kDraws = 130000;
    unsigned counts[kBound] = {};
    for (int i = 0; i < kDraws; ++i)
        ++counts[rng.below(kBound)];
    for (uint64_t v = 0; v < kBound; ++v) {
        EXPECT_GT(counts[v], kDraws / kBound * 85 / 100) << v;
        EXPECT_LT(counts[v], kDraws / kBound * 115 / 100) << v;
    }

    // Bound just above 2^63: a modulo draw would land in
    // [0, 2^63 + 2) twice as often as in the upper half. The
    // unbiased draw splits evenly around the bound's midpoint.
    const uint64_t huge = (1ull << 63) + 2;
    unsigned upper_half = 0;
    constexpr int kHugeDraws = 10000;
    for (int i = 0; i < kHugeDraws; ++i) {
        const uint64_t v = rng.below(huge);
        ASSERT_LT(v, huge);
        if (v >= huge / 2)
            ++upper_half;
    }
    EXPECT_GT(upper_half, kHugeDraws * 45 / 100);
    EXPECT_LT(upper_half, kHugeDraws * 55 / 100);
}

TEST(Prng, RangeHandlesExtremeBounds)
{
    // range(INT64_MIN, INT64_MAX) used to compute hi - lo + 1 in
    // signed arithmetic (UB); the unsigned span wraps to 0 and must
    // mean "full 64-bit range".
    Prng rng(23);
    bool negative = false, positive = false;
    for (int i = 0; i < 1000; ++i) {
        const int64_t v = rng.range(INT64_MIN, INT64_MAX);
        negative = negative || v < 0;
        positive = positive || v > 0;
    }
    EXPECT_TRUE(negative);
    EXPECT_TRUE(positive);

    // Near-full spans exercise the wrap-around add.
    for (int i = 0; i < 1000; ++i) {
        const int64_t v = rng.range(INT64_MIN + 1, INT64_MAX - 1);
        EXPECT_GT(v, INT64_MIN);
        EXPECT_LT(v, INT64_MAX);
    }
    // Degenerate single-point range.
    EXPECT_EQ(rng.range(-7, -7), -7);
}

TEST(Prng, UniformCoversRange)
{
    Prng rng(11);
    double lo = 1.0, hi = 0.0;
    for (int i = 0; i < 10000; ++i) {
        const double u = rng.uniform();
        ASSERT_GE(u, 0.0);
        ASSERT_LT(u, 1.0);
        lo = std::min(lo, u);
        hi = std::max(hi, u);
    }
    EXPECT_LT(lo, 0.01);
    EXPECT_GT(hi, 0.99);
}

TEST(Prng, JumpMatchesStepping)
{
    for (const uint64_t n : {uint64_t{0}, uint64_t{1}, uint64_t{255},
                             uint64_t{256}, uint64_t{4099},
                             (uint64_t{1} << 20) + 3}) {
        Prng jumped(77), stepped(77);
        jumped.jump(n);
        for (uint64_t i = 0; i < n; ++i)
            stepped.next();
        for (int i = 0; i < 4; ++i)
            ASSERT_EQ(jumped.next(), stepped.next()) << "n=" << n;
    }
    // Jumps compose: a then b lands where a + b does.
    const uint64_t a = uint64_t{1} << 40;
    const uint64_t b = 123457;
    Prng twice(5), once(5);
    twice.jump(a);
    twice.jump(b);
    once.jump(a + b);
    for (int i = 0; i < 4; ++i)
        EXPECT_EQ(twice.next(), once.next());
}

TEST(Prng, PrecomputedJumpAppliedKTimesMatchesOneJump)
{
    // The lane fill computes one lane-length jump and applies it from
    // lane to lane: lane k must start where jump(k * lane) lands.
    for (const uint64_t lane : {uint64_t{8}, uint64_t{112504},
                                uint64_t{1} << 33}) {
        const Prng::Jump step(lane);
        Prng stepped(31);
        for (uint64_t k = 1; k <= 8; ++k) {
            stepped.jump(step);
            Prng direct(31);
            direct.jump(k * lane);
            Prng probe = stepped;
            for (int i = 0; i < 4; ++i) {
                ASSERT_EQ(probe.next(), direct.next())
                    << "lane=" << lane << " k=" << k;
            }
        }
    }
}

TEST(Prng, FillLowBytesMatchesNextLoop)
{
    for (const uint64_t seed : {uint64_t{1}, uint64_t{42},
                                uint64_t{0xDA7A}, ~uint64_t{0}}) {
        // Around both vector units (4 and 8 lanes of 8 bytes), and
        // lengths whose per-lane share is not a whole unit.
        for (const size_t n : {size_t{0}, size_t{1}, size_t{31},
                               size_t{32}, size_t{33}, size_t{63},
                               size_t{64}, size_t{65}, size_t{511},
                               size_t{512}, size_t{513}, size_t{4101},
                               (size_t{1} << 20) + 7,
                               (size_t{3} << 20) + 61}) {
            Prng filled(seed), looped(seed);
            std::vector<uint8_t> got(n), want(n);
            filled.fillLowBytes(got.data(), n);
            for (auto &byte : want)
                byte = static_cast<uint8_t>(looped.next());
            ASSERT_EQ(got, want) << "seed=" << seed << " n=" << n;
            for (int i = 0; i < 4; ++i)
                ASSERT_EQ(filled.next(), looped.next())
                    << "seed=" << seed << " n=" << n;
        }
    }
}

TEST(BitUtils, SextAndBits)
{
    EXPECT_EQ(sext(0xFF, 8), -1);
    EXPECT_EQ(sext(0x7F, 8), 127);
    EXPECT_EQ(sext32(0x800, 12), -2048);
    EXPECT_EQ(bits(0xDEADBEEF, 15, 8), 0xBEu);
    EXPECT_TRUE(isPowerOf2(64));
    EXPECT_FALSE(isPowerOf2(0));
    EXPECT_FALSE(isPowerOf2(96));
    EXPECT_EQ(floorLog2(1), 0u);
    EXPECT_EQ(floorLog2(64), 6u);
    EXPECT_EQ(floorLog2(65), 6u);
    EXPECT_EQ(alignUp(13, 8), 16u);
    EXPECT_EQ(alignUp(16, 8), 16u);
    EXPECT_EQ(alignDown(13, 8), 8u);
    EXPECT_EQ(popCount(0xF0F0), 8u);
}

TEST(Fpu, CanonicalizesOnlyNans)
{
    EXPECT_EQ(canonFp(1.5), 1.5);
    EXPECT_EQ(canonFp(-0.0), -0.0);
    const double nan1 = canonFp(0.0 / 0.0);
    uint64_t bits1;
    memcpy(&bits1, &nan1, 8);
    EXPECT_EQ(bits1, 0x7FF8000000000000ull);
}

TEST(PagedMemory, ReadBeforeWriteIsZero)
{
    PagedMemory<uint32_t> mem;
    EXPECT_EQ(mem.load32(0x12345678), 0u);
    EXPECT_EQ(mem.numPages(), 0u);  // reads don't allocate
}

TEST(PagedMemory, CrossPageAccess)
{
    PagedMemory<uint32_t> mem;
    const uint32_t addr = 0x1FFE;  // crosses the 0x1000/0x2000 boundary
    mem.store32(addr, 0xA1B2C3D4);
    EXPECT_EQ(mem.load32(addr), 0xA1B2C3D4u);
    EXPECT_EQ(mem.load8(0x1FFE), 0xD4u);
    EXPECT_EQ(mem.load8(0x2000), 0xB2u);
    EXPECT_EQ(mem.numPages(), 2u);
}

TEST(PagedMemory, DirtyTracking)
{
    PagedMemory<uint32_t> mem;
    mem.store8(0x5000, 1);
    mem.store8(0x9000, 2);
    (void)mem.load32(0xF000);
    EXPECT_EQ(mem.dirtyPages().size(), 2u);
    EXPECT_TRUE(mem.dirtyPages().count(0x5000));
    EXPECT_TRUE(mem.dirtyPages().count(0x9000));
    mem.clearDirty();
    EXPECT_TRUE(mem.dirtyPages().empty());
    EXPECT_EQ(mem.load8(0x5000), 1u);  // data survives
}

TEST(PagedMemory, DoubleRoundTrip)
{
    PagedMemory<uint32_t> mem;
    mem.storeDouble(0x4000, 3.141592653589793);
    EXPECT_DOUBLE_EQ(mem.loadDouble(0x4000), 3.141592653589793);
}

TEST(PagedMemory, LastPageCacheAliasing)
{
    // Addresses 4 MiB apart share a second-level table slot only if
    // the directory indexing is wrong; addresses one table apart and
    // one page apart must never alias through the last-page caches.
    PagedMemory<uint32_t> mem;
    const uint32_t a = 0x00400123;           // table 1, page 0x400
    const uint32_t b = a + (1u << 22);       // next table, same index
    const uint32_t c = a + (1u << 12);       // next page, same table
    mem.store32(a, 0xAAAAAAAA);
    mem.store32(b, 0xBBBBBBBB);
    mem.store32(c, 0xCCCCCCCC);
    // Interleave loads so the one-entry load cache keeps switching.
    for (int i = 0; i < 4; ++i) {
        EXPECT_EQ(mem.load32(a), 0xAAAAAAAAu);
        EXPECT_EQ(mem.load32(b), 0xBBBBBBBBu);
        EXPECT_EQ(mem.load32(c), 0xCCCCCCCCu);
    }
    // Interleaved stores through the one-entry store cache.
    for (int i = 0; i < 4; ++i) {
        mem.store8(a, static_cast<uint8_t>(i));
        mem.store8(b, static_cast<uint8_t>(i + 64));
    }
    EXPECT_EQ(mem.load8(a), 3u);
    EXPECT_EQ(mem.load8(b), 67u);
    EXPECT_EQ(mem.numPages(), 3u);
}

TEST(PagedMemory, PageBoundaryStraddleThroughCaches)
{
    // A straddling store after a same-page store must hit both pages,
    // not be swallowed by the cached last page.
    PagedMemory<uint32_t> mem;
    mem.store32(0x7000, 0x11111111);         // prime store cache
    mem.store32(0x7FFE, 0xA1B2C3D4);         // straddles 0x7000/0x8000
    EXPECT_EQ(mem.load8(0x7FFE), 0xD4u);
    EXPECT_EQ(mem.load8(0x7FFF), 0xC3u);
    EXPECT_EQ(mem.load8(0x8000), 0xB2u);
    EXPECT_EQ(mem.load8(0x8001), 0xA1u);
    EXPECT_EQ(mem.numPages(), 2u);
    EXPECT_TRUE(mem.dirtyPages().count(0x7000));
    EXPECT_TRUE(mem.dirtyPages().count(0x8000));
}

TEST(PagedMemory, DirtyTrackingSurvivesCachedStores)
{
    // clearDirty() must also reset the per-page dirty flags so later
    // stores (including ones through the store cache) re-dirty.
    PagedMemory<uint32_t> mem;
    mem.store32(0x5000, 1);
    mem.store32(0x5004, 2);                  // cached-page store
    EXPECT_EQ(mem.dirtyPages().size(), 1u);
    mem.clearDirty();
    EXPECT_TRUE(mem.dirtyPages().empty());
    mem.store32(0x5008, 3);                  // same page, via cache
    EXPECT_EQ(mem.dirtyPages().size(), 1u);
    EXPECT_TRUE(mem.dirtyPages().count(0x5000));
    mem.clear();
    EXPECT_EQ(mem.numPages(), 0u);
    EXPECT_EQ(mem.load32(0x5000), 0u);
    mem.store32(0x5000, 7);                  // caches were invalidated
    EXPECT_EQ(mem.load32(0x5000), 7u);
}

TEST(PagedMemory, BulkReadWrite)
{
    PagedMemory<uint32_t> mem;
    std::vector<uint8_t> data(10000);
    for (size_t i = 0; i < data.size(); ++i)
        data[i] = static_cast<uint8_t>(i * 7);
    mem.writeBytes(0x3F80, data.data(), data.size());  // spans pages
    std::vector<uint8_t> back(data.size());
    mem.readBytes(0x3F80, back.data(), back.size());
    EXPECT_EQ(data, back);
}

TEST(PagedMemory, StraddleEveryOffsetAndSizeMatchesByteModel)
{
    // Exhaustive page-boundary sweep: every access size at every
    // offset that straddles (or just touches) the boundary must agree
    // with a flat byte-array reference, for both stores and loads.
    PagedMemory<uint32_t> mem;
    constexpr uint32_t kBoundary = 0x9000;
    uint8_t model[32] = {};
    const uint32_t model_base = kBoundary - 16;

    uint64_t pattern = 0x0123456789ABCDEFull;
    for (unsigned size : {1u, 2u, 4u, 8u}) {
        for (uint32_t off = 16 - size - 1; off <= 16 + 1; ++off) {
            pattern = pattern * 0x9E3779B97F4A7C15ull + size;
            mem.store(model_base + off, pattern, size);
            for (unsigned b = 0; b < size; ++b)
                model[off + b] = uint8_t(pattern >> (8 * b));
        }
    }
    for (unsigned size : {1u, 2u, 4u, 8u}) {
        for (uint32_t off = 0; off + size <= 32; ++off) {
            uint64_t expect = 0;
            for (unsigned b = 0; b < size; ++b)
                expect |= uint64_t(model[off + b]) << (8 * b);
            ASSERT_EQ(mem.load(model_base + off, size), expect)
                << "size " << size << " offset " << off;
        }
    }
    EXPECT_EQ(mem.numPages(), 2u);
}

TEST(PagedMemory, StraddleIntoUnmappedPageReadsZero)
{
    // A straddling load whose tail page is unmapped zero-extends the
    // missing bytes and must not allocate the unmapped page.
    PagedMemory<uint32_t> mem;
    mem.store32(0x1FFC, 0xAABBCCDD);  // last word of page 0x1000
    EXPECT_EQ(mem.numPages(), 1u);
    EXPECT_EQ(mem.load64(0x1FFC), 0x00000000AABBCCDDull);
    EXPECT_EQ(mem.load(0x1FFE, 4), 0x0000AABBull);
    EXPECT_EQ(mem.numPages(), 1u);

    // The mirror case: head page unmapped, tail mapped.
    PagedMemory<uint32_t> mem2;
    mem2.store32(0x3000, 0x11223344);
    EXPECT_EQ(mem2.load64(0x2FFC), 0x1122334400000000ull);
    EXPECT_EQ(mem2.numPages(), 1u);
}

TEST(PagedMemory, BulkReadSpansUnmappedGap)
{
    // readBytes across mapped-unmapped-mapped pages: the hole reads
    // as zeroes without allocating.
    PagedMemory<uint32_t> mem;
    mem.store8(0x4FFF, 0xAA);  // page 0x4000
    mem.store8(0x6000, 0xBB);  // page 0x6000; 0x5000 stays unmapped
    std::vector<uint8_t> back(0x6001 - 0x4FFF);
    mem.readBytes(0x4FFF, back.data(), back.size());
    EXPECT_EQ(back.front(), 0xAAu);
    EXPECT_EQ(back.back(), 0xBBu);
    for (size_t i = 1; i + 1 < back.size(); ++i)
        ASSERT_EQ(back[i], 0u) << "offset " << i;
    EXPECT_EQ(mem.numPages(), 2u);
}

TEST(PagedMemory, WideAddressSpaceStraddles)
{
    // The 64-bit instantiation uses the hashed top-level directory:
    // straddles across a second-level-table boundary (4 MiB) and
    // across top-level buckets beyond 4 GiB must behave exactly like
    // the flat-directory case, including dirty tracking.
    PagedMemory<uint64_t> mem;
    const uint64_t table_edge = (1ull << 22) - 4;  // 4 MiB boundary
    mem.store64(table_edge, 0x1122334455667788ull);
    EXPECT_EQ(mem.load64(table_edge), 0x1122334455667788ull);
    EXPECT_EQ(mem.load32(1ull << 22), 0x11223344u);

    const uint64_t high = (5ull << 32) + 0xFFFFFFFEull;  // > 4 GiB
    mem.store(high, 0xBEEF, 4);  // straddles a top-level bucket
    EXPECT_EQ(mem.load(high, 4), 0xBEEFull);
    EXPECT_EQ(mem.load8(high + 1), 0xBEu);
    EXPECT_EQ(mem.numPages(), 4u);
    EXPECT_TRUE(mem.dirtyPages().count(table_edge & ~0xFFFull));
    EXPECT_TRUE(mem.dirtyPages().count(1ull << 22));
    EXPECT_TRUE(mem.dirtyPages().count(high & ~0xFFFull));
    EXPECT_TRUE(mem.dirtyPages().count((high + 4) & ~0xFFFull));
}

TEST(Strprintf, FormatsLikePrintf)
{
    EXPECT_EQ(strprintf("x=%d y=%s", 42, "abc"), "x=42 y=abc");
    EXPECT_EQ(strprintf("%08x", 0xBEEF), "0000beef");
    // Long outputs are not truncated.
    const std::string big = strprintf("%0500d", 7);
    EXPECT_EQ(big.size(), 500u);
}

namespace {

struct TwoDoubles
{
    double zero = 0.0;
    double nan = std::numeric_limits<double>::quiet_NaN();

    template <class Self, class Visit>
    static constexpr void
    forEachField(Self &self, Visit &&visit)
    {
        visit("zero", self.zero);
        visit("nan", self.nan);
    }
};

std::string
mismatchLines(const TwoDoubles &a, const TwoDoubles &b)
{
    std::string lines;
    fields::forEachMismatch(a, b, [&lines](const std::string &key,
                                           const std::string &va,
                                           const std::string &vb) {
        lines += key + ": " + va + " != " + vb + "\n";
    });
    return lines;
}

} // namespace

TEST(Fields, MismatchComparesDoublesByBitPattern)
{
    // The diff and fields::equal share one rule: -0.0 differs from
    // 0.0, and the same NaN equals itself.
    const TwoDoubles a;
    TwoDoubles b;
    EXPECT_EQ(mismatchLines(a, b), "");
    EXPECT_TRUE(fields::equal(a, b));
    b.zero = -0.0;
    EXPECT_EQ(mismatchLines(a, b), "zero: 0 != -0\n");
    EXPECT_FALSE(fields::equal(a, b));
}

TEST(Parse, UnsignedAcceptsOnlyWholeDecimals)
{
    using common::parseUnsigned;
    EXPECT_EQ(parseUnsigned<uint64_t>("1000000"), 1'000'000u);
    EXPECT_EQ(parseUnsigned<uint64_t>("0"), 0u);
    EXPECT_EQ(parseUnsigned<uint64_t>("18446744073709551615"),
              UINT64_MAX);
    // std::strtoull accepts each of these (as 1, 2, 0, 5, 2^64-1 and
    // ULLONG_MAX), so a typo would run a different experiment.
    EXPECT_FALSE(parseUnsigned<uint64_t>("1e6"));
    EXPECT_FALSE(parseUnsigned<uint64_t>("2k"));
    EXPECT_FALSE(parseUnsigned<uint64_t>(""));
    EXPECT_FALSE(parseUnsigned<uint64_t>(" 5"));
    EXPECT_FALSE(parseUnsigned<uint64_t>("-1"));
    EXPECT_FALSE(parseUnsigned<uint64_t>("18446744073709551616"));
    EXPECT_FALSE(parseUnsigned<uint64_t>("+7"));
}

TEST(Parse, UnsignedRejectsValuesPastTheTargetType)
{
    using common::parseUnsigned;
    EXPECT_EQ(parseUnsigned<unsigned>("4294967295"), 4294967295u);
    // A narrowing cast of std::strtoul would wrap this to 0.
    EXPECT_FALSE(parseUnsigned<unsigned>("4294967296"));
    EXPECT_FALSE(parseUnsigned<uint32_t>("99999999999"));
}

TEST(Parse, ShardNeedsIndexBelowCount)
{
    using common::parseShard;
    EXPECT_EQ(parseShard("0/3"), std::make_pair(0u, 3u));
    EXPECT_EQ(parseShard("2/3"), std::make_pair(2u, 3u));
    EXPECT_FALSE(parseShard("3/3"));
    EXPECT_FALSE(parseShard("0/0"));
    EXPECT_FALSE(parseShard("1"));
    // Parsing K and N with std::strtoul reads these as 0/3 and 1/3.
    EXPECT_FALSE(parseShard("/3"));
    EXPECT_FALSE(parseShard("1/3x"));
    EXPECT_FALSE(parseShard("1/"));
    EXPECT_FALSE(parseShard("1/3/5"));
}

TEST(Table, RendersAlignedAndCsv)
{
    Table t({"name", "value"});
    t.beginRow();
    t.add("alpha");
    t.addf("%d", 1);
    t.beginRow();
    t.add("long-name-here");
    t.addf("%.2f", 2.5);
    EXPECT_EQ(t.numRows(), 2u);

    // Render into a pipe-backed FILE to check content.
    char buf[4096] = {};
    FILE *f = tmpfile();
    ASSERT_NE(f, nullptr);
    t.renderCsv(f);
    rewind(f);
    const size_t n = fread(buf, 1, sizeof(buf) - 1, f);
    fclose(f);
    const std::string csv(buf, n);
    EXPECT_NE(csv.find("name,value"), std::string::npos);
    EXPECT_NE(csv.find("long-name-here,2.50"), std::string::npos);
}

// ----- assembler fixups -------------------------------------------------

namespace dg = darco::guest;

TEST(Assembler, BackwardBranchUsesShortForm)
{
    dg::Assembler as;
    auto loop = as.newLabel();
    as.bind(loop);
    as.nop();
    const uint32_t before = as.offset();
    as.jmp(loop);
    const uint32_t len = as.offset() - before;
    EXPECT_EQ(len, 4u);  // short form: op + form + regs + rel8
}

TEST(Assembler, ForwardBranchReservesWideForm)
{
    dg::Assembler as;
    auto fwd = as.newLabel();
    const uint32_t before = as.offset();
    as.jmp(fwd);
    const uint32_t len = as.offset() - before;
    EXPECT_EQ(len, 7u);  // wide: op + form + regs + rel32
    as.bind(fwd);
    as.halt();
    const auto code = as.finalize(0x1000);

    // Decode and verify the displacement points at the HALT.
    dg::Inst inst;
    ASSERT_EQ(dg::decode(code.data(), code.size(), inst),
              dg::DecodeStatus::Ok);
    EXPECT_EQ(inst.op, dg::Op::JMP);
    EXPECT_EQ(static_cast<uint32_t>(0x1000 + inst.length + inst.imm),
              as.labelAddr(fwd));
}

TEST(Assembler, FarBackwardBranchFallsBackToWide)
{
    dg::Assembler as;
    auto far = as.newLabel();
    as.bind(far);
    for (int i = 0; i < 100; ++i)
        as.nop();  // 200 bytes: rel8 cannot reach
    const uint32_t before = as.offset();
    as.jmp(far);
    EXPECT_EQ(as.offset() - before, 7u);

    // And it must still execute correctly.
    as.halt();  // unreachable
    dg::Program prog;
    prog.code = as.finalize(prog.codeBase);
    prog.entry = prog.codeBase + 200;  // start at the jump
    dg::Memory mem;
    dg::Emulator emu(mem);
    emu.reset(prog);
    emu.run(2);  // the jump plus the first nop
    EXPECT_EQ(emu.state().eip, prog.codeBase + 2);
}

TEST(Assembler, MovLabelResolvesAbsoluteAddress)
{
    dg::Assembler as;
    auto fn = as.newLabel();
    as.movLabel(dg::EAX, fn);
    as.halt();
    as.bind(fn);
    as.nop();
    dg::Program prog;
    prog.code = as.finalize(prog.codeBase);
    prog.entry = prog.codeBase;
    dg::Memory mem;
    dg::Emulator emu(mem);
    emu.reset(prog);
    emu.run(10);
    EXPECT_EQ(emu.state().gpr[dg::EAX], as.labelAddr(fn));
}

TEST(Assembler, CountStaticInstsMatchesEmitted)
{
    dg::Assembler as;
    for (int i = 0; i < 25; ++i)
        as.add(dg::EAX, i);
    as.halt();
    dg::Program prog;
    prog.code = as.finalize(prog.codeBase);
    EXPECT_EQ(prog.countStaticInsts(), 26u);
    EXPECT_EQ(as.numInsts(), 26u);
}
