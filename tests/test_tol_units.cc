/**
 * @file
 * TOL component unit tests: translation map (memory-resident open
 * addressing), IBTC, profiler, cost-model streams, code store, and
 * runtime-level behaviours (chaining, promotion forwarding, code
 * cache flush, context transitions), and the static mode counters.
 */

#include <gtest/gtest.h>

#include "guest/assembler.hh"
#include "sim/system.hh"
#include "tol/cost_model.hh"
#include "tol/guest_reader.hh"
#include "tol/ibtc.hh"
#include "tol/profile.hh"
#include "tol/runtime.hh"
#include "tol/stats.hh"
#include "tol/trans_map.hh"

using namespace darco;
namespace g = darco::guest;

namespace {

class CountingSink : public timing::RecordSink
{
  public:
    void
    consume(const timing::Record &rec) override
    {
        ++records;
        if (rec.isLoad)
            ++loads;
        if (rec.isStore)
            ++stores;
        if (rec.isBranch)
            ++branches;
        if (rec.isLoad || rec.isStore)
            lastAddr = rec.memAddr;
    }

    uint64_t records = 0;
    uint64_t loads = 0;
    uint64_t stores = 0;
    uint64_t branches = 0;
    uint32_t lastAddr = 0;
};

struct TolFixture
{
    tol::TolConfig cfg;
    host::Memory mem;
    CountingSink sink;
    timing::RecordBatcher batcher{sink};
    tol::CostModel cost{batcher};
};

} // namespace

TEST(TransMap, InsertLookupRoundTrip)
{
    TolFixture f;
    tol::TransMap map(f.cfg, f.mem);

    EXPECT_EQ(map.lookup(0x8048000, f.cost.lookup), 0u);
    map.insert(0x8048000, 0xC8000010, f.cost.lookup);
    EXPECT_EQ(map.lookup(0x8048000, f.cost.lookup), 0xC8000010u);
    EXPECT_EQ(map.numEntries(), 1u);

    // Replacement (BB -> SB) keeps one entry.
    map.insert(0x8048000, 0xC8000400, f.cost.lookup);
    EXPECT_EQ(map.lookup(0x8048000, f.cost.lookup), 0xC8000400u);
    EXPECT_EQ(map.numEntries(), 1u);
}

TEST(TransMap, HandlesCollisionsByProbing)
{
    TolFixture f;
    tol::TransMap map(f.cfg, f.mem);
    // Insert many entries; all must remain findable.
    for (uint32_t i = 0; i < 2000; ++i)
        map.insert(0x8048000 + i * 12, 0xC8000000 + i * 16,
                   f.cost.lookup);
    for (uint32_t i = 0; i < 2000; ++i) {
        ASSERT_EQ(map.lookup(0x8048000 + i * 12, f.cost.lookup),
                  0xC8000000 + i * 16);
    }
}

TEST(TransMap, ClearDropsEverything)
{
    TolFixture f;
    tol::TransMap map(f.cfg, f.mem);
    for (uint32_t i = 0; i < 100; ++i)
        map.insert(0x8048000 + i * 8, 0xC8000000 + i * 16,
                   f.cost.lookup);
    map.clear(f.cost.other);
    EXPECT_EQ(map.numEntries(), 0u);
    for (uint32_t i = 0; i < 100; ++i)
        EXPECT_EQ(map.lookup(0x8048000 + i * 8, f.cost.lookup), 0u);
}

TEST(TransMap, EmitsProbeLoadsAtBucketAddresses)
{
    TolFixture f;
    tol::TransMap map(f.cfg, f.mem);
    const uint64_t loads_before = f.sink.loads;
    map.lookup(0x8048000, f.cost.lookup);
    f.batcher.flush();
    EXPECT_GT(f.sink.loads, loads_before);
    EXPECT_GE(f.sink.lastAddr, host::amap::kTransMapBase);
}

TEST(Ibtc, FillMakesInlineProbeDataVisible)
{
    TolFixture f;
    tol::Ibtc ibtc(f.cfg, f.mem);
    const uint32_t target = 0x8049123;
    ibtc.fill(target, 0xC8001000, f.cost.lookup);

    // The inline probe reads these exact simulated words.
    const uint32_t entry = ibtc.setAddr(target);
    EXPECT_EQ(f.mem.load32(entry), target);
    EXPECT_EQ(f.mem.load32(entry + 4), 0xC8001000u);
}

TEST(Ibtc, DirectMappedConflictOverwrites)
{
    TolFixture f;
    tol::Ibtc ibtc(f.cfg, f.mem);
    const uint32_t a = 0x8048000;
    const uint32_t b = a + f.cfg.ibtcEntries * 8;  // same index
    ASSERT_EQ(ibtc.indexOf(a), ibtc.indexOf(b));
    ibtc.fill(a, 0xC8000100, f.cost.lookup);
    ibtc.fill(b, 0xC8000200, f.cost.lookup);
    EXPECT_EQ(f.mem.load32(ibtc.setAddr(a)), b);
}

TEST(Ibtc, ClearInvalidatesTags)
{
    TolFixture f;
    tol::Ibtc ibtc(f.cfg, f.mem);
    ibtc.fill(0x8048000, 0xC8000100, f.cost.lookup);
    ibtc.clear(f.cost.other);
    EXPECT_EQ(f.mem.load32(ibtc.setAddr(0x8048000)), 0u);
}

TEST(Ibtc, TwoWayKeepsBothConflictingTargets)
{
    TolFixture f;
    f.cfg.ibtcWays = 2;
    tol::Ibtc ibtc(f.cfg, f.mem);
    const uint32_t a = 0x8048000;
    const uint32_t b = a + ibtc.numSets() * 4;  // same set index
    ASSERT_EQ(ibtc.indexOf(a), ibtc.indexOf(b));

    ibtc.fill(a, 0xC8000100, f.cost.lookup);
    ibtc.fill(b, 0xC8000200, f.cost.lookup);

    // MRU insertion: b in way 0, a demoted to way 1 — both present.
    const uint32_t set = ibtc.setAddr(a);
    EXPECT_EQ(f.mem.load32(set + 0), b);
    EXPECT_EQ(f.mem.load32(set + 4), 0xC8000200u);
    EXPECT_EQ(f.mem.load32(set + 8), a);
    EXPECT_EQ(f.mem.load32(set + 12), 0xC8000100u);
}

TEST(Ibtc, TwoWayRefillPromotesWithoutDuplicates)
{
    TolFixture f;
    f.cfg.ibtcWays = 2;
    tol::Ibtc ibtc(f.cfg, f.mem);
    const uint32_t a = 0x8048000;
    const uint32_t b = a + ibtc.numSets() * 4;
    ibtc.fill(a, 0xC8000100, f.cost.lookup);
    ibtc.fill(b, 0xC8000200, f.cost.lookup);
    ibtc.fill(a, 0xC8000100, f.cost.lookup);  // promote a again
    const uint32_t set = ibtc.setAddr(a);
    EXPECT_EQ(f.mem.load32(set + 0), a);
    // No duplicate of `a` may remain in way 1.
    EXPECT_NE(f.mem.load32(set + 8), a);
}

TEST(Profiler, ImCountersArePrecise)
{
    TolFixture f;
    tol::Profiler prof(f.cfg, f.mem);
    for (int i = 0; i < 7; ++i)
        prof.bumpImTarget(0x8048000, f.cost.im);
    prof.bumpImTarget(0x8049000, f.cost.im);
    EXPECT_EQ(prof.imCount(0x8048000), 7u);
    EXPECT_EQ(prof.imCount(0x8049000), 1u);
    EXPECT_EQ(prof.imCount(0x804A000), 0u);
    prof.clearImCounters();
    EXPECT_EQ(prof.imCount(0x8048000), 0u);
}

TEST(Profiler, BbBlocksAreDistinctAndZeroed)
{
    TolFixture f;
    tol::Profiler prof(f.cfg, f.mem);
    const uint32_t a = prof.allocBbBlock();
    const uint32_t b = prof.allocBbBlock();
    EXPECT_NE(a, b);
    EXPECT_EQ(b - a, tol::BbProfileBlock::kSize);
    EXPECT_EQ(f.mem.load32(a), 0u);

    // Executor-style update is visible through readWord.
    f.mem.store32(a + tol::BbProfileBlock::kTakenOffset, 42);
    EXPECT_EQ(prof.readWord(a + tol::BbProfileBlock::kTakenOffset,
                            f.cost.sbm), 42u);
}

TEST(CostModel, StreamsEmitTaggedRecords)
{
    TolFixture f;
    f.cost.im.alu(3);
    f.cost.bbm.load(0x1000);
    f.cost.sbm.store(0x2000);
    f.cost.lookup.branch(true);
    f.cost.other.dispatch(5);
    f.batcher.flush();
    EXPECT_EQ(f.sink.records, 7u);
    EXPECT_EQ(f.sink.loads, 1u);
    EXPECT_EQ(f.sink.stores, 1u);
    EXPECT_EQ(f.sink.branches, 2u);  // branch + dispatch
}

TEST(CostModel, RoutineEntryGivesStablePcs)
{
    TolFixture f;

    class PcSink : public timing::RecordSink
    {
      public:
        void
        consume(const timing::Record &rec) override
        {
            pcs.push_back(rec.pc);
        }
        std::vector<uint32_t> pcs;
    };

    PcSink pc_sink;
    timing::RecordBatcher batcher(pc_sink);
    tol::CostModel cm(batcher);
    cm.lookup.routine(0);
    cm.lookup.alu(4);
    batcher.flush();
    const auto first = pc_sink.pcs;
    pc_sink.pcs.clear();
    cm.lookup.routine(0);
    cm.lookup.alu(4);
    batcher.flush();
    EXPECT_EQ(first.size(), 4u);
    EXPECT_EQ(first, pc_sink.pcs);  // loop-like: identical PCs
}

// ----- code store -----------------------------------------------------------

TEST(CodeStore, InstallAssignsDisjointRanges)
{
    host::CodeStore store(0xC8000000, 0xC8010000);
    auto mk_region = [](unsigned n) {
        auto region = std::make_unique<host::CodeRegion>();
        region->insts.resize(n);
        return region;
    };
    host::CodeRegion *a = store.install(mk_region(10));
    host::CodeRegion *b = store.install(mk_region(20));
    ASSERT_NE(a, nullptr);
    ASSERT_NE(b, nullptr);
    EXPECT_GE(b->hostBase, a->hostLimit());
    EXPECT_EQ(store.find(a->hostBase + 4), a);
    EXPECT_EQ(store.find(b->hostBase), b);
    EXPECT_EQ(store.find(0xC9000000), nullptr);
}

TEST(CodeStore, InstallRebasesIndexTargets)
{
    host::CodeStore store(0xC8000000, 0xC8010000);
    auto region = std::make_unique<host::CodeRegion>();
    region->insts.resize(4);
    region->insts[0].op = host::HOp::JAL;
    region->insts[0].imm = 3;  // index of inst 3
    region->insts[0].targetIsIndex = true;
    host::CodeRegion *installed = store.install(std::move(region));
    ASSERT_NE(installed, nullptr);
    EXPECT_FALSE(installed->insts[0].targetIsIndex);
    EXPECT_EQ(installed->insts[0].imm,
              static_cast<int64_t>(installed->hostBase + 12));
}

TEST(CodeStore, RejectsWhenFullAndFlushRecovers)
{
    host::CodeStore store(0xC8000000, 0xC8000100);  // 256 bytes
    auto big = std::make_unique<host::CodeRegion>();
    big->insts.resize(32);  // 128 bytes
    ASSERT_NE(store.install(std::move(big)), nullptr);
    auto big2 = std::make_unique<host::CodeRegion>();
    big2->insts.resize(40);  // 160 bytes: doesn't fit
    EXPECT_EQ(store.install(std::move(big2)), nullptr);
    store.flush();
    EXPECT_EQ(store.numRegions(), 0u);
    auto big3 = std::make_unique<host::CodeRegion>();
    big3->insts.resize(40);
    EXPECT_NE(store.install(std::move(big3)), nullptr);
    EXPECT_EQ(store.generation(), 1u);
}

// ----- runtime-level behaviours -------------------------------------------

namespace {

sim::SimConfig
smallConfig()
{
    sim::SimConfig cfg;
    cfg.cosim = true;
    cfg.cosimStrict = true;
    cfg.guestBudget = 3'000'000;
    cfg.tol.imToBbThreshold = 3;
    cfg.tol.bbToSbThreshold = 40;
    return cfg;
}

g::Program
hotLoopProgram(uint32_t iters)
{
    g::Assembler as;
    as.mov(g::EAX, 0);
    as.mov(g::ECX, static_cast<int32_t>(iters));
    auto loop = as.newLabel();
    as.bind(loop);
    as.add(g::EAX, g::ECX);
    as.dec(g::ECX);
    as.jcc(g::Cond::NE, loop);
    as.halt();
    g::Program prog;
    prog.code = as.finalize(prog.codeBase);
    prog.entry = prog.codeBase;
    return prog;
}

} // namespace

TEST(TolRuntime, ChainingEliminatesDispatchLoops)
{
    sim::SimConfig with = smallConfig();
    sim::SimConfig without = smallConfig();
    without.tol.enableChaining = false;

    sim::System a(with);
    a.load(hotLoopProgram(3000));
    a.run();
    sim::System b(without);
    b.load(hotLoopProgram(3000));
    b.run();

    // Without chaining, every loop iteration round-trips the runtime.
    EXPECT_GT(b.tolStats().dispatchLoops,
              10 * a.tolStats().dispatchLoops);
    EXPECT_GT(a.tolStats().chainsPatched, 0u);
    EXPECT_EQ(b.tolStats().chainsPatched, 0u);
    // Both still compute the same thing (cosim was strict).
    EXPECT_EQ(a.guestState().gpr[g::EAX], b.guestState().gpr[g::EAX]);
}

TEST(TolRuntime, PromotionForwardsOldBbEntry)
{
    sim::System sys(smallConfig());
    sys.load(hotLoopProgram(5000));
    sys.run();
    const auto &ts = sys.tolStats();
    EXPECT_GE(ts.promotions, 1u);
    EXPECT_GE(ts.entryForwards, 1u);
    EXPECT_GE(ts.sbsCreated, 1u);
}

TEST(TolRuntime, CodeCacheFlushRecovery)
{
    // A tiny code cache forces flushes; execution must stay correct
    // (strict cosim) and count the flushes.
    sim::SimConfig cfg = smallConfig();
    cfg.tol.codeCacheBytes = 8 * 1024;
    cfg.guestBudget = 400'000;

    // Program with many distinct blocks (forces cache pressure).
    g::Assembler as;
    as.mov(g::EBP, 40);
    auto outer = as.newLabel();
    as.bind(outer);
    for (int blk = 0; blk < 100; ++blk) {
        as.mov(g::EAX, blk);
        as.add(g::EAX, g::EBX);
        as.xor_(g::EBX, g::EAX);
        auto skip = as.newLabel();
        as.cmp(g::EAX, -1);
        as.jcc(g::Cond::E, skip);
        as.bind(skip);
    }
    as.dec(g::EBP);
    as.jcc(g::Cond::NE, outer);
    as.halt();
    g::Program prog;
    prog.code = as.finalize(prog.codeBase);
    prog.entry = prog.codeBase;

    sim::System sys(cfg);
    sys.load(prog);
    const auto res = sys.run();
    EXPECT_TRUE(res.halted);
    EXPECT_GT(sys.tolStats().codeCacheFlushes, 0u);
    EXPECT_TRUE(res.memoryDiff.empty()) << res.memoryDiff;
}

TEST(StaticModeTracker, DigestTellsWhichEipsReachedEachMode)
{
    // Same per-mode totals, EIPs swapped between IM and SBM: equal
    // counts, different digests, one staticModeHash line.
    const auto summarize =
        [](std::initializer_list<std::pair<uint32_t, tol::Mode>> notes) {
        tol::StaticModeTracker tracker;
        for (const auto &[eip, mode] : notes)
            tracker.note(eip, mode);
        tol::TolStats stats;
        tracker.summarizeInto(stats);
        return stats;
    };
    using tol::Mode;
    const tol::TolStats a =
        summarize({{0x1000, Mode::IM}, {0x1004, Mode::SBM}});
    const tol::TolStats b =
        summarize({{0x1000, Mode::SBM}, {0x1004, Mode::IM}});
    EXPECT_EQ(a.staticIm, 1u);
    EXPECT_EQ(a.staticBbm, 0u);
    EXPECT_EQ(a.staticSbm, 1u);
    EXPECT_EQ(b.staticIm, a.staticIm);
    EXPECT_EQ(b.staticBbm, a.staticBbm);
    EXPECT_EQ(b.staticSbm, a.staticSbm);
    EXPECT_NE(a.staticModeHash, b.staticModeHash);
    EXPECT_EQ(tol::diffTolStats(a, a), "");
    EXPECT_EQ(tol::diffTolStats(a, b),
              "  staticModeHash: " + std::to_string(a.staticModeHash) +
                  " != " + std::to_string(b.staticModeHash) + "\n");

    // The same pairs noted in another order, with a lower mode noted
    // after a higher one, summarize identically.
    const tol::TolStats c = summarize(
        {{0x1004, Mode::SBM}, {0x1000, Mode::IM}, {0x1004, Mode::BBM}});
    EXPECT_EQ(tol::diffTolStats(a, c), "");
}

TEST(TolRuntime, ContextTransitionsCounted)
{
    sim::System sys(smallConfig());
    sys.load(hotLoopProgram(2000));
    sys.run();
    // IM ran first (fills ctx), then translated execution (fills
    // registers): at least one of each transition.
    EXPECT_GE(sys.tolStats().contextFills, 1u);
    EXPECT_GE(sys.tolStats().contextSpills, 1u);
}

TEST(TolRuntime, TwoWayIbtcCorrectUnderCosim)
{
    // The emitted two-way probe is functionally executed; strict
    // cosim verifies it end to end on an indirect-heavy program.
    sim::SimConfig cfg = smallConfig();
    cfg.tol.ibtcWays = 2;

    g::Assembler as;
    auto fn1 = as.newLabel();
    auto fn2 = as.newLabel();
    auto loop = as.newLabel();
    as.mov(g::EAX, 0);
    as.mov(g::ECX, 400);
    as.bind(loop);
    as.mov(g::EDX, g::ECX);
    as.and_(g::EDX, 1);
    auto use2 = as.newLabel();
    auto cont = as.newLabel();
    as.jcc(g::Cond::NE, use2);
    as.call(fn1);
    as.jmp(cont);
    as.bind(use2);
    as.call(fn2);
    as.bind(cont);
    as.dec(g::ECX);
    as.jcc(g::Cond::NE, loop);
    as.halt();
    as.bind(fn1);
    as.add(g::EAX, 1);
    as.ret();
    as.bind(fn2);
    as.add(g::EAX, 100);
    as.ret();
    g::Program prog;
    prog.code = as.finalize(prog.codeBase);
    prog.entry = prog.codeBase;

    sim::System sys(cfg);
    sys.load(prog);
    const auto res = sys.run();
    EXPECT_TRUE(res.halted);
    EXPECT_EQ(sys.guestState().gpr[g::EAX], 200u * 1 + 200u * 100);
    EXPECT_TRUE(res.memoryDiff.empty()) << res.memoryDiff;
}

TEST(CodeStore, SuperblockPartitionSeparatesKinds)
{
    host::CodeStore store(0xC8000000, 0xC8010000);
    store.partitionForSuperblocks(50);
    auto mk_region = [](host::RegionKind kind) {
        auto region = std::make_unique<host::CodeRegion>();
        region->kind = kind;
        region->insts.resize(8);
        return region;
    };
    host::CodeRegion *bb =
        store.install(mk_region(host::RegionKind::BasicBlock));
    host::CodeRegion *sb =
        store.install(mk_region(host::RegionKind::Superblock));
    ASSERT_NE(bb, nullptr);
    ASSERT_NE(sb, nullptr);
    EXPECT_LT(bb->hostBase, 0xC8008000u);   // cold half
    EXPECT_GE(sb->hostBase, 0xC8008000u);   // hot half
    EXPECT_EQ(store.find(bb->hostBase), bb);
    EXPECT_EQ(store.find(sb->hostBase), sb);
    store.flush();
    host::CodeRegion *sb2 =
        store.install(mk_region(host::RegionKind::Superblock));
    EXPECT_GE(sb2->hostBase, 0xC8008000u);  // partition survives flush
}

TEST(TolRuntime, SbPartitionCorrectUnderCosim)
{
    sim::SimConfig cfg = smallConfig();
    cfg.tol.sbPartitionPercent = 50;
    sim::System sys(cfg);
    sys.load(hotLoopProgram(4000));
    const auto res = sys.run();
    EXPECT_TRUE(res.halted);
    EXPECT_GE(sys.tolStats().sbsCreated, 1u);
    EXPECT_TRUE(res.memoryDiff.empty()) << res.memoryDiff;
}

TEST(TolRuntime, IbtcDisabledStillCorrect)
{
    sim::SimConfig cfg = smallConfig();
    cfg.tol.enableIbtc = false;

    g::Assembler as;
    auto fn = as.newLabel();
    auto loop = as.newLabel();
    as.mov(g::EAX, 0);
    as.mov(g::ECX, 500);
    as.bind(loop);
    as.call(fn);
    as.dec(g::ECX);
    as.jcc(g::Cond::NE, loop);
    as.halt();
    as.bind(fn);
    as.add(g::EAX, 3);
    as.ret();
    g::Program prog;
    prog.code = as.finalize(prog.codeBase);
    prog.entry = prog.codeBase;

    sim::System sys(cfg);
    sys.load(prog);
    const auto res = sys.run();
    EXPECT_TRUE(res.halted);
    EXPECT_EQ(sys.guestState().gpr[g::EAX], 1500u);
    EXPECT_EQ(sys.tolStats().ibtcFills, 0u);
}

// ---------------------------------------------------------------------
// GuestCodeReader: the decode cache in front of the stable backing
// map (fast-slot collisions, invalidation, reference stability).
// ---------------------------------------------------------------------

namespace {

/** Write one assembled instruction sequence at @p addr. */
uint32_t
emitAt(host::Memory &mem, uint32_t addr,
       void (*build)(g::Assembler &))
{
    g::Assembler as;
    build(as);
    const std::vector<uint8_t> bytes = as.finalize(addr);
    mem.writeBytes(addr, bytes.data(), bytes.size());
    return addr;
}

} // namespace

TEST(GuestCodeReader, DirectMappedCollisionsStayCorrect)
{
    // Two eips 1<<12 apart share a fast-cache slot (the front cache
    // indexes with the low 12 bits); alternating queries must keep
    // returning the right decode, served from the stable backing map.
    host::Memory mem;
    const uint32_t base = g::Program::layoutCodeBase();
    const uint32_t a =
        emitAt(mem, base, [](g::Assembler &as) { as.add(g::EAX, 1); });
    const uint32_t b = emitAt(mem, base + (1u << 12),
                              [](g::Assembler &as) { as.halt(); });

    tol::GuestCodeReader reader(mem);
    const tol::DecodedInst &first = reader.decoded(a);
    EXPECT_EQ(first.inst.op, g::Op::ADD);
    ASSERT_NE(first.info, nullptr);
    for (int round = 0; round < 4; ++round) {
        const tol::DecodedInst &da = reader.decoded(a);
        const tol::DecodedInst &db = reader.decoded(b);
        EXPECT_EQ(da.inst.op, g::Op::ADD);
        EXPECT_EQ(db.inst.op, g::Op::HALT);
        // Backing entries are address-stable for the reader's
        // lifetime, collisions or not.
        EXPECT_EQ(&da, &first);
        EXPECT_EQ(&reader.at(a), &first.inst);
    }
}

TEST(GuestCodeReader, FlushDrivenInvalidationEndToEnd)
{
    // Force repeated code-cache flushes under strict co-simulation.
    // The decode cache outlives every flush (guest code is immutable),
    // and each post-flush re-translation must stay architecturally
    // identical to the authoritative emulator.
    sim::SimConfig cfg;
    cfg.cosim = true;
    cfg.guestBudget = 600'000;
    cfg.tol.imToBbThreshold = 2;
    cfg.tol.bbToSbThreshold = 40;
    cfg.tol.codeCacheBytes = 4 * 1024;

    g::Assembler as;
    as.mov(g::EBP, 60);
    as.mov(g::EDI, 0);
    auto outer = as.newLabel();
    as.bind(outer);
    for (int blk = 0; blk < 120; ++blk) {
        as.add(g::EDI, blk + 1);
        as.xor_(g::EDI, 0x3C);
        auto skip = as.newLabel();
        as.cmp(g::EDI, -1);
        as.jcc(g::Cond::E, skip);
        as.bind(skip);
    }
    as.dec(g::EBP);
    as.jcc(g::Cond::NE, outer);
    as.halt();
    g::Program prog;
    prog.code = as.finalize(prog.codeBase);
    prog.entry = prog.codeBase;

    sim::System sys(cfg);
    sys.load(prog);
    const auto res = sys.run();
    EXPECT_TRUE(res.halted);
    EXPECT_GE(sys.tolStats().codeCacheFlushes, 2u);
    EXPECT_TRUE(res.memoryDiff.empty()) << res.memoryDiff;
}
