/**
 * @file
 * End-to-end system tests under co-simulation: small guest programs
 * run through the full TOL stack (interpret -> BB translate -> chain
 * -> superblock optimize) with every architectural commit checked
 * against the authoritative x86 component. SystemEquivalence checks
 * the invariant intra-batch pipe fusion rests on: the isolation
 * pipelines observe the functional pass without changing it.
 * GoldenDigests pins the simulated outputs of every paper workload,
 * and of six engine scenarios across the execution regimes, to
 * committed values.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <iterator>
#include <string>
#include <vector>

#include "common/logging.hh"
#include "guest/assembler.hh"
#include "runner/snapshot_codec.hh"
#include "sim/metrics.hh"
#include "sim/system.hh"
#include "tol/stats.hh"
#include "workloads/params.hh"
#include "workloads/source.hh"

namespace dg = darco::guest;
using darco::sim::SimConfig;
using darco::sim::System;
using darco::sim::SystemResult;
using dg::Assembler;
using dg::mem;

namespace {

SimConfig
testConfig()
{
    SimConfig cfg;
    cfg.cosim = true;
    cfg.cosimStrict = true;
    cfg.guestBudget = 5'000'000;
    // Small thresholds so tiny tests exercise all three modes.
    cfg.tol.imToBbThreshold = 3;
    cfg.tol.bbToSbThreshold = 50;
    return cfg;
}

dg::Program
finish(Assembler &as,
       std::vector<dg::Program::DataSegment> data = {})
{
    dg::Program prog;
    prog.code = as.finalize(prog.codeBase);
    prog.entry = prog.codeBase;
    prog.data = std::move(data);
    return prog;
}

} // namespace

TEST(SystemE2E, StraightLineHalts)
{
    Assembler as;
    as.mov(dg::EAX, 7);
    as.add(dg::EAX, 35);
    as.halt();

    System sys(testConfig());
    sys.load(finish(as));
    const SystemResult res = sys.run();
    EXPECT_TRUE(res.halted);
    EXPECT_EQ(sys.guestState().gpr[dg::EAX], 42u);
    EXPECT_TRUE(res.memoryDiff.empty()) << res.memoryDiff;
}

TEST(SystemE2E, HotLoopReachesSuperblockMode)
{
    // A loop hot enough to cross both promotion thresholds.
    Assembler as;
    as.mov(dg::EAX, 0);
    as.mov(dg::ECX, 2000);
    auto loop = as.newLabel();
    as.bind(loop);
    as.add(dg::EAX, dg::ECX);
    as.dec(dg::ECX);
    as.jcc(dg::Cond::NE, loop);
    as.halt();

    System sys(testConfig());
    sys.load(finish(as));
    const SystemResult res = sys.run();
    EXPECT_TRUE(res.halted);
    EXPECT_EQ(sys.guestState().gpr[dg::EAX], 2000u * 2001u / 2u);
    EXPECT_TRUE(res.memoryDiff.empty()) << res.memoryDiff;

    const auto &ts = sys.tolStats();
    EXPECT_GT(ts.dynIm, 0u);
    EXPECT_GT(ts.dynBbm, 0u);
    EXPECT_GT(ts.dynSbm, 0u) << "loop never reached SBM";
    EXPECT_GE(ts.sbsCreated, 1u);
    // The vast majority of dynamic instructions must come from the
    // superblock (the paper's Figure 5b shape).
    EXPECT_GT(static_cast<double>(ts.dynSbm) /
              static_cast<double>(ts.dynTotal()), 0.8);
}

TEST(SystemE2E, MemoryLoopMatchesAuthoritativeMemory)
{
    const uint32_t base = dg::layout::kDataBase;
    Assembler as;
    as.mov(dg::EDI, static_cast<int32_t>(base));
    as.mov(dg::ECX, 0);
    auto loop = as.newLabel();
    as.bind(loop);
    as.mov(mem(dg::EDI, dg::ECX, 2), dg::ECX);  // a[i] = i
    as.inc(dg::ECX);
    as.cmp(dg::ECX, 500);
    as.jcc(dg::Cond::NE, loop);
    as.halt();

    System sys(testConfig());
    sys.load(finish(as));
    const SystemResult res = sys.run();
    EXPECT_TRUE(res.halted);
    EXPECT_TRUE(res.memoryDiff.empty()) << res.memoryDiff;
    EXPECT_EQ(sys.hostMemory().load32(base + 4 * 123), 123u);
}

TEST(SystemE2E, CallsAndReturnsThroughIbtc)
{
    Assembler as;
    auto fn = as.newLabel();
    auto loop = as.newLabel();
    as.mov(dg::EAX, 0);
    as.mov(dg::ECX, 300);
    as.bind(loop);
    as.call(fn);
    as.dec(dg::ECX);
    as.jcc(dg::Cond::NE, loop);
    as.halt();
    as.bind(fn);
    as.add(dg::EAX, 2);
    as.ret();

    System sys(testConfig());
    sys.load(finish(as));
    const SystemResult res = sys.run();
    EXPECT_TRUE(res.halted);
    EXPECT_EQ(sys.guestState().gpr[dg::EAX], 600u);
    EXPECT_TRUE(res.memoryDiff.empty()) << res.memoryDiff;
    EXPECT_GT(sys.tolStats().guestIndirectBranches, 0u);
}

TEST(SystemE2E, IndirectJumpTable)
{
    Assembler as;
    auto loop = as.newLabel();
    auto case0 = as.newLabel();
    auto case1 = as.newLabel();
    auto join = as.newLabel();

    as.mov(dg::EAX, 0);
    as.mov(dg::ECX, 400);
    as.mov(dg::EBX, static_cast<int32_t>(dg::layout::kDataBase));
    as.bind(loop);
    as.mov(dg::EDX, dg::ECX);
    as.and_(dg::EDX, 1);
    as.jmpi(mem(dg::EBX, dg::EDX, 2));
    as.bind(case0);
    as.add(dg::EAX, 3);
    as.jmp(join);
    as.bind(case1);
    as.add(dg::EAX, 5);
    as.bind(join);
    as.dec(dg::ECX);
    as.jcc(dg::Cond::NE, loop);
    as.halt();

    dg::Program prog;
    prog.code = as.finalize(prog.codeBase);
    prog.entry = prog.codeBase;
    std::vector<uint8_t> table(8);
    const uint32_t targets[2] = {as.labelAddr(case0),
                                 as.labelAddr(case1)};
    memcpy(table.data(), targets, 8);
    prog.data.push_back({dg::layout::kDataBase, table});

    System sys(testConfig());
    sys.load(prog);
    const SystemResult res = sys.run();
    EXPECT_TRUE(res.halted);
    // 200 even iterations (+3), 200 odd iterations (+5).
    EXPECT_EQ(sys.guestState().gpr[dg::EAX], 200u * 3 + 200u * 5);
    EXPECT_TRUE(res.memoryDiff.empty()) << res.memoryDiff;
}

TEST(SystemE2E, BudgetStopsWithoutHalt)
{
    Assembler as;
    auto loop = as.newLabel();
    as.mov(dg::ECX, 0);
    as.bind(loop);
    as.inc(dg::ECX);
    as.jmp(loop);  // infinite

    SimConfig cfg = testConfig();
    cfg.guestBudget = 10000;
    System sys(cfg);
    sys.load(finish(as));
    const SystemResult res = sys.run();
    EXPECT_FALSE(res.halted);
    EXPECT_GE(res.guestRetired, cfg.guestBudget);
    // Budget overshoot is bounded by one region's worth of work.
    EXPECT_LT(res.guestRetired, cfg.guestBudget + 200);
}

TEST(SystemE2E, FpKernelMatches)
{
    // Numerically integrate sqrt over [0, 400) with unit steps.
    Assembler as;
    as.mov(dg::EAX, 0);
    as.cvtif(dg::F2, dg::EAX);  // accumulator
    as.mov(dg::ECX, 400);
    auto loop = as.newLabel();
    as.bind(loop);
    as.cvtif(dg::F0, dg::ECX);
    as.fsqrt(dg::F1, dg::F0);
    as.fadd(dg::F2, dg::F1);
    as.dec(dg::ECX);
    as.jcc(dg::Cond::NE, loop);
    as.cvtfi(dg::EBX, dg::F2);
    as.halt();

    System sys(testConfig());
    sys.load(finish(as));
    const SystemResult res = sys.run();
    EXPECT_TRUE(res.halted);
    double expect = 0;
    for (int i = 400; i >= 1; --i)
        expect += std::sqrt(static_cast<double>(i));
    EXPECT_EQ(sys.guestState().gpr[dg::EBX],
              static_cast<uint32_t>(static_cast<int32_t>(expect)));
    EXPECT_TRUE(res.memoryDiff.empty()) << res.memoryDiff;
}

TEST(SystemE2E, AccountingClosesToTotalCycles)
{
    Assembler as;
    as.mov(dg::EAX, 0);
    as.mov(dg::ECX, 1000);
    auto loop = as.newLabel();
    as.bind(loop);
    as.add(dg::EAX, 7);
    as.dec(dg::ECX);
    as.jcc(dg::Cond::NE, loop);
    as.halt();

    System sys(testConfig());
    sys.load(finish(as));
    sys.run();

    const auto &ps = sys.combinedStats();
    double total = 0;
    for (unsigned b = 0; b < darco::timing::kNumBuckets; ++b) {
        total += ps.bucketTotal(static_cast<darco::timing::Bucket>(b));
    }
    EXPECT_NEAR(total, static_cast<double>(ps.cycles),
                1e-6 * static_cast<double>(ps.cycles) + 1.0);
}

TEST(SystemE2E, DeterministicAcrossRuns)
{
    auto build = [] {
        Assembler as;
        as.mov(dg::EAX, 0);
        as.mov(dg::ECX, 800);
        auto loop = as.newLabel();
        as.bind(loop);
        as.add(dg::EAX, dg::ECX);
        as.xor_(dg::EAX, 0x5A5A);
        as.dec(dg::ECX);
        as.jcc(dg::Cond::NE, loop);
        as.halt();
        dg::Program prog;
        prog.code = as.finalize(prog.codeBase);
        prog.entry = prog.codeBase;
        return prog;
    };

    System a(testConfig());
    a.load(build());
    a.run();
    System b(testConfig());
    b.load(build());
    b.run();

    EXPECT_EQ(a.combinedStats().cycles, b.combinedStats().cycles);
    EXPECT_EQ(a.combinedStats().l1d.misses, b.combinedStats().l1d.misses);
    EXPECT_EQ(a.tolStats().dynSbm, b.tolStats().dynSbm);
}

TEST(SystemEquivalence, IsolationPipesArePureObservers)
{
    // One run with every isolation pipe attached, projected to any
    // subset of the pipes, must equal the run that attached only that
    // subset, on every paper workload. The subsets include the ones
    // the paper's figures attach: Fig. 5-7/9 (none), Fig. 8
    // (TOL-module) and Figs. 10/11 (TOL-only + APP-only).
    constexpr uint64_t kBudget = 60'000;
    darco::sim::MetricsOptions options;
    options.guestBudget = kBudget;
    options.tolConfig.bbToSbThreshold =
        darco::sim::scaledSbThreshold(kBudget);

    for (const darco::workloads::BenchParams &params :
         darco::workloads::allBenchmarks()) {
        const darco::workloads::Workload workload =
            darco::workloads::resolveWorkload(
                darco::workloads::syntheticUri(params.name));
        darco::sim::MetricsOptions all = options;
        darco::sim::setPipeMask(all, darco::sim::kAllPipes);
        const darco::sim::RunSnapshot fused =
            darco::sim::snapshotRun(workload, all);

        for (darco::sim::PipeMask set = 0; set <= darco::sim::kAllPipes;
             ++set) {
            SCOPED_TRACE(params.name +
                         darco::strprintf(" pipe mask %u", set));
            darco::sim::MetricsOptions solo_options = options;
            darco::sim::setPipeMask(solo_options, set);
            const darco::sim::RunSnapshot solo =
                darco::sim::snapshotRun(workload, solo_options);

            darco::sim::RunSnapshot projected = fused;
            darco::sim::projectPipes(projected, set);

            EXPECT_EQ(darco::sim::diffRunSnapshots(projected, solo), "");
            EXPECT_EQ(projected.result.memoryDiff,
                      solo.result.memoryDiff);
            EXPECT_EQ(projected.result.cancelled,
                      solo.result.cancelled);
        }
    }
}

namespace {

/** One paper workload's committed snapshot digests. */
struct GoldenRow
{
    const char *name;
    uint64_t base;       ///< no isolation pipes (Figs. 5-7/9)
    uint64_t tolModule;  ///< tolModulePipe (Fig. 8)
    uint64_t isolation;  ///< tolOnlyPipe + appOnlyPipe (Figs. 10/11)
};

// Regenerate after an intentional semantic change: run
// `test_system_e2e --gtest_filter=GoldenDigests.*` and paste the table
// it prints on mismatch over this one.
const GoldenRow kGolden[] = {
    {"400.perlbench", 0x63fc4b46087f73dd, 0x6d7207ebb2fc2520, 0x827669ebdd86f1d5},
    {"401.bzip2", 0x5663db07e5edfba9, 0x8b7c6b4a1b08e8ed, 0xf36f106b0720c11a},
    {"403.gcc", 0xb1307864f06fc5bc, 0x4fe6151f5eea858a, 0xd7fe865622bd3ff1},
    {"429.mcf", 0x68fc2730f685ad63, 0xa464911186df2774, 0x5daa90af1e06c015},
    {"445.gobmk", 0xc5a0f8f0edd637a2, 0xc6abc2bd906fa91c, 0x9db7358cd79af01e},
    {"458.sjeng", 0x675688b0d730246f, 0x9c359d8afcd2d037, 0x1f97fe0be7d6cd05},
    {"462.libquantum", 0xa5bf86e59981b43f, 0x100d448d4f3a2c07, 0xc89d26b8054e359c},
    {"464.h264ref", 0x9913766b6d229232, 0xf0746ac858148b3d, 0x64b31e7da86b916d},
    {"471.omnetpp", 0xbddc0c0d7aaccf87, 0x21c7b9b87300a3fb, 0xc2874ef83931b8a4},
    {"473.astar", 0x68f9b006d3ca278c, 0xeb2683a70ad99bb8, 0x11497af1b2644f12},
    {"483.xalancbmk", 0xd1b7ac5735c32a2e, 0x270512819de6cc62, 0x0512482dc9b51ee7},
    {"998.specrand", 0x2ecbe969ee533db1, 0xe26dd358aba6aa6c, 0x412d1b626816750b},
    {"410.bwaves", 0x1e97122b9750b88e, 0x18751d0fcc8f7a4b, 0x95e74adfb734ce45},
    {"433.milc", 0xb5f2e366723020fc, 0xca41aafe09e8f270, 0xdf3027296b8cfffa},
    {"434.zeusmp", 0xd6941679219a3044, 0x4e0c0b93e2663369, 0x844ed62b30cd6260},
    {"435.gromacs", 0x618c191fb9eedc9f, 0xacb847c8bf3b5d9a, 0x383773a51c95e355},
    {"436.cactusADM", 0xb1e3de1a9de3f946, 0x42bbdb57c15eb31b, 0x7438cddbfc9200bd},
    {"437.leslie3d", 0xb3274c3c186afbd0, 0x1ee7030b2f32929a, 0x3cd4ee989e555b6b},
    {"444.namd", 0x6b52bde630fca563, 0x2e85d9d04c5f6092, 0x61a98ea400832dc9},
    {"447.dealII", 0xe58b3349642a3006, 0xa9e2e93a570f7154, 0x9b339294315f5abe},
    {"450.soplex", 0x03006d47ef179b9a, 0x9cefb4b486cf13e0, 0xdfe5743323afd961},
    {"459.GemsFDTD", 0xef3eaeeb2538f36f, 0xb00e066b649a14c9, 0x9eea14505bc09481},
    {"453.povray", 0x27e51d37ca97df71, 0xe44861ffe53b8e84, 0xae1e4eec73f57fb2},
    {"454.calculix", 0xc866818eb412b8ab, 0x608969ce435d1df3, 0xc1b5f90e96408324},
    {"470.lbm", 0xd1d1eb97934917e3, 0x74865bf8755f9c53, 0xd5b6436ca9255c6a},
    {"481.wrf", 0x7ae5be4225cb3ac1, 0xd9dff8c7c964b625, 0x7ea5b4a25c22f026},
    {"482.sphinx3", 0x22bd7ac87e079b35, 0x097bbef1019376af, 0x4c7d3392e2311860},
    {"999.specrand", 0x1028973733826129, 0x65872db9b2320e00, 0x124618be02872a49},
    {"100.novis_breakable", 0x8db92aad8143e7c7, 0xcefffe8f1b733e1e, 0x30f0c5d669740479},
    {"101.novis_continuous", 0x84b6d7d2f6a4c7be, 0xe70ddd92019ec21b, 0x99526abbb24252ca},
    {"102.novis_deformable", 0x5bd79f585af59a6c, 0xd106c76161c9c67e, 0x8c6c9bf9308b39e6},
    {"103.novis_everything", 0x89f44e675a85cc30, 0xb916e3e2efcbdedc, 0x79032a441fa9e9f5},
    {"104.novis_explosions", 0x355c75178abf09af, 0x0fefffad38552d9d, 0x9077dc0f663be64d},
    {"105.novis_highspeed", 0x2b9ab7fe17e058d8, 0xd43eb3f5c3101eb5, 0x5a7adcc79f5b3336},
    {"106.novis_periodic", 0xe65fc127a65d6324, 0xb1d1d5ea467448ca, 0xb80df183f67b24d5},
    {"107.novis_ragdoll", 0xbfd2f51ba734828a, 0x3d38e95ebea9d094, 0x3f50a906d383015d},
    {"000.cjpeg", 0x2fed24576176c82f, 0x8e1e8bc125debf75, 0x02d18781a06fcc1e},
    {"001.djpeg", 0xcbdac9f36062808b, 0x0b3612331e8e7c19, 0x4395c90548db857e},
    {"002.h263dec", 0xf73998ae66be1b97, 0xca635d1b2f0d0b6b, 0xf5f6fb4d9ec02c95},
    {"003.h263enc", 0x6ea518eeb43fe0cf, 0x01a46744c91a01d9, 0x14a3fee9b7b05e4a},
    {"004.h264dec", 0xa315c1b0078026ea, 0x278fe75a6c7c5da6, 0x3454a05d32fbd643},
    {"005.h264enc", 0x7ce75c17b40dcc9e, 0x47d0708a90c7d165, 0x3de10cc58e243ca1},
    {"006.jpg2000dec", 0x52d62f9e911bf8fa, 0xdb0af6cdd01fb96e, 0x8a8592640a0c033e},
    {"007.jpg2000enc", 0x2f515395b3102789, 0xa3b977c110f25b92, 0xe4cacec822b077ab},
    {"008.mpeg2dec", 0x09dfb15bd123e064, 0xbbf3ef13e7d4a3f9, 0x4936b5d3b043bfc7},
    {"009.mpeg2enc", 0x82ebd8105125234d, 0x68d88c64ba5711ff, 0x9d2a09188dc838da},
    {"010.mpeg4dec", 0xdf49ccd7fb57e8f9, 0xabce76817d4df0eb, 0x7295b3d77a68fbe1},
    {"011.mpeg4enc", 0xe0323aa31ecfc50c, 0xade77c1574ed7f29, 0x9c9d53b6c1c759e4},
};

uint64_t
snapshotDigest(const darco::sim::RunSnapshot &snap)
{
    std::string body;
    darco::runner::codec::appendSnapshotFields(body, snap);
    return darco::runner::codec::hashString(body);
}

} // namespace

TEST(GoldenDigests, PaperWorkloadsMatchCommittedTable)
{
    // Pins every simulated output to committed values: the timing A/B
    // suites only compare the two cores with each other, so a change
    // that moves both cores the same way passes them. Every workload
    // reaches SBM at this budget (scaled BB->SB threshold).
    constexpr uint64_t kBudget = 100'000;
    darco::sim::MetricsOptions base;
    base.guestBudget = kBudget;
    base.tolConfig.bbToSbThreshold =
        darco::sim::scaledSbThreshold(kBudget);
    darco::sim::MetricsOptions tol_module = base;
    tol_module.tolModulePipe = true;
    darco::sim::MetricsOptions isolation = base;
    isolation.tolOnlyPipe = isolation.appOnlyPipe = true;

    const std::vector<darco::workloads::BenchParams> &all =
        darco::workloads::allBenchmarks();
    std::string table;
    bool match = std::size(kGolden) == all.size();
    for (size_t i = 0; i < all.size(); ++i) {
        const darco::workloads::Workload workload =
            darco::workloads::resolveWorkload(
                darco::workloads::syntheticUri(all[i].name));
        const GoldenRow fresh = {
            all[i].name.c_str(),
            snapshotDigest(darco::sim::snapshotRun(workload, base)),
            snapshotDigest(darco::sim::snapshotRun(workload, tol_module)),
            snapshotDigest(darco::sim::snapshotRun(workload, isolation)),
        };
        table += darco::strprintf(
            "    {\"%s\", 0x%016llx, 0x%016llx, 0x%016llx},\n",
            fresh.name, static_cast<unsigned long long>(fresh.base),
            static_cast<unsigned long long>(fresh.tolModule),
            static_cast<unsigned long long>(fresh.isolation));
        if (i < std::size(kGolden)) {
            const GoldenRow &want = kGolden[i];
            match = match && all[i].name == want.name &&
                    fresh.base == want.base &&
                    fresh.tolModule == want.tolModule &&
                    fresh.isolation == want.isolation;
        }
    }
    EXPECT_TRUE(match)
        << "simulated outputs moved; if intended, replace kGolden with:\n"
        << "const GoldenRow kGolden[] = {\n" << table << "};\n";
}

namespace {

/**
 * One engine scenario: a recipe (one workload, budget, SB threshold,
 * host issue width) and its committed outputs. The scenarios span the
 * execution regimes: pure interpretation, steady-state translation,
 * the mixed IM->BBM->SBM run, a stall-heavy memory-bound run and the
 * wide-issue fixed-point denominators (lcm(1..3) = 6, lcm(1..4) = 12).
 */
struct EngineRow
{
    const char *name;
    const char *benchmark;
    uint64_t budget;
    uint32_t sbThreshold;
    uint32_t issueWidth;
    bool interpretOnly;  ///< imToBbThreshold = ~0u: never translate
    bool replay;         ///< also capture to a trace and replay it
    uint64_t guestRetired;
    uint64_t hostRecords;
    uint64_t simCycles;
    uint64_t digest;  ///< appendSnapshotFields hash
};

// Regenerate after an intentional semantic change: run
// `test_system_e2e --gtest_filter=GoldenDigests.*` and paste the table
// it prints on mismatch over this one.
const EngineRow kEngineGolden[] = {
    {"interpreter", "464.h264ref", 250000, 300, 2, true, false, 250000, 4760427, 6087973, 0x3bb6cc449f244ff5},
    {"translated", "464.h264ref", 2000000, 300, 2, false, false, 2000007, 4293139, 3700987, 0x53eed52e7544e03a},
    {"mixed_464", "464.h264ref", 1000000, 1000, 2, false, true, 1000001, 2535081, 2295734, 0x01cb4c7be944b539},
    {"stallheavy_429", "429.mcf", 1000000, 1000, 2, false, true, 1000008, 2483401, 3342430, 0x422093a7ca709078},
    {"wide3_464", "464.h264ref", 1000000, 1000, 3, false, false, 1000001, 2535081, 2127700, 0xa632112705850c5b},
    {"wide4_429", "429.mcf", 1000000, 1000, 4, false, false, 1000008, 2483401, 3034979, 0xbf6ca5d55bf9b7eb},
};

} // namespace

TEST(GoldenDigests, EngineScenariosMatchCommittedTable)
{
    // Each row runs on the event core with the IR verifier off, and
    // must reproduce its committed counts and digest. The same run
    // with the verifier on (a pure observer) and on the cycle-stepped
    // core must give the same digest; replay rows must also survive a
    // capture -> source://trace/ round trip bit-identically.
    std::string table;
    bool match = true;
    for (const EngineRow &row : kEngineGolden) {
        SCOPED_TRACE(row.name);
        const darco::workloads::Workload workload =
            darco::workloads::resolveWorkload(
                darco::workloads::syntheticUri(row.benchmark));
        darco::sim::MetricsOptions options;
        options.guestBudget = row.budget;
        options.tolConfig.bbToSbThreshold = row.sbThreshold;
        options.tolConfig.verifyIr = false;
        options.timingConfig.issueWidth = row.issueWidth;
        if (row.interpretOnly)
            options.tolConfig.imToBbThreshold = ~0u;

        const darco::sim::RunSnapshot snap =
            darco::sim::snapshotRun(workload, options);
        EngineRow fresh = row;
        fresh.guestRetired = snap.result.guestRetired;
        fresh.hostRecords = snap.stats.records;
        fresh.simCycles = snap.result.cycles;
        fresh.digest = snapshotDigest(snap);
        table += darco::strprintf(
            "    {\"%s\", \"%s\", %llu, %u, %u, %s, %s, %llu, %llu, "
            "%llu, 0x%016llx},\n",
            row.name, row.benchmark,
            static_cast<unsigned long long>(row.budget), row.sbThreshold,
            row.issueWidth, row.interpretOnly ? "true" : "false",
            row.replay ? "true" : "false",
            static_cast<unsigned long long>(fresh.guestRetired),
            static_cast<unsigned long long>(fresh.hostRecords),
            static_cast<unsigned long long>(fresh.simCycles),
            static_cast<unsigned long long>(fresh.digest));
        match = match && fresh.guestRetired == row.guestRetired &&
                fresh.hostRecords == row.hostRecords &&
                fresh.simCycles == row.simCycles &&
                fresh.digest == row.digest;

        darco::sim::MetricsOptions verified = options;
        verified.tolConfig.verifyIr = true;
        EXPECT_EQ(
            snapshotDigest(darco::sim::snapshotRun(workload, verified)),
            fresh.digest)
            << "the IR verifier changed a simulated output";

        darco::sim::MetricsOptions stepped = options;
        stepped.timingConfig.eventCore = false;
        darco::sim::RunSnapshot reference =
            darco::sim::snapshotRun(workload, stepped);
        EXPECT_EQ(reference.timingCore, "reference");
        reference.timingCore = snap.timingCore;
        EXPECT_EQ(snapshotDigest(reference), fresh.digest)
            << "the event core diverged from the cycle-stepped core";

        if (row.replay) {
            const std::string path = testing::TempDir() + "engine_" +
                                     row.name + ".dtrc";
            darco::sim::MetricsOptions capture = options;
            capture.captureTracePath = path;
            EXPECT_EQ(
                snapshotDigest(darco::sim::snapshotRun(workload, capture)),
                fresh.digest);
            const darco::workloads::Workload replayed =
                darco::workloads::resolveWorkload(
                    darco::workloads::traceUri(path));
            EXPECT_EQ(
                snapshotDigest(darco::sim::snapshotRun(replayed, options)),
                fresh.digest)
                << "the trace replay diverged from the live run";
            std::remove(path.c_str());
        }
    }
    EXPECT_TRUE(match)
        << "simulated outputs moved; if intended, replace kEngineGolden "
           "with:\nconst EngineRow kEngineGolden[] = {\n"
        << table << "};\n";
}
