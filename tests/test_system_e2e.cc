/**
 * @file
 * End-to-end system tests under co-simulation: small guest programs
 * run through the full TOL stack (interpret -> BB translate -> chain
 * -> superblock optimize) with every architectural commit checked
 * against the authoritative x86 component. SystemEquivalence checks
 * the invariant intra-batch pipe fusion rests on, one paper suite per
 * instance: the isolation pipelines observe the functional pass
 * without changing it.
 * GoldenDigests pins the simulated outputs of every paper workload,
 * and of six engine scenarios across the execution regimes, to
 * committed values.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <iterator>
#include <string>
#include <type_traits>
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

class SystemEquivalence : public testing::TestWithParam<const char *>
{
};

TEST_P(SystemEquivalence, IsolationPipesArePureObservers)
{
    // One run with every isolation pipe attached, projected to any
    // proper subset of the pipes, must equal the run that attached
    // only that subset, on every workload of the suite. The subsets
    // include the ones the paper's figures attach: Fig. 5-7/9
    // (none), Fig. 8 (TOL-module) and Figs. 10/11 (TOL-only +
    // APP-only). The full set would re-run the fused run's own
    // config: a determinism check, which the campaign's verify-hits
    // gate makes on every all-pipes entry.
    constexpr uint64_t kBudget = 60'000;
    darco::sim::MetricsOptions options;
    options.guestBudget = kBudget;
    options.tolConfig.bbToSbThreshold =
        darco::sim::scaledSbThreshold(kBudget);

    for (const darco::workloads::BenchParams *params :
         darco::workloads::suiteBenchmarks(GetParam())) {
        const darco::workloads::Workload workload =
            darco::workloads::resolveWorkload(
                darco::workloads::syntheticUri(params->name));
        darco::sim::MetricsOptions all = options;
        darco::sim::setPipeMask(all, darco::sim::kAllPipes);
        const darco::sim::RunSnapshot fused =
            darco::sim::snapshotRun(workload, all);

        for (darco::sim::PipeMask set = 0; set < darco::sim::kAllPipes;
             ++set) {
            SCOPED_TRACE(params->name +
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

INSTANTIATE_TEST_SUITE_P(
    PaperSuites, SystemEquivalence,
    testing::Values("SPEC INT", "SPEC FP", "Physics", "Media"),
    [](const testing::TestParamInfo<const char *> &info) {
        std::string name = info.param;
        for (char &c : name) {
            if (c == ' ')
                c = '_';
        }
        return name;
    });

TEST(Metrics, AverageIsTheMeanOfEveryListedField)
{
    using darco::sim::BenchMetrics;
    // Every listed leaf differs between the two rows: leaf k holds k
    // and 2k + 1 (integers: every other mean ends in .5) or k + 0.1
    // and 2k + 0.7 (doubles).
    std::vector<BenchMetrics> two(2);
    two[0].name = "000.cjpeg";
    two[1].name = "001.djpeg";
    two[0].suite = two[1].suite = "Media";
    for (size_t r = 0; r < two.size(); ++r) {
        uint64_t k = 0;
        darco::fields::forEachLeaf(two[r], [&](auto &leaf) {
            if constexpr (std::is_same_v<decltype(leaf), double &>)
                leaf = r ? 2.0 * k + 0.7 : k + 0.1;
            else
                leaf = r ? 2 * k + 1 : k;
            ++k;
        });
    }
    const BenchMetrics avg = darco::sim::averageMetrics(two, "AVG");
    EXPECT_EQ(avg.name, "AVG");
    EXPECT_EQ(avg.suite, "AVG");
    uint64_t k = 0;
    darco::fields::forEachLeaf(avg, [&k](const auto &leaf) {
        if constexpr (std::is_same_v<decltype(leaf), const double &>)
            EXPECT_EQ(leaf, ((k + 0.1) + (2.0 * k + 0.7)) / 2) << k;
        else  // (3k + 1) / 2, rounded half up
            EXPECT_EQ(leaf, (3 * k + 2) / 2) << k;
        ++k;
    });
    EXPECT_GT(k, 0u);

    // An integer mean rounds half up; a double is Σx/n (here not
    // Σ(x/n)), a nested array cell like any other field.
    BenchMetrics a, b, c;
    a.cycles = 3;
    b.cycles = 4;
    EXPECT_EQ(darco::sim::averageMetrics({a, b}, "SPEC INT").cycles, 4u);
    a.tolIpc = 0.1;
    b.tolIpc = 0.2;
    c.tolIpc = 0.3;
    a.bucketFrac[2][1] = 0.1;
    b.bucketFrac[2][1] = 0.2;
    c.bucketFrac[2][1] = 0.3;
    const BenchMetrics three =
        darco::sim::averageMetrics({a, b, c}, "SPEC FP");
    EXPECT_EQ(three.tolIpc, (0.1 + 0.2 + 0.3) / 3);
    EXPECT_NE(three.tolIpc, 0.1 / 3 + 0.2 / 3 + 0.3 / 3);
    EXPECT_EQ(three.bucketFrac[2][1], (0.1 + 0.2 + 0.3) / 3);
    EXPECT_EQ(three.bucketFrac[2][0], 0.0);
    EXPECT_EQ(three.name, "SPEC FP");
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
    {"400.perlbench", 0x825314570f94b4a8, 0x44a055b3826c032f, 0x268a9b2d1eeae7de},
    {"401.bzip2", 0x1afcce1eedfd42a0, 0x819fbd71b351e22c, 0x1e0b6ba042baeadc},
    {"403.gcc", 0x499234cb733c9b05, 0x92fdb46508f7d411, 0x4abb98f5da93673f},
    {"429.mcf", 0x4b2c258e2713ac23, 0xba74b11ee33e1abd, 0x462911aa29463c2a},
    {"445.gobmk", 0xadcfceda4e2710f5, 0x56ca87bec1a41a4a, 0xc054b3ba82afd937},
    {"458.sjeng", 0x66a2a88d5da4d81b, 0x0f78c492c28af19e, 0x5e6a3a9f035968b7},
    {"462.libquantum", 0xec1f89e0b40721a7, 0xa555a29ab5127478, 0x4d46e16c9e28bcd0},
    {"464.h264ref", 0x22b8db65b593e898, 0x96b27e133d8ab3cd, 0x0ba1be0b050fa744},
    {"471.omnetpp", 0x9660791064ab73a3, 0x2bf36df920d52617, 0x54ff5d45f44deca6},
    {"473.astar", 0x98d7f69a25d5aa3f, 0x8924d1c88f26b141, 0x56b0ffbc9200363c},
    {"483.xalancbmk", 0x0f9a552ff0111ac3, 0x1797e405e8539c30, 0x755172e6b8e9a99e},
    {"998.specrand", 0x823fa83ec5f14b26, 0xaddbdce4e58fd831, 0xf1f27c84ee8657f3},
    {"410.bwaves", 0x64eb3d3fae162f43, 0xafca3eb0a1cc9a2b, 0xb93de304c3a60119},
    {"433.milc", 0x40b8dd0423896861, 0x1ba76a354d90baa2, 0xdb6550ec3f459e08},
    {"434.zeusmp", 0x2b78c4d70536d5f6, 0xb75d479386a57513, 0x520190dc86945cfb},
    {"435.gromacs", 0x893644956710cfb3, 0x576c633e4e8f1e2b, 0x55903eec39b20661},
    {"436.cactusADM", 0xaafd47a070a165cf, 0x96ce63723ef7504e, 0x244b05b604b5d260},
    {"437.leslie3d", 0x6c715211fe51582b, 0xb6e6088e2fa6c840, 0x4b3caa80d19a80a3},
    {"444.namd", 0xae9d6a8f8c5e174e, 0xeceb7c35e35c15bf, 0xfba376bd376282d2},
    {"447.dealII", 0xe23cff78c7b6c568, 0xe8ec9c516c6480dd, 0x529a084e21590781},
    {"450.soplex", 0x4073dc31e1d92f00, 0x5d575c663a61b467, 0x6785896bba24666b},
    {"459.GemsFDTD", 0xc703e2ab978908fb, 0x8e56a602229f9348, 0x058cf400bb4ef569},
    {"453.povray", 0xfb2cced090e11cf7, 0x6116d7daec4f98a9, 0x96f369cd067220db},
    {"454.calculix", 0x93c1bfc7f5e3d3cd, 0xecd0eb32b1296856, 0x1cdfd23cba568a5b},
    {"470.lbm", 0x891e1d1e71188abf, 0x2feb90d1a8eb47d7, 0xec7c8c1e70f424f4},
    {"481.wrf", 0xd2ded19e3a051f2a, 0x3c374de64dc2a0ee, 0x965a655f2151d24b},
    {"482.sphinx3", 0x927b7f2e36458897, 0x2fa6f96f861aca35, 0xd005949d6009663d},
    {"999.specrand", 0x104c4ea275576117, 0xd6b740bb964b37cc, 0x433bac5b4d07bb98},
    {"100.novis_breakable", 0xdfd4885fde9a2d4f, 0xe43e277b97e358b7, 0x226bfd0be4625353},
    {"101.novis_continuous", 0x8a0d1ad1541d6a44, 0x1fa8e0478b145049, 0x892ab93387d88153},
    {"102.novis_deformable", 0xb43446c0ba99aa9d, 0x355392fd84821ea2, 0xc59433f20ec59212},
    {"103.novis_everything", 0xabbf85a6ea9551e5, 0x1a3b5ee237d6d008, 0x751e1837e87a22af},
    {"104.novis_explosions", 0xcf326758c58363f2, 0x3463a9c97a16a79f, 0x425a35f30dd77c2a},
    {"105.novis_highspeed", 0x9c447b0944a34703, 0xc1ff92ab6a0c4ad6, 0x8a377dcbb7f844bb},
    {"106.novis_periodic", 0x6f4c282ee5d3bf7c, 0x60fb6b8824566b7b, 0xceee22387706db13},
    {"107.novis_ragdoll", 0x59f99a60da261bc5, 0x2336466a23f2de1b, 0x778810bf66af56d2},
    {"000.cjpeg", 0x8765f35c47cf9a43, 0xd4bd4a249f9f1001, 0x7dba06a04a134376},
    {"001.djpeg", 0x9fb929195bbcb3ef, 0xb79c1f0fab18995b, 0x92411a458c1ebed7},
    {"002.h263dec", 0x3da82dbb4201c00f, 0x512220fea15aff4e, 0x58c4f09f99a3be5c},
    {"003.h263enc", 0x7120136b17a054dd, 0x5cc26a84acb50b69, 0x15b1afa9b1c424d4},
    {"004.h264dec", 0x394a25211991e203, 0x8cb7cd76d820caa7, 0xcac38902210d0721},
    {"005.h264enc", 0x90c8932737ee0847, 0x6d78b0aab870b93c, 0xd22e44209f7fe82b},
    {"006.jpg2000dec", 0x3ba52d5a14142f5c, 0x615fd20b3613ef34, 0xfdc7b22fa8547e28},
    {"007.jpg2000enc", 0x2c619a9f9653d902, 0x3a49d92bb1550381, 0x83c331f47a1aa714},
    {"008.mpeg2dec", 0x8cf60cb6ec9de445, 0x8f18a3180fe03365, 0x5ebecd39a03249ed},
    {"009.mpeg2enc", 0x1d63307c4e963c9b, 0x05819b1c3fc3c704, 0xf4e2abfad7dc63ba},
    {"010.mpeg4dec", 0x9c43b17935fa295e, 0xf2870f39af71bd3b, 0x3fb167b0341f4898},
    {"011.mpeg4enc", 0xb674d5e4551b4eb7, 0x4cc3833f0ea526c0, 0xa5e600322a086728},
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
    {"interpreter", "464.h264ref", 250000, 300, 2, true, false, 250000, 4760427, 6087973, 0xd992599f7531f9fc},
    {"translated", "464.h264ref", 2000000, 300, 2, false, false, 2000007, 4293139, 3700987, 0xeb9403d994956600},
    {"mixed_464", "464.h264ref", 1000000, 1000, 2, false, true, 1000001, 2535081, 2295734, 0x8776dbd9e06b5f92},
    {"stallheavy_429", "429.mcf", 1000000, 1000, 2, false, true, 1000008, 2483401, 3342430, 0xb60f964846db75e2},
    {"wide3_464", "464.h264ref", 1000000, 1000, 3, false, false, 1000001, 2535081, 2127700, 0x75ec7a99aa0dd2aa},
    {"wide4_429", "429.mcf", 1000000, 1000, 4, false, false, 1000008, 2483401, 3034979, 0x9630091428e8d944},
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
