/**
 * @file
 * End-to-end system tests under co-simulation: small guest programs
 * run through the full TOL stack (interpret -> BB translate -> chain
 * -> superblock optimize) with every architectural commit checked
 * against the authoritative x86 component. SystemEquivalence checks
 * the invariant intra-batch pipe fusion rests on: the isolation
 * pipelines observe the functional pass without changing it.
 * GoldenDigests pins the simulated outputs of every paper workload to
 * committed values.
 */

#include <gtest/gtest.h>

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

namespace {

/** The isolation pipe sets the paper's figures attach. */
struct FigurePipes
{
    const char *name;
    bool tolOnly;
    bool appOnly;
    bool tolModule;
};

void
expectSamePipe(const char *what,
               const std::optional<darco::timing::PipeStats> &got,
               const std::optional<darco::timing::PipeStats> &want)
{
    ASSERT_EQ(got.has_value(), want.has_value()) << what;
    if (want) {
        EXPECT_EQ(darco::timing::diffStats(*got, *want), "") << what;
    }
}

} // namespace

TEST(SystemEquivalence, IsolationPipesArePureObservers)
{
    // One run with every isolation pipe attached, with the pipes a
    // set does not name dropped, must equal the run that attached
    // only that set: Fig. 5-7/9 (none), Fig. 8 (TOL-module) and
    // Figs. 10/11 (TOL-only + APP-only), on every paper workload.
    constexpr uint64_t kBudget = 60'000;
    const FigurePipes sets[] = {
        {"base", false, false, false},
        {"fig8", false, false, true},
        {"fig10", true, true, false},
    };
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
        all.tolOnlyPipe = all.appOnlyPipe = all.tolModulePipe = true;
        const darco::sim::RunSnapshot fused =
            darco::sim::snapshotRun(workload, all);

        for (const FigurePipes &set : sets) {
            SCOPED_TRACE(params.name + "/" + set.name);
            darco::sim::MetricsOptions solo_options = options;
            solo_options.tolOnlyPipe = set.tolOnly;
            solo_options.appOnlyPipe = set.appOnly;
            solo_options.tolModulePipe = set.tolModule;
            const darco::sim::RunSnapshot solo =
                darco::sim::snapshotRun(workload, solo_options);

            darco::sim::RunSnapshot projected = fused;
            if (!set.tolOnly)
                projected.tolOnly.reset();
            if (!set.appOnly)
                projected.appOnly.reset();
            if (!set.tolModule)
                projected.tolModule.reset();

            EXPECT_EQ(projected.result.guestRetired,
                      solo.result.guestRetired);
            EXPECT_EQ(projected.result.halted, solo.result.halted);
            EXPECT_EQ(projected.result.cycles, solo.result.cycles);
            EXPECT_EQ(projected.result.memoryDiff,
                      solo.result.memoryDiff);
            EXPECT_EQ(projected.result.cancelled,
                      solo.result.cancelled);
            EXPECT_EQ(darco::timing::diffStats(projected.stats,
                                               solo.stats), "");
            EXPECT_EQ(darco::tol::diffTolStats(projected.tolStats,
                                               solo.tolStats), "");
            expectSamePipe("tol_only", projected.tolOnly, solo.tolOnly);
            expectSamePipe("app_only", projected.appOnly, solo.appOnly);
            expectSamePipe("tol_module", projected.tolModule,
                           solo.tolModule);
            EXPECT_EQ(projected.timingCore, solo.timingCore);
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
    {"400.perlbench", 0x973f2c719a9ad237, 0x2416ac86eda711d2, 0xaf2545d70d5cfeef},
    {"401.bzip2", 0x960713359f3df3a2, 0x228b6733964bc0a6, 0x07dd7d9343dc77c5},
    {"403.gcc", 0x3ef225f41ddb7539, 0x0ee0ce3920d451d7, 0x9d2fffd944755558},
    {"429.mcf", 0x7313affadb68c8c2, 0x252b17563942865d, 0x64022ae2e5814bcc},
    {"445.gobmk", 0x47ff56299f1bf6a5, 0xce964e0729f1cb43, 0xbf0c622e0100c829},
    {"458.sjeng", 0x48c048683b328b68, 0x63b15c234d245110, 0x0dd2444ea1b916ae},
    {"462.libquantum", 0x71b12236c09320a1, 0x0dbd6f5239099a09, 0x2c2a8b7e38dc3976},
    {"464.h264ref", 0x46365664efdd802e, 0xc5edca526f110bdf, 0x40dd0611105cfd6f},
    {"471.omnetpp", 0x7df260792a414a3a, 0x53338fdd6424ed7e, 0xe97d979ac95ed493},
    {"473.astar", 0x10effc89b1607d8d, 0xf00a14539d945f01, 0x56046a80c8de0f0f},
    {"483.xalancbmk", 0x2186e539e240e224, 0xf10e7850cbfac010, 0xe4d1cd02e54ac2d5},
    {"998.specrand", 0x87af162d458247cc, 0x7b18e5b88a4d0f63, 0x8c7d90da11614046},
    {"410.bwaves", 0xa328decbb73a8107, 0x8816500f9c5929c0, 0x8cd3c5f050e522b2},
    {"433.milc", 0x3975b4ed2fd22cfd, 0x51e608e884861691, 0xfa69926a8f520b4f},
    {"434.zeusmp", 0x1c7d260dc0ce58d3, 0x09c70d4583974e3e, 0xe0c9b957786eb697},
    {"435.gromacs", 0x5c37458922edabe5, 0xda0234fef1918704, 0x25fd421c2a356b9b},
    {"436.cactusADM", 0x83393fa91f755cac, 0x2d2853176136ce75, 0x7d5310062d2a4137},
    {"437.leslie3d", 0xb38ec5642711825d, 0x70c5a7ca4ca6977b, 0xabc8c3cc01585db8},
    {"444.namd", 0x976ff01928b165fa, 0x806c8f4daa17b611, 0x8bae4c7bc1c1f2cc},
    {"447.dealII", 0x5e3a2dc4bba9ea69, 0x4e4bc0e0f995896f, 0xd8d0132cf9e9bbd1},
    {"450.soplex", 0x4e75262a195ffcea, 0x7ff17f00fd328c08, 0xda909efc6ef9c60f},
    {"459.GemsFDTD", 0xd2f08837256f7857, 0x750dfd9cda7aae5d, 0xe66c38501b8e2b95},
    {"453.povray", 0x95cc4f1a1f662e0e, 0xc99bf91a66293a11, 0x447cf1b0aa09feeb},
    {"454.calculix", 0x50eed6dcffcae6e8, 0xf63d043c2cdc1cb0, 0x7bdcac0f1656edf7},
    {"470.lbm", 0x7d102911e06d50a1, 0xff3fe6deb2cd29f1, 0xfde440bd329a96f0},
    {"481.wrf", 0x49df1985c0339d85, 0x77bce1ace9b90149, 0xc124253423bf39d4},
    {"482.sphinx3", 0x4989fe358a0f56cd, 0x2b289d4e37c662a7, 0x2e92523444de7668},
    {"999.specrand", 0xf496014c0b9c0e51, 0x6e9f3e7e9a726e1c, 0x74fdbd3a37f70471},
    {"100.novis_breakable", 0xf893045da8467476, 0xa48a97cc1fb0c29f, 0x9e5f20213342ca18},
    {"101.novis_continuous", 0xc73ce04fe79fdfc0, 0x9d97d6186811daed, 0x3544c0d8e1a7ed3c},
    {"102.novis_deformable", 0xc79481d18d54a0a9, 0x7f3157ae059c110f, 0x6e82c4116c2c7707},
    {"103.novis_everything", 0xf5d0714a6f5563b8, 0x3a07dadb0b674464, 0x0b849c2c0d2cd263},
    {"104.novis_explosions", 0x27cc5e8f13b4c378, 0x5f61818f1dc37b4a, 0x19cd967f2e5e3c1a},
    {"105.novis_highspeed", 0x59bf4bb33d01d828, 0x9313046b25408dd1, 0x7c0030715f0b7716},
    {"106.novis_periodic", 0x8c193d6960f54862, 0xcd86a43ab97dac0c, 0x2e016a6a0721eb53},
    {"107.novis_ragdoll", 0x0c6a8bc66d103880, 0x6aad9d41cea3273e, 0x7d25b4f85d4f1b37},
    {"000.cjpeg", 0x8129b36f5bd9b5cc, 0xf4e2a365ed165476, 0x55fb6508c2cf38ed},
    {"001.djpeg", 0xb18aeb31a345ca7f, 0xf0e72cd0d6230555, 0x762c662b55d95c66},
    {"002.h263dec", 0xce130969766a02e9, 0x5a44f115311a667d, 0x261593f51e3bb677},
    {"003.h263enc", 0xab6efeba1438b2a6, 0x2691a2e5d94a7688, 0x2146070a4a59c711},
    {"004.h264dec", 0x08da0e89501cec16, 0x3a1f1f2b34e1c4ba, 0x177bfe07b4b4ad5f},
    {"005.h264enc", 0xda9d16fb62e16ad0, 0xb3f6ceb0b2a78231, 0x3debaec49a241255},
    {"006.jpg2000dec", 0xc65a9d28627039d1, 0x39e123f474f0fdf5, 0xb341dc5b992fce65},
    {"007.jpg2000enc", 0xc4d8009a4069ba6e, 0xebbe53e00b0e39e1, 0x66419a3ab51cf168},
    {"008.mpeg2dec", 0xe9b0172eac8d02c6, 0x59ba55a1e800fcb9, 0x8b9f881d53a1efbb},
    {"009.mpeg2enc", 0x10313f45a7e136a1, 0x314c96d7c7329f9b, 0xc79dfbf3720a55bc},
    {"010.mpeg4dec", 0x6cbf83e93f27cea4, 0x530daf6dc8e8754e, 0xaa0b42d91dd3028c},
    {"011.mpeg4enc", 0x62ed9e7915bc991d, 0x5e048cfa61e40e3e, 0x8bcf3a6419bf1875},
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
