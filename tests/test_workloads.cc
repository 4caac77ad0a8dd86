/**
 * @file
 * Workload-suite tests: every synthetic benchmark must build, run
 * under strict co-simulation without architectural divergence, and
 * exhibit the characteristics its paper counterpart is parameterized
 * for (indirect-branch density ordering, dynamic/static ratio
 * ordering, mode distribution shape).
 */

#include <gtest/gtest.h>

#include <cstring>
#include <iterator>
#include <string>

#include "common/logging.hh"
#include "sim/system.hh"
#include "workloads/params.hh"
#include "workloads/source.hh"

using darco::sim::SimConfig;
using darco::sim::System;
using darco::sim::SystemResult;
namespace wl = darco::workloads;

namespace {

SimConfig
quickConfig(uint64_t budget)
{
    SimConfig cfg;
    cfg.cosim = true;
    cfg.cosimStrict = true;
    cfg.guestBudget = budget;
    return cfg;
}

struct RunOutcome
{
    SystemResult result;
    uint64_t indirect;
    uint64_t staticInsts;
    uint64_t dynIm, dynBbm, dynSbm;
    uint64_t sbs;
};

RunOutcome
runBenchmark(const wl::BenchParams &params, uint64_t budget)
{
    System sys(quickConfig(budget));
    sys.load(wl::buildBenchmark(params));
    RunOutcome out;
    out.result = sys.run();
    const auto &ts = sys.tolStats();
    out.indirect = ts.guestIndirectBranches;
    out.staticInsts = ts.staticMode.size();
    out.dynIm = ts.dynIm;
    out.dynBbm = ts.dynBbm;
    out.dynSbm = ts.dynSbm;
    out.sbs = ts.sbsCreated;
    return out;
}

} // namespace

class WorkloadSuite : public ::testing::TestWithParam<size_t>
{};

TEST_P(WorkloadSuite, RunsUnderStrictCosim)
{
    const wl::BenchParams &params = wl::allBenchmarks()[GetParam()];
    const RunOutcome out = runBenchmark(params, 60000);
    // Strict cosim would have panicked on mismatch; check progress.
    EXPECT_GE(out.result.guestRetired, 50000u) << params.name;
    EXPECT_GT(out.staticInsts, 50u) << params.name;
}

INSTANTIATE_TEST_SUITE_P(
    AllBenchmarks, WorkloadSuite,
    ::testing::Range<size_t>(0, wl::allBenchmarks().size()),
    [](const ::testing::TestParamInfo<size_t> &info) {
        std::string name = wl::allBenchmarks()[info.param].name;
        for (char &c : name) {
            if (!isalnum(static_cast<unsigned char>(c)))
                c = '_';
        }
        return name;
    });

TEST(WorkloadCharacteristics, TableHas48Benchmarks)
{
    EXPECT_EQ(wl::allBenchmarks().size(), 48u);
    EXPECT_EQ(wl::suiteBenchmarks("SPEC INT").size(), 12u);
    EXPECT_EQ(wl::suiteBenchmarks("SPEC FP").size(), 16u);
    EXPECT_EQ(wl::suiteBenchmarks("Physics").size(), 8u);
    EXPECT_EQ(wl::suiteBenchmarks("Media").size(), 12u);
}

TEST(WorkloadCharacteristics, PerlbenchIndirectHeavyVsBzip2)
{
    // Paper §III-B: 400.perlbench has ~4 orders of magnitude more
    // indirect branches than 401.bzip2.
    const auto perl = runBenchmark(*wl::findBenchmark("400.perlbench"),
                                   300000);
    const auto bzip = runBenchmark(*wl::findBenchmark("401.bzip2"),
                                   300000);
    EXPECT_GT(perl.indirect, 20 * std::max<uint64_t>(1, bzip.indirect));
}

TEST(WorkloadCharacteristics, LibquantumHighRepetition)
{
    const auto libq = runBenchmark(
        *wl::findBenchmark("462.libquantum"), 400000);
    const auto cjpeg = runBenchmark(*wl::findBenchmark("000.cjpeg"),
                                    400000);
    const double libq_ratio =
        static_cast<double>(libq.result.guestRetired) /
        static_cast<double>(libq.staticInsts);
    const double cjpeg_ratio =
        static_cast<double>(cjpeg.result.guestRetired) /
        static_cast<double>(cjpeg.staticInsts);
    // libquantum's dynamic/static ratio dwarfs cjpeg's (paper Fig 6).
    EXPECT_GT(libq_ratio, 20 * cjpeg_ratio);
}

TEST(WorkloadCharacteristics, SimilarStaticFootprints)
{
    // Paper §III-B: cjpeg, djpeg and milc have similar static
    // footprints (~15K), but milc has far more dynamic instructions.
    const auto cjpeg = runBenchmark(*wl::findBenchmark("000.cjpeg"),
                                    500000);
    const auto milc = runBenchmark(*wl::findBenchmark("433.milc"),
                                   500000);
    EXPECT_LT(static_cast<double>(cjpeg.staticInsts) * 0.4,
              static_cast<double>(milc.staticInsts));
    EXPECT_LT(static_cast<double>(milc.staticInsts) * 0.4,
              static_cast<double>(cjpeg.staticInsts));
}

TEST(WorkloadCharacteristics, Jpg2000EncMoreSuperblocksThanDec)
{
    // Paper §III-B: 007.jpg2000enc creates ~4.7x the superblocks of
    // 006.jpg2000dec (450 vs 96).
    darco::sim::SimConfig cfg = quickConfig(1'500'000);
    cfg.tol.bbToSbThreshold = 2000;  // scaled threshold for the budget
    System dec(cfg);
    dec.load(wl::buildBenchmark(*wl::findBenchmark("006.jpg2000dec")));
    dec.run();
    System enc(cfg);
    enc.load(wl::buildBenchmark(*wl::findBenchmark("007.jpg2000enc")));
    enc.run();
    EXPECT_GT(enc.tolStats().sbsCreated,
              2 * dec.tolStats().sbsCreated);
}

TEST(WorkloadCharacteristics, SpecrandRunsToCompletion)
{
    const auto rnd = runBenchmark(*wl::findBenchmark("998.specrand"),
                                  10'000'000);
    EXPECT_TRUE(rnd.result.halted);
}

namespace {

/** Incremental FNV-1a 64 over a program's loadable image. */
struct Fnv1a
{
    uint64_t h = 0xcbf29ce484222325ull;

    void
    bytes(const uint8_t *data, size_t len)
    {
        for (size_t i = 0; i < len; ++i) {
            h ^= data[i];
            h *= 0x100000001b3ull;
        }
    }

    void
    word(uint32_t v)
    {
        uint8_t le[4];
        std::memcpy(le, &v, 4);
        bytes(le, 4);
    }
};

uint64_t
programHash(const darco::guest::Program &prog)
{
    Fnv1a f;
    f.bytes(prog.code.data(), prog.code.size());
    f.word(prog.entry);
    for (const auto &seg : prog.data) {
        f.word(seg.addr);
        f.bytes(seg.bytes.data(), seg.bytes.size());
    }
    return f.h;
}

struct ProgramRow
{
    const char *name;
    uint64_t hash;  ///< programHash of buildBenchmark(params)
};

// Regenerate only after an intentional change to the generator: run
// `test_workloads --gtest_filter=GoldenPrograms.*` and paste the table
// it prints on mismatch over this one.
const ProgramRow kGoldenPrograms[] = {
    {"400.perlbench", 0x56a2ae2655674832},
    {"401.bzip2", 0x8f3e2585870a208c},
    {"403.gcc", 0x7896645477a471cd},
    {"429.mcf", 0x0c99d74884bcb6d5},
    {"445.gobmk", 0x8ed949b777d7657e},
    {"458.sjeng", 0x341f5cdff8c3b3d4},
    {"462.libquantum", 0xc5c50214bde2ee44},
    {"464.h264ref", 0x30b8b03807294be5},
    {"471.omnetpp", 0x3fad69e24d41060f},
    {"473.astar", 0x8b0e11ed6ecab0d3},
    {"483.xalancbmk", 0x887620e65ee4ce0e},
    {"998.specrand", 0x58a81a9d985adafa},
    {"410.bwaves", 0x55f919984f72fe30},
    {"433.milc", 0x69722ff20a0591dd},
    {"434.zeusmp", 0xf6fe9b4799deb01c},
    {"435.gromacs", 0xb7bb585027491148},
    {"436.cactusADM", 0xbccdd6c556f70372},
    {"437.leslie3d", 0x4c00a7c0768e3630},
    {"444.namd", 0x70451e6024e5e525},
    {"447.dealII", 0xa61f301f74c2ebdc},
    {"450.soplex", 0xf5d78d0a64cf5f77},
    {"459.GemsFDTD", 0x8ff5451b3a144d47},
    {"453.povray", 0x1407e339ec2b92a6},
    {"454.calculix", 0xb06b55d0cdaf006a},
    {"470.lbm", 0x1de31ec0dae3e328},
    {"481.wrf", 0x8c8ff26f444c6ff2},
    {"482.sphinx3", 0x5792c7adec98275d},
    {"999.specrand", 0x7ba3198bd46cb0fd},
    {"100.novis_breakable", 0x5331794d6ab4e60e},
    {"101.novis_continuous", 0xd1b40392a676e2a5},
    {"102.novis_deformable", 0x441e529ad32c3c40},
    {"103.novis_everything", 0x2ab11c2758e6d57c},
    {"104.novis_explosions", 0xbbeda4b259a1e6ab},
    {"105.novis_highspeed", 0x9557fd6defed6a22},
    {"106.novis_periodic", 0x5d1e34f15d9ed620},
    {"107.novis_ragdoll", 0xef32b824075d8d03},
    {"000.cjpeg", 0x840951f852f70cda},
    {"001.djpeg", 0xa5a5e75d4a2446c9},
    {"002.h263dec", 0x6e8e8217713df54d},
    {"003.h263enc", 0x3a8b543a3ce8fea5},
    {"004.h264dec", 0x4dcebe65d65e7fb3},
    {"005.h264enc", 0x4c4353d0e9a4b356},
    {"006.jpg2000dec", 0xaf96443edfd6421a},
    {"007.jpg2000enc", 0x08c6d146e706efa5},
    {"008.mpeg2dec", 0x7b293b6e48ce7cc4},
    {"009.mpeg2enc", 0x7f14b239d3db7a54},
    {"010.mpeg4dec", 0x6335b242c5307fa2},
    {"011.mpeg4enc", 0xe2869f4813d7da12},
};

} // namespace

TEST(GoldenPrograms, PaperProgramsMatchCommittedTable)
{
    // Pins the generated programs themselves (code, entry, every data
    // segment's address and bytes). GoldenDigests pins them only
    // through simulated outputs, which read a fraction of the data.
    // The program a workload URI resolves to (built from the recipe
    // its identity carries) must hash the same.
    const auto &all = wl::allBenchmarks();
    std::string table;
    bool match = std::size(kGoldenPrograms) == all.size();
    for (size_t i = 0; i < all.size(); ++i) {
        const uint64_t hash = programHash(wl::buildBenchmark(all[i]));
        const uint64_t resolved_hash = programHash(
            wl::resolveWorkload(wl::syntheticUri(all[i].name)).program);
        EXPECT_EQ(resolved_hash, hash) << all[i].name;
        table += darco::strprintf("    {\"%s\", 0x%016llx},\n",
                                  all[i].name.c_str(),
                                  static_cast<unsigned long long>(hash));
        if (i < std::size(kGoldenPrograms))
            match = match && all[i].name == kGoldenPrograms[i].name &&
                    hash == kGoldenPrograms[i].hash;
    }
    EXPECT_TRUE(match)
        << "generated programs moved; if intended, replace "
           "kGoldenPrograms with:\n"
        << "const ProgramRow kGoldenPrograms[] = {\n" << table << "};\n";
}
