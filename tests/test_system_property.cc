/**
 * @file
 * System-level property tests: randomized workload parameterizations
 * (the same generator space users configure) run under strict
 * co-simulation — any divergence between the DBT stack and the
 * authoritative emulator panics. Also checks cross-cutting
 * invariants: retirement accounting vs the authoritative instruction
 * count, mode counts summing to total, accounting closure with all
 * pipelines live, and feature-toggle equivalence of architectural
 * results.
 */

#include <gtest/gtest.h>

#include "common/prng.hh"
#include "sim/metrics.hh"
#include "sim/system.hh"
#include "workloads/params.hh"

using namespace darco;
namespace g = darco::guest;

namespace {

workloads::BenchParams
randomParams(uint64_t seed)
{
    Prng rng(seed);
    workloads::BenchParams p;
    p.name = "random." + std::to_string(seed);
    p.suite = "random";
    p.seed = seed * 31 + 7;
    p.initBlobInsts = static_cast<uint32_t>(rng.below(800));
    p.coldBlobInsts = static_cast<uint32_t>(rng.below(1500));
    p.warmLoops = static_cast<uint32_t>(rng.below(12));
    p.warmIters = static_cast<uint32_t>(5 + rng.below(120));
    p.warmBody = static_cast<uint32_t>(3 + rng.below(10));
    p.hotLoops = static_cast<uint32_t>(rng.below(3));
    p.hotIters = static_cast<uint32_t>(500 + rng.below(5000));
    p.fpShare = rng.uniform();
    p.dispatchIters = rng.chance(0.5)
        ? static_cast<uint32_t>(rng.below(800)) : 0;
    p.dispatchTargets = 1u << (2 + rng.below(6));  // 4..128
    p.callPairs = rng.chance(0.5)
        ? static_cast<uint32_t>(rng.below(400)) : 0;
    p.dataKb = static_cast<uint32_t>(16 + rng.below(256));
    p.strideBytes = 1u << rng.below(7);
    p.chaseIters = rng.chance(0.3)
        ? static_cast<uint32_t>(rng.below(2000)) : 0;
    p.chaseNodes = 1024;
    return p;
}

} // namespace

class RandomWorkload : public ::testing::TestWithParam<uint64_t>
{};

TEST_P(RandomWorkload, StrictCosimAndInvariants)
{
    sim::SimConfig cfg;
    cfg.cosim = true;
    cfg.cosimStrict = true;
    cfg.guestBudget = 120'000;
    cfg.tol.imToBbThreshold = 3;
    cfg.tol.bbToSbThreshold = 100;
    cfg.tolOnlyPipe = true;
    cfg.appOnlyPipe = true;
    cfg.tolModulePipe = true;

    sim::System sys(cfg);
    sys.load(workloads::buildBenchmark(randomParams(GetParam())));
    const sim::SystemResult res = sys.run();

    // Cosim was strict: reaching here means no divergence. Cross-check
    // the aggregate invariants.
    EXPECT_TRUE(res.memoryDiff.empty()) << res.memoryDiff;

    const tol::TolStats &ts = sys.tolStats();
    EXPECT_EQ(ts.dynTotal(), res.guestRetired)
        << "mode counts must sum to retired instructions";
    EXPECT_EQ(sys.checker()->instructionsChecked(), res.guestRetired)
        << "every retired instruction must have been checked";

    // Accounting closure on every pipeline instance.
    auto check_closure = [](const timing::PipeStats *ps) {
        if (!ps)
            return;
        double total = 0;
        for (unsigned b = 0; b < timing::kNumBuckets; ++b)
            total += ps->bucketTotal(static_cast<timing::Bucket>(b));
        EXPECT_NEAR(total, static_cast<double>(ps->cycles),
                    1e-6 * static_cast<double>(ps->cycles) + 1.0);
    };
    check_closure(&sys.combinedStats());
    for (const sim::IsolationPipe &pipe : sim::kIsolationPipes)
        check_closure(sys.isolationStats(pipe.filter));

    // Source-split streams partition the record population.
    const uint64_t records = sys.combinedStats().records;
    EXPECT_EQ(sys.isolationStats(timing::Pipeline::Filter::TolOnly)
                      ->records +
                  sys.isolationStats(timing::Pipeline::Filter::AppOnly)
                      ->records,
              records);
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomWorkload,
                         ::testing::Range<uint64_t>(1, 25));

TEST(SystemEquivalence, FeatureTogglesPreserveArchitecture)
{
    // All feature combinations must compute the same guest result.
    // The comparison is only meaningful at program completion: a
    // budget cutoff lands mid-program at config-dependent points
    // (regions retire in bursts), so every run must reach HALT.
    workloads::BenchParams params = randomParams(777);
    params.outerRepeats = 3;  // run to HALT within the budget

    auto final_eax = [&params](auto mutate) {
        sim::SimConfig cfg;
        cfg.cosim = true;
        cfg.cosimStrict = true;
        cfg.guestBudget = 5'000'000;
        cfg.tol.imToBbThreshold = 3;
        cfg.tol.bbToSbThreshold = 100;
        mutate(cfg.tol);
        sim::System sys(cfg);
        sys.load(workloads::buildBenchmark(params));
        const sim::SystemResult res = sys.run();
        EXPECT_TRUE(res.halted) << "workload must finish in budget";
        return sys.guestState().gpr[g::EAX];
    };

    const uint32_t base = final_eax([](tol::TolConfig &) {});
    EXPECT_EQ(base, final_eax([](tol::TolConfig &c) {
                  c.enableChaining = false;
              }));
    EXPECT_EQ(base, final_eax([](tol::TolConfig &c) {
                  c.enableIbtc = false;
              }));
    EXPECT_EQ(base, final_eax([](tol::TolConfig &c) {
                  c.enableBbmOpts = false;
              }));
    EXPECT_EQ(base, final_eax([](tol::TolConfig &c) {
                  c.enableSbmOpts = false;
                  c.enableScheduling = false;
              }));
    EXPECT_EQ(base, final_eax([](tol::TolConfig &c) {
                  c.ibtcWays = 2;
              }));
    EXPECT_EQ(base, final_eax([](tol::TolConfig &c) {
                  c.bbToSbThreshold = 10;
              }));
    EXPECT_EQ(base, final_eax([](tol::TolConfig &c) {
                  c.codeCacheBytes = 16 * 1024;  // force flushes
              }));
}

TEST(SystemEquivalence, InterpreterOnlyMatchesFullStack)
{
    // With an unreachable IM/BB threshold everything stays in the
    // interpreter; the architectural result at program completion
    // must be identical to the fully-optimizing configuration's.
    workloads::BenchParams params = randomParams(4242);
    params.outerRepeats = 3;  // run to HALT within the budget

    auto run_with = [&params](uint32_t im_threshold) {
        sim::SimConfig cfg;
        cfg.cosim = true;
        cfg.cosimStrict = true;
        cfg.guestBudget = 5'000'000;
        cfg.tol.imToBbThreshold = im_threshold;
        cfg.tol.bbToSbThreshold = 100;
        sim::System sys(cfg);
        sys.load(workloads::buildBenchmark(params));
        const sim::SystemResult res = sys.run();
        EXPECT_TRUE(res.halted);
        return sys.guestState();
    };

    const g::State full = run_with(3);
    const g::State interp = run_with(0x7FFFFFFF);
    for (unsigned r = 0; r < g::NumGprs; ++r)
        EXPECT_EQ(full.gpr[r], interp.gpr[r]) << "GPR " << r;
    EXPECT_EQ(full.eip, interp.eip);
}
