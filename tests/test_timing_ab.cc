/**
 * @file
 * A/B determinism tests for the event-driven timing core: the
 * event-driven core must be bit-identical to the cycle-stepped
 * reference core — every cycle total, every accounting cell, every
 * cache/TLB/predictor counter, and the co-simulation state-checker
 * fingerprint — across the paper's four workload suites, randomized
 * record streams, an issue-width sweep (1, 2, 3, 4, 8, 16: the 1/W
 * fixed-point accounting must stay exact at every width), and the
 * pipeline edge events (zero-latency back-to-back issues,
 * simultaneous miss-completion + branch-resolve, flush mid-stall) and
 * the edges of full-width flow (branches, I-misses, stream tails).
 * See docs/timing-model.md for the equivalence argument these tests
 * enforce.
 */

#include <gtest/gtest.h>

#include "common/prng.hh"
#include "sim/metrics.hh"
#include "sim/system.hh"
#include "timing/pipeline.hh"
#include "workloads/params.hh"

using namespace darco;
using namespace darco::timing;

namespace {

/**
 * Exact equality of everything a pipeline instance measures, via
 * the shared timing::diffStats comparator (the same one the
 * engine_speed harness gate uses, so the covered field set cannot
 * drift between the two).
 */
void
expectStatsIdentical(const PipeStats &a, const PipeStats &b,
                     const char *label)
{
    const std::string diff = diffStats(a, b);
    EXPECT_TRUE(diff.empty()) << label << " diverged:\n" << diff;
}

/** Bucket totals must sum exactly to the cycle count (closure). */
void
expectAccountingCloses(const PipeStats &stats)
{
    // Exact closure at every issue width: every cycle contributes
    // exactly unitDenom integer units (split 1/k per issued
    // instruction, k | unitDenom by construction), so the unit sums
    // — associative, no rounding — must equal cycles * unitDenom.
    uint64_t units = 0, src_units = 0;
    for (unsigned b = 0; b < kNumBuckets; ++b) {
        for (unsigned m = 0; m < kNumModules; ++m)
            units += stats.bucketUnits[b][m];
        for (unsigned s = 0; s < 2; ++s)
            src_units += stats.bucketSrcUnits[b][s];
    }
    EXPECT_EQ(units, stats.cycles * stats.unitDenom);
    EXPECT_EQ(src_units, stats.cycles * stats.unitDenom);

    // The derived double totals close exactly when unitDenom is a
    // power of two (every cell is a dyadic rational; the paper's
    // W<=2 configs), and to rounding noise otherwise (1/3-style
    // shares have no finite binary representation in any scheme).
    double total = 0;
    for (unsigned b = 0; b < kNumBuckets; ++b)
        total += stats.bucketTotal(static_cast<Bucket>(b));
    const double src_total =
        stats.sourceCycles(false) + stats.sourceCycles(true);
    const double cycles = static_cast<double>(stats.cycles);
    if ((stats.unitDenom & (stats.unitDenom - 1)) == 0) {
        EXPECT_EQ(total, cycles);
        EXPECT_EQ(src_total, cycles);
    } else {
        EXPECT_NEAR(total, cycles, 1e-9 * cycles + 1e-9);
        EXPECT_NEAR(src_total, cycles, 1e-9 * cycles + 1e-9);
    }
}

// ----- record constructors (mirroring test_timing.cc) -------------------

Record
aluRec(uint32_t pc, uint8_t rd, uint8_t rs1, uint8_t rs2,
       Module mod = Module::App)
{
    Record rec;
    rec.pc = pc;
    rec.op = host::HOp::ADD;
    rec.rd = rd;
    rec.rs1 = rs1;
    rec.rs2 = rs2;
    rec.module = mod;
    rec.fromRegion = mod == Module::App;
    return rec;
}

Record
loadRec(uint32_t pc, uint8_t rd, uint32_t addr)
{
    Record rec;
    rec.pc = pc;
    rec.op = host::HOp::LD;
    rec.rd = rd;
    rec.rs1 = 40;
    rec.isLoad = true;
    rec.memAddr = addr;
    rec.size = 4;
    rec.fromRegion = true;
    return rec;
}

Record
branchRec(uint32_t pc, bool taken, uint32_t target, uint8_t rs1 = 33)
{
    Record rec;
    rec.pc = pc;
    rec.op = host::HOp::BNE;
    rec.rs1 = rs1;
    rec.rs2 = 0;
    rec.isBranch = true;
    rec.isCondBranch = true;
    rec.taken = taken;
    rec.branchTarget = taken ? target : 0;
    rec.fromRegion = true;
    return rec;
}

/**
 * Feed one stream to both cores (cycle-stepped reference and event
 * core), check them bit-identical and return the two finished stats.
 */
struct AbPair
{
    PipeStats stepped;
    PipeStats event;
};

AbPair
runAb(const std::vector<Record> &stream, bool batched,
      Pipeline::Filter filter = Pipeline::Filter::All,
      uint32_t issue_width = 2)
{
    TimingConfig stepped_cfg;
    stepped_cfg.eventCore = false;
    stepped_cfg.issueWidth = issue_width;
    TimingConfig event_cfg = stepped_cfg;
    event_cfg.eventCore = true;

    Pipeline stepped(stepped_cfg, filter);
    Pipeline event(event_cfg, filter);
    EXPECT_EQ(stepped.engine(), Pipeline::Engine::CycleStepped);
    EXPECT_EQ(event.engine(), Pipeline::Engine::EventDriven);

    if (batched) {
        // Uneven chunks so batch boundaries land mid-stall, mid-run
        // and mid-fetch; this also exercises the event core's
        // borrowed-batch (zero-copy) backlog path.
        size_t i = 0;
        size_t chunk = 1;
        while (i < stream.size()) {
            const size_t n = std::min(chunk, stream.size() - i);
            stepped.consumeBatch(stream.data() + i, n);
            event.consumeBatch(stream.data() + i, n);
            i += n;
            chunk = chunk * 3 % 509 + 1;
        }
    } else {
        for (const Record &rec : stream) {
            stepped.consume(rec);
            event.consume(rec);
        }
    }
    stepped.finish();
    event.finish();
    expectStatsIdentical(stepped.stats(), event.stats(),
                         batched ? "batched" : "per-record");
    expectAccountingCloses(event.stats());
    return {stepped.stats(), event.stats()};
}

/** Mixed fuzz stream: loads, stores, branches, FP chains, ALU ops. */
std::vector<Record>
makeFuzzStream(uint64_t seed, uint32_t count)
{
    Prng rng(seed);
    std::vector<Record> stream;
    for (uint32_t i = 0; i < count; ++i) {
        const double roll = rng.uniform();
        if (roll < 0.18) {
            stream.push_back(loadRec(
                0x1000 + 4 * (i % 64),
                static_cast<uint8_t>(34 + i % 4),
                static_cast<uint32_t>(rng.below(1u << 22))));
        } else if (roll < 0.30) {
            Record rec = loadRec(0x1200 + 4 * (i % 16), 38,
                                 static_cast<uint32_t>(
                                     rng.below(1u << 14)));
            rec.isLoad = false;
            rec.isStore = true;
            rec.op = host::HOp::ST;
            rec.rd = host::kNoReg;
            stream.push_back(rec);
        } else if (roll < 0.45) {
            stream.push_back(branchRec(0x2000 + 4 * (i % 8),
                                       rng.chance(0.5), 0x1000));
        } else if (roll < 0.55) {
            // Long-latency FP chain ops from a TOL module.
            Record rec;
            rec.pc = 0x3000 + 4 * (i % 32);
            rec.op = host::HOp::FDIV;
            rec.rd = fpRegId(16 + i % 4);
            rec.rs1 = fpRegId(16 + (i + 1) % 4);
            rec.rs2 = fpRegId(17);
            rec.module = Module::SBM;
            rec.fromRegion = false;
            stream.push_back(rec);
        } else {
            stream.push_back(aluRec(
                0x1000 + 4 * (i % 64),
                static_cast<uint8_t>(33 + i % 6), 32, 32,
                rng.chance(0.3) ? Module::IM : Module::App));
        }
    }
    return stream;
}

} // namespace

// ----- randomized stream fuzz -------------------------------------------

TEST(EventCoreAb, RandomStreamsBitIdentical)
{
    for (uint64_t seed : {3u, 11u, 42u}) {
        const std::vector<Record> stream = makeFuzzStream(seed, 30000);
        runAb(stream, false);
        runAb(stream, true);
        // Isolation filters take the staged (non-borrowed) path.
        runAb(stream, true, Pipeline::Filter::TolOnly);
        runAb(stream, true, Pipeline::Filter::AppOnly);
    }
}

TEST(EventCoreAb, WidthSweepBitIdentical)
{
    // The 1/W fixed-point accounting must keep the event core exact
    // at every width — including width 3, whose denominator
    // lcm(1..3) = 6 is not a power of two, and widths at or past the
    // 8-entry front-end buffer, which can retire more than the
    // front-end fetches per cycle. 16 is kMaxIssueWidth (the largest
    // denominator, lcm(1..16) = 720720).
    for (uint32_t width : {1u, 2u, 3u, 4u, 8u, 16u}) {
        const std::vector<Record> stream =
            makeFuzzStream(101 + width, 20000);
        runAb(stream, false, Pipeline::Filter::All, width);
        runAb(stream, true, Pipeline::Filter::All, width);
        runAb(stream, true, Pipeline::Filter::TolOnly, width);
    }
}

// ----- edge events -------------------------------------------------------

TEST(EventCoreAb, ZeroLatencyBackToBackIssues)
{
    // Dependent single-cycle chain: each ADD consumes the previous
    // result with no bubble (issue at t, ready at t+1, issue at t+1).
    std::vector<Record> chain;
    for (uint32_t i = 0; i < 6000; ++i)
        chain.push_back(aluRec(0x1000 + 4 * (i % 16), 33, 33, 33));
    const AbPair dep = runAb(chain, true);
    EXPECT_GT(dep.event.ipc(), 0.90);
    EXPECT_LT(dep.event.ipc(), 1.05);

    // Independent stream: back-to-back dual issue every cycle.
    std::vector<Record> indep;
    for (uint32_t i = 0; i < 6000; ++i)
        indep.push_back(aluRec(0x1000 + 4 * (i % 16),
                               static_cast<uint8_t>(33 + i % 8), 32,
                               32));
    const AbPair par = runAb(indep, true);
    EXPECT_GT(par.event.ipc(), 1.8);
}

TEST(EventCoreAb, SimultaneousMissCompletionAndBranchResolve)
{
    // Each round: a far-striding load (D-miss) feeding a conditional
    // branch with a random direction. The branch waits in the IQ on
    // the load's writeback and — when mispredicted — resolves in the
    // same cycle the miss completes, exercising the coincident
    // writeback + branch-resolve + redirect event path.
    Prng rng(7);
    std::vector<Record> stream;
    for (uint32_t i = 0; i < 4000; ++i) {
        stream.push_back(
            loadRec(0x1000, 34, 0x100000 + i * 4096));
        stream.push_back(
            branchRec(0x1004, rng.chance(0.5), 0x1000, 34));
        stream.push_back(aluRec(0x1008, 35, 32, 32));
    }
    const AbPair ab = runAb(stream, true);
    // The scenario must actually produce both event kinds.
    EXPECT_GT(ab.event.bp.mispredicts, 500u);
    EXPECT_GT(ab.event.bucketTotal(Bucket::DcacheBubble), 0.0);
    EXPECT_GT(ab.event.bucketTotal(Bucket::BranchBubble), 0.0);
}

TEST(EventCoreAb, FlushMidStall)
{
    // finish() arrives while the pipe is deep in a load-miss stall:
    // the drain must fast-forward through the tail stall identically
    // on both cores and close the accounting exactly.
    std::vector<Record> stream;
    for (uint32_t i = 0; i < 40; ++i)
        stream.push_back(aluRec(0x1000 + 4 * i, 33, 32, 32));
    stream.push_back(loadRec(0x1100, 34, 0x400000));  // cold miss
    stream.push_back(aluRec(0x1104, 35, 34, 34));     // stalls on it
    const AbPair ab = runAb(stream, false);
    EXPECT_GT(ab.event.bucketTotal(Bucket::DcacheBubble), 0.0);

    // Idempotence: a second finish() must not move anything.
    TimingConfig cfg;
    Pipeline pipe(cfg, Pipeline::Filter::All);
    for (const Record &rec : stream)
        pipe.consume(rec);
    pipe.finish();
    const uint64_t cycles = pipe.stats().cycles;
    pipe.finish();
    EXPECT_EQ(pipe.stats().cycles, cycles);
}

TEST(EventCoreAb, OversizedIqStillBitIdentical)
{
    // Regression: the borrowed-batch staging slot sits one past
    // IQ + FE, so the ring must be sized for large-IQ sweeps too. A
    // long FDIV chain keeps the IQ full while batches keep arriving.
    TimingConfig stepped_cfg;
    stepped_cfg.eventCore = false;
    stepped_cfg.iqSize = 128;
    TimingConfig event_cfg = stepped_cfg;
    event_cfg.eventCore = true;

    Pipeline stepped(stepped_cfg, Pipeline::Filter::All);
    Pipeline event(event_cfg, Pipeline::Filter::All);
    ASSERT_EQ(event.engine(), Pipeline::Engine::EventDriven);

    std::vector<Record> stream;
    for (uint32_t i = 0; i < 8000; ++i) {
        Record rec;
        rec.pc = 0x1000 + 4 * (i % 32);
        rec.op = host::HOp::FDIV;
        rec.rd = fpRegId(16);
        rec.rs1 = fpRegId(16);
        rec.rs2 = fpRegId(17);
        rec.fromRegion = true;
        stream.push_back(rec);
    }
    for (size_t i = 0; i < stream.size(); i += 256) {
        const size_t n = std::min<size_t>(256, stream.size() - i);
        stepped.consumeBatch(stream.data() + i, n);
        event.consumeBatch(stream.data() + i, n);
    }
    stepped.finish();
    event.finish();
    expectStatsIdentical(stepped.stats(), event.stats(),
                         "oversized IQ");
    expectAccountingCloses(event.stats());
}

TEST(EventCoreAb, EventCoreRunsAtEveryWidth)
{
    // Regression for the silent wide-issue fallback: with eventCore
    // requested, every supported width must actually run the event
    // core — no quiet switch to the reference core.
    for (uint32_t width = 1; width <= kMaxIssueWidth; ++width) {
        TimingConfig cfg;
        cfg.issueWidth = width;
        cfg.eventCore = true;
        Pipeline pipe(cfg, Pipeline::Filter::All);
        EXPECT_EQ(pipe.engine(), Pipeline::Engine::EventDriven)
            << "width " << width;
    }
}

// ----- full-width flow edge cases ----------------------------------------

TEST(FullWidthFlow, MispredictedBranchCutsGroup)
{
    // Independent ALU flow with conditional branches of random
    // direction sprinkled in: the pipeline issues full groups between
    // branches, and a mispredicted branch reaching the IQ head cuts
    // the group and redirects fetch. Swept across widths, including
    // width 8, where the 8-entry front-end buffer cannot hold two
    // fetch groups.
    for (uint32_t width : {1u, 2u, 3u, 4u, 8u}) {
        Prng rng(900 + width);
        std::vector<Record> stream;
        for (uint32_t i = 0; i < 20000; ++i) {
            if (rng.chance(1.0 / 30.0)) {
                stream.push_back(branchRec(0x2000 + 4 * (i % 8),
                                           rng.chance(0.5), 0x1000));
            } else {
                stream.push_back(aluRec(
                    0x1000 + 4 * (i % 16),
                    static_cast<uint8_t>(33 + i % 8), 32, 32));
            }
        }
        const AbPair ab =
            runAb(stream, true, Pipeline::Filter::All, width);
        EXPECT_GT(ab.event.bp.mispredicts, 100u) << "width " << width;
    }
}

TEST(FullWidthFlow, IMissCompletionMidWindow)
{
    // Monotonically advancing fetch PC: every 32nd record starts a
    // cold I-line, so an I-miss lands mid-flow while the backlog is
    // otherwise issuable at full width, and flow resumes after the
    // completion.
    for (uint32_t width : {1u, 2u, 3u, 4u, 8u}) {
        std::vector<Record> stream;
        for (uint32_t i = 0; i < 20000; ++i) {
            // 2-byte PC stride: 32 records per 64B line, so even at
            // width 4 each line sustains eight full-width cycles.
            stream.push_back(aluRec(
                0x10000 + 2 * i,
                static_cast<uint8_t>(33 + i % 8), 32, 32));
        }
        const AbPair ab =
            runAb(stream, true, Pipeline::Filter::All, width);
        EXPECT_GT(ab.event.l1i.misses, 500u) << "width " << width;
    }
}

TEST(FullWidthFlow, FlushAtGroupHead)
{
    // finish() arrives mid-flow: the drain's to-empty backlog rule
    // must retire the tail identically on both cores. Stream lengths
    // straddle group multiples so the tail is empty, partial, and
    // exactly one group across the sweep.
    for (uint32_t width : {1u, 2u, 3u, 4u, 8u}) {
        for (uint32_t tail = 0; tail < 3; ++tail) {
            std::vector<Record> stream;
            const uint32_t count = 4096 * width + tail;
            for (uint32_t i = 0; i < count; ++i) {
                stream.push_back(aluRec(
                    0x1000 + 4 * (i % 16),
                    static_cast<uint8_t>(33 + i % 8), 32, 32));
            }
            const AbPair ab =
                runAb(stream, false, Pipeline::Filter::All, width);
            EXPECT_EQ(ab.event.records, count);
        }
    }
}

TEST(FullWidthFlow, ZeroLatencyChainsAtFullWidth)
{
    // W interleaved single-cycle dependence chains: every slot of
    // every cycle consumes a value written the previous cycle
    // (zero-bubble back-to-back), so the stream flows at full width
    // with every source ready exactly on the cycle it issues.
    for (uint32_t width : {1u, 2u, 3u, 4u, 8u}) {
        std::vector<Record> stream;
        for (uint32_t i = 0; i < 20000; ++i) {
            const uint8_t reg = static_cast<uint8_t>(33 + i % width);
            stream.push_back(
                aluRec(0x1000 + 4 * (i % 16), reg, reg, reg));
        }
        runAb(stream, true, Pipeline::Filter::All, width);
    }
}

// ----- system-level A/B over the paper's four suites ---------------------

namespace {

struct SystemOutcome
{
    sim::SystemResult result;
    PipeStats combined;
    PipeStats tolOnly;
    PipeStats appOnly;
    PipeStats tolModule;
    uint64_t checkerCommits = 0;
    uint64_t checkerInsts = 0;
    size_t checkerFailures = 0;
};

SystemOutcome
runSystem(const workloads::BenchParams &params, bool event_core,
          uint32_t issue_width = 2)
{
    sim::SimConfig cfg;
    cfg.guestBudget = 250'000;
    cfg.cosim = true;
    cfg.cosimStrict = false;
    cfg.tolOnlyPipe = true;
    cfg.appOnlyPipe = true;
    cfg.tolModulePipe = true;
    cfg.timing.eventCore = event_core;
    cfg.timing.issueWidth = issue_width;

    sim::System sys(cfg);
    sys.load(workloads::buildBenchmark(params));
    SystemOutcome out;
    out.result = sys.run();
    out.combined = sys.combinedStats();
    out.tolOnly = *sys.tolOnlyStats();
    out.appOnly = *sys.appOnlyStats();
    out.tolModule = *sys.tolModuleStats();
    out.checkerCommits = sys.checker()->commits();
    out.checkerInsts = sys.checker()->instructionsChecked();
    out.checkerFailures = sys.checker()->failures().size();
    return out;
}

class SuiteAb : public ::testing::TestWithParam<const char *>
{};

} // namespace

TEST_P(SuiteAb, BitIdenticalAcrossCores)
{
    const auto members = workloads::suiteBenchmarks(GetParam());
    ASSERT_FALSE(members.empty());
    // The suite's first benchmark, end to end with co-simulation and
    // all three isolation pipelines live.
    const workloads::BenchParams &params = *members.front();

    const SystemOutcome stepped = runSystem(params, false);
    const SystemOutcome event = runSystem(params, true);

    // Functional outcome.
    EXPECT_EQ(stepped.result.guestRetired, event.result.guestRetired);
    EXPECT_EQ(stepped.result.halted, event.result.halted);
    EXPECT_EQ(stepped.result.cycles, event.result.cycles);
    EXPECT_EQ(stepped.result.memoryDiff, event.result.memoryDiff);
    EXPECT_TRUE(event.result.memoryDiff.empty())
        << event.result.memoryDiff;

    // State-checker fingerprint.
    EXPECT_EQ(stepped.checkerCommits, event.checkerCommits);
    EXPECT_EQ(stepped.checkerInsts, event.checkerInsts);
    EXPECT_EQ(stepped.checkerFailures, event.checkerFailures);
    EXPECT_EQ(event.checkerFailures, 0u);

    // Every pipeline instance, every metric, both cores.
    expectStatsIdentical(stepped.combined, event.combined, "combined");
    expectStatsIdentical(stepped.tolOnly, event.tolOnly, "tol-only");
    expectStatsIdentical(stepped.appOnly, event.appOnly, "app-only");
    expectStatsIdentical(stepped.tolModule, event.tolModule,
                         "tol-module");
    expectAccountingCloses(event.combined);
}

INSTANTIATE_TEST_SUITE_P(FourSuites, SuiteAb,
                         ::testing::Values("SPEC INT", "SPEC FP",
                                           "Physics", "Media"),
                         [](const auto &info) {
                             std::string name = info.param;
                             for (char &c : name)
                                 if (c == ' ')
                                     c = '_';
                             return name;
                         });

// ----- system-level issue-width sweep ------------------------------------

class WidthSweepAb : public ::testing::TestWithParam<uint32_t>
{};

TEST_P(WidthSweepAb, BitIdenticalAcrossCores)
{
    // End-to-end A/B at a non-default issue width: co-simulation and
    // all isolation pipelines live, every metric compared with the
    // bit-identical contract. Covers the configs the paper's
    // microarchitectural sweeps visit (the old event core silently
    // fell back to the reference core above width 2).
    const uint32_t width = GetParam();
    const auto members = workloads::suiteBenchmarks("SPEC INT");
    ASSERT_FALSE(members.empty());
    const workloads::BenchParams &params = *members.front();

    const SystemOutcome stepped = runSystem(params, false, width);
    const SystemOutcome event = runSystem(params, true, width);

    EXPECT_EQ(stepped.result.guestRetired, event.result.guestRetired);
    EXPECT_EQ(stepped.result.cycles, event.result.cycles);
    EXPECT_EQ(stepped.checkerCommits, event.checkerCommits);
    EXPECT_EQ(event.checkerFailures, 0u);

    expectStatsIdentical(stepped.combined, event.combined, "combined");
    expectStatsIdentical(stepped.tolOnly, event.tolOnly, "tol-only");
    expectStatsIdentical(stepped.appOnly, event.appOnly, "app-only");
    expectStatsIdentical(stepped.tolModule, event.tolModule,
                         "tol-module");
    expectAccountingCloses(event.combined);
    expectAccountingCloses(event.tolOnly);
}

INSTANTIATE_TEST_SUITE_P(Widths, WidthSweepAb,
                         ::testing::Values(1u, 2u, 3u, 4u, 8u, 16u),
                         [](const auto &info) {
                             return "w" + std::to_string(info.param);
                         });

// ----- two-way sweep over all 48 paper workloads -------------------------

TEST(TwoWayAb, AllWorkloadsBitIdentical)
{
    // Every paper benchmark, end to end, on both cores. Lighter
    // per-run config than SuiteAb (no co-simulation, no isolation
    // pipelines, smaller budget) so the full 48x2 sweep stays
    // test-suite fast; the budget-scaled promotion threshold keeps
    // the runs inside the IM -> BBM -> SBM staging where the record
    // mix is richest.
    const uint64_t budget = 100'000;
    for (const workloads::BenchParams &params :
         workloads::allBenchmarks()) {
        sim::SystemResult results[2];
        PipeStats stats[2];
        for (int mode = 0; mode < 2; ++mode) {
            sim::SimConfig cfg;
            cfg.guestBudget = budget;
            cfg.tol.bbToSbThreshold = sim::scaledSbThreshold(budget);
            cfg.timing.eventCore = mode != 0;
            sim::System sys(cfg);
            sys.load(workloads::buildBenchmark(params));
            results[mode] = sys.run();
            stats[mode] = sys.combinedStats();
        }
        EXPECT_EQ(results[0].guestRetired, results[1].guestRetired)
            << params.name;
        EXPECT_EQ(results[0].cycles, results[1].cycles)
            << params.name;
        expectStatsIdentical(stats[0], stats[1],
                             (params.name + " event").c_str());
        expectAccountingCloses(stats[1]);
    }
}
