/**
 * @file
 * Simulator-throughput harness: measures host speed (process-CPU
 * time, robust on shared machines) of the engine's hottest execution
 * modes (pure interpretation, steady-state translated execution, the
 * default mixed pipeline, a stall-heavy memory-bound run, and
 * trace-driven replays of the mixed/stall-heavy workloads) in
 * guest-MIPS, host-records/s and simulated-cycles/s, and emits
 * BENCH_engine.json so every future PR has a perf trajectory to
 * compare against. Workloads resolve through the source registry
 * (source://synthetic/..., source://trace/...); the trace scenarios
 * capture their input at startup and hard-fail unless the replay
 * reproduces the capture run's pinned determinism fields.
 *
 * Every scenario runs twice — once on the cycle-stepped reference
 * timing core and once on the event-driven core — and the harness
 * hard-fails unless the two produce bit-identical metrics (every
 * cycle total, every bucket cell, every cache/TLB/predictor counter).
 * The engine is deterministic, so any divergence is a semantics
 * change, not an optimization; the per-scenario event_core_speedup
 * field in the JSON is the load-matched A/B this enforces. See
 * docs/timing-model.md for the equivalence argument.
 *
 * The baseline_* constants below were measured at the commit
 * immediately before the PR-1 hot-path overhaul (seed engine), with
 * the identical harness, budgets, and build flags.
 */

#include <cinttypes>
#include <cstring>

#include "bench_util.hh"
#include "sim/system.hh"
#include "workloads/source.hh"

namespace {

using namespace darco;

/** One timed configuration of the engine. */
struct Scenario
{
    const char *name;
    /** Workload URI (source://synthetic/... or source://trace/...). */
    const char *workload;
    /** Run recipe; ignored for trace workloads, which re-apply the
     *  recipe pinned at capture time. */
    uint64_t budget;
    bool interpretOnly;
    uint32_t sbThreshold;
    double baselineGuestMips;
    double baselineHostInstPerSec;
    /** Host issue width (wide-issue scenarios sweep past 2). */
    uint32_t issueWidth = 2;
};

/** One scenario outcome: the result plus a full metrics snapshot. */
struct RunOutcome
{
    sim::SystemResult result;
    timing::PipeStats stats;
    timing::Pipeline::Engine engine =
        timing::Pipeline::Engine::CycleStepped;
    double seconds = 0;
    /** Whether a characterization profiler was live in the timed
     *  System (recorded from the instance, not the requested config,
     *  so a silent re-route shows up in the committed JSON). */
    bool profiled = false;
    /** Whether the IR/regalloc verifier was live in the timed System
     *  (same discipline: read back from the live runtime). */
    bool verified = false;
};

RunOutcome
runScenario(const Scenario &sc, bool event_core, bool verify_ir = false)
{
    const workloads::Workload workload =
        workloads::resolveWorkload(sc.workload);

    sim::SimConfig cfg;
    cfg.guestBudget = sc.budget;
    cfg.tol.bbToSbThreshold = sc.sbThreshold;
    // Perf baselines time the bare engine: the IR/regalloc verifier
    // (default-on under ctest) re-derives dataflow for every
    // translation, which is translation-path work a throughput
    // trajectory must not include. check_perf.py pins "verify": "off"
    // on every committed scenario; the verify_ir override exists for
    // the informational overhead A/B below, which never reaches the
    // reporter.
    cfg.tol.verifyIr = verify_ir;
    cfg.timing.eventCore = event_core;
    cfg.timing.issueWidth = sc.issueWidth;
    if (sc.interpretOnly)
        cfg.tol.imToBbThreshold = 0xFFFFFFFFu;
    // Bit-identical replay: a trace's capture-time recipe wins over
    // the scenario fields (which are 0 for trace scenarios).
    sim::applyCaptureRecipe(cfg, workload);

    sim::System sys(cfg);
    sys.load(workload);

    bench::CpuTimer timer;
    RunOutcome out;
    out.result = sys.run();
    out.seconds = timer.seconds();
    out.stats = sys.combinedStats();
    out.engine = sys.timingEngine();
    out.profiled = sys.profileCollector() != nullptr;
    out.verified = sys.tolRuntime().config().verifyIr;

    if (workload.capturedPins) {
        // A replayed trace must reproduce the capture run's pinned
        // determinism fields on either timing core.
        const trace::TracePins &pins = *workload.capturedPins;
        fatal_if(out.result.guestRetired != pins.guestRetired ||
                     out.result.cycles != pins.simCycles ||
                     out.stats.records != pins.hostRecords,
                 "trace replay diverged from capture pins on %s: "
                 "guest %llu/%llu cycles %llu/%llu records %llu/%llu",
                 sc.name,
                 static_cast<unsigned long long>(
                     out.result.guestRetired),
                 static_cast<unsigned long long>(pins.guestRetired),
                 static_cast<unsigned long long>(out.result.cycles),
                 static_cast<unsigned long long>(pins.simCycles),
                 static_cast<unsigned long long>(out.stats.records),
                 static_cast<unsigned long long>(pins.hostRecords));
    }
    return out;
}

/**
 * Capture a synthetic workload to a replayable binary trace in the
 * CWD (next to BENCH_engine.json). The capture run doubles as the
 * live run whose determinism fields are pinned inside the trace.
 */
void
captureTrace(const char *benchmark, uint64_t budget,
             uint32_t sb_threshold, const char *path)
{
    sim::SimConfig cfg;
    cfg.guestBudget = budget;
    cfg.tol.bbToSbThreshold = sb_threshold;
    cfg.timing.eventCore = true;
    cfg.captureTracePath = path;
    sim::System sys(cfg);
    sys.load(workloads::resolveWorkload(
        workloads::syntheticUri(benchmark)));
    sys.run();
}

/**
 * Bit-exact comparison of everything both timing cores measure,
 * via the shared timing::diffStats comparator (the same one the A/B
 * determinism tests use, so the covered field set cannot drift).
 */
void
expectIdentical(const char *scenario, const RunOutcome &stepped,
                const RunOutcome &event)
{
    // The A/B is only an A/B if the requested cores actually ran:
    // a silent fallback would compare the reference core to itself
    // and certify nothing (the committed timing_core field plus
    // check_perf.py guard the same property across PRs).
    fatal_if(event.engine != timing::Pipeline::Engine::EventDriven,
             "scenario %s: event-core run fell back to the "
             "reference core",
             scenario);
    fatal_if(stepped.engine != timing::Pipeline::Engine::CycleStepped,
             "scenario %s: reference run used the event core",
             scenario);
    fatal_if(stepped.result.guestRetired != event.result.guestRetired,
             "A/B mismatch on %s: guest_retired %llu != %llu",
             scenario,
             static_cast<unsigned long long>(
                 stepped.result.guestRetired),
             static_cast<unsigned long long>(
                 event.result.guestRetired));
    const std::string diff =
        timing::diffStats(stepped.stats, event.stats);
    fatal_if(!diff.empty(),
             "event-driven core diverged from the reference core on "
             "%s:\n%s",
             scenario, diff.c_str());
}

} // namespace

int
main(int argc, char **argv)
{
    // Budgets are fixed per scenario so results stay comparable
    // across PRs; parse() still provides --help and arg validation.
    const bench::BenchArgs args = bench::BenchArgs::parse(argc, argv);
    // engine_speed is intentionally serial: every sample is a
    // process-CPU timing of ONE simulation owning the whole process,
    // and the committed BENCH_engine.json trajectory is only
    // comparable under that condition. Concurrent jobs would share
    // caches/bandwidth and poison the measurements (the figure
    // sweeps parallelize fine — their output is simulated
    // quantities, not host timings). check_perf.py enforces the
    // matching "execution": "serial" field on every committed
    // scenario.
    fatal_if(args.jobs > 1,
             "engine_speed is intentionally serial (--jobs=%u "
             "rejected): its samples are host timings, and sharing "
             "the process with concurrent jobs would corrupt the "
             "committed perf trajectory",
             args.jobs);

    bench::ThroughputReporter reporter("engine_speed");

    // Baselines: pre-optimization engine (seed src/, Release build,
    // no IPO/PGO), same harness and budgets, median of 6 interleaved
    // A/B rounds on the same machine (process CPU time).
    const Scenario scenarios[] = {
        {"interpreter", "source://synthetic/464.h264ref", 250'000,
         true, 300, 0.947, 18.0e6},
        {"translated", "source://synthetic/464.h264ref", 2'000'000,
         false, 300, 9.093, 19.8e6},
        {"mixed_464.h264ref", "source://synthetic/464.h264ref",
         1'000'000, false, 1000, 7.802, 19.9e6},
        // Stall-heavy pointer chasing: most cycles are load-miss or
        // TLB stalls, the regime where the event core advances many
        // simulated cycles per host op. No seed baseline (added with
        // the event core); cycles_per_host_record and
        // sim_cycles_per_sec are its headline columns.
        {"stallheavy_429.mcf", "source://synthetic/429.mcf",
         1'000'000, false, 1000, 0, 0},
        // Wide-issue sweep points: the event core used to silently
        // fall back to the reference core above width 2, so these
        // scenarios exist to pin event_core_speedup > 1 at the
        // widths the paper's microarchitectural sweeps visit. Width
        // 3 additionally exercises the non-power-of-two fixed-point
        // denominator (lcm(1..3) = 6).
        {"wide3_464.h264ref", "source://synthetic/464.h264ref",
         1'000'000, false, 1000, 0, 0, 3},
        {"wide4_429.mcf", "source://synthetic/429.mcf", 1'000'000,
         false, 1000, 0, 0, 4},
        // Trace-driven replay: the same workloads as the mixed and
        // stall-heavy scenarios, sourced from binary traces captured
        // at startup (capture -> replay on every harness run). The
        // replay must reproduce the trace's pinned determinism
        // fields exactly (runScenario asserts it in-process), so the
        // committed JSON rows for these scenarios are CI's proof
        // that trace round-trips stay bit-identical — their
        // guest_retired/sim_cycles/host_records equal the
        // mixed_464.h264ref / stallheavy_429.mcf rows by
        // construction.
        {"trace_464.h264ref",
         "source://trace/engine_speed_464.h264ref.dtrc", 0, false, 0,
         0, 0},
        {"trace_429.mcf", "source://trace/engine_speed_429.mcf.dtrc",
         0, false, 0, 0, 0},
    };

    // Capture the trace scenarios' inputs before any timing: the
    // capture runs also pin the determinism fields the replays are
    // checked against.
    std::fprintf(stderr, "  capturing replay traces ...\n");
    captureTrace("464.h264ref", 1'000'000, 1000,
                 "engine_speed_464.h264ref.dtrc");
    captureTrace("429.mcf", 1'000'000, 1000,
                 "engine_speed_429.mcf.dtrc");

    for (const Scenario &sc : scenarios) {
        std::fprintf(stderr, "  running %-20s (A/B) ...\n", sc.name);
        const RunOutcome stepped = runScenario(sc, false);
        const RunOutcome event = runScenario(sc, true);
        expectIdentical(sc.name, stepped, event);

        const timing::PipeStats &ps = event.stats;
        bench::ThroughputSample sample;
        sample.name = sc.name;
        sample.guestRetired = event.result.guestRetired;
        sample.hostRecords = ps.records;
        sample.cycles = event.result.cycles;
        sample.seconds = event.seconds;
        sample.timingCore =
            event.engine == timing::Pipeline::Engine::EventDriven
                ? "event" : "reference";
        sample.steppedSeconds = stepped.seconds;
        // Perf baselines time the bare engine: characterization
        // profiling must stay off (check_perf.py pins this in the
        // committed JSON).
        sample.profile =
            (event.profiled || stepped.profiled) ? "on" : "off";
        sample.verify =
            (event.verified || stepped.verified) ? "on" : "off";
        // engine_speed drives System directly, never the BatchRunner,
        // so no result cache can replay a snapshot into a timed run;
        // the field pins that fact in the committed JSON
        // (check_perf.py rejects anything but "off").
        sample.cache = "off";
        reporter.add(sample);
        if (sc.baselineGuestMips > 0) {
            reporter.addBaseline(sc.name, sc.baselineGuestMips,
                                 sc.baselineHostInstPerSec);
        }

        // Determinism fingerprint: simulated quantities only (no wall
        // clock). Must not change across speed optimizations.
        std::fprintf(
            stderr,
            "  fingerprint %s: guest=%" PRIu64 " records=%" PRIu64
            " cycles=%" PRIu64 " l1d=%" PRIu64 "/%" PRIu64
            " l1i=%" PRIu64 "/%" PRIu64 " l2=%" PRIu64 "/%" PRIu64
            " tlb=%" PRIu64 "/%" PRIu64 " bp=%" PRIu64 "/%" PRIu64
            " ipc=%.6f\n",
            sc.name, event.result.guestRetired, ps.records,
            event.result.cycles, ps.l1d.accesses, ps.l1d.misses,
            ps.l1i.accesses, ps.l1i.misses, ps.l2.accesses,
            ps.l2.misses, ps.tlb.accesses, ps.tlb.l1Misses,
            ps.bp.branches, ps.bp.mispredicts, ps.ipc());
        std::fprintf(stderr,
                     "  a/b %s: stepped=%.3fs event=%.3fs "
                     "speedup=%.2fx cycles/record=%.3f\n",
                     sc.name, stepped.seconds, event.seconds,
                     stepped.seconds / event.seconds,
                     sample.cyclesPerRecord());
    }

    // Informational verify:on A/B (never committed): re-run the
    // mixed scenario with the IR/regalloc verifier live and report
    // its overhead. The verifier is a pure observer, so the run must
    // reproduce the unverified run's determinism fields bit-exactly —
    // hard-enforced here, since any drift would mean verification
    // changed engine semantics and the "verification is free to turn
    // on" contract (docs/analysis.md) is broken.
    {
        const Scenario &sc = scenarios[2];  // mixed_464.h264ref
        std::fprintf(stderr,
                     "  running %-20s (verify:on, informational) "
                     "...\n",
                     sc.name);
        const RunOutcome plain = runScenario(sc, true);
        const RunOutcome verified = runScenario(sc, true, true);
        fatal_if(!verified.verified || plain.verified,
                 "verify A/B wiring broken: verified run reports "
                 "verifyIr=%d, plain run %d",
                 verified.verified ? 1 : 0, plain.verified ? 1 : 0);
        fatal_if(verified.result.guestRetired !=
                         plain.result.guestRetired ||
                     verified.result.cycles != plain.result.cycles ||
                     verified.stats.records != plain.stats.records,
                 "IR verification changed determinism fields on %s: "
                 "guest %llu/%llu cycles %llu/%llu records %llu/%llu "
                 "(the verifier must be a pure observer)",
                 sc.name,
                 static_cast<unsigned long long>(
                     verified.result.guestRetired),
                 static_cast<unsigned long long>(
                     plain.result.guestRetired),
                 static_cast<unsigned long long>(
                     verified.result.cycles),
                 static_cast<unsigned long long>(plain.result.cycles),
                 static_cast<unsigned long long>(
                     verified.stats.records),
                 static_cast<unsigned long long>(plain.stats.records));
        std::fprintf(stderr,
                     "  verify overhead %s: off=%.3fs on=%.3fs "
                     "(%.1f%%; determinism fields bit-identical)\n",
                     sc.name, plain.seconds, verified.seconds,
                     100.0 * (verified.seconds / plain.seconds - 1.0));
    }

    reporter.write();
    return 0;
}
