/**
 * @file
 * darco_bench: the end-to-end and per-layer benchmark of the
 * simulator (benchmark/README.md).
 *
 * One invocation runs one workload in this process and prints every
 * metric by name with its unit, checks that the simulated outputs are
 * correct, and ends with one JSON line:
 *
 *   {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
 *
 * The metrics are the end-to-end ones (BENCHMARK.json "end_to_end"),
 * or, with --trace, the per-layer ones ("per_layer"). End-to-end
 * numbers are always measured with tracing off; a traced run is one
 * extra pass after the measured ones.
 *
 * Layers are timed from outside the library: the traced pass rebuilds
 * sim::System from its public parts (tol::Runtime, timing::Pipeline,
 * sim::StateChecker) and wraps every call into a layer in a span. The
 * rebuilt wiring must be bit-identical to System — every traced run is
 * compared against an untraced one with timing::diffStats and
 * tol::diffTolStats, and a divergence counts as a failed check.
 *
 * Usage:
 *   darco_bench --workload=NAME [--seed=N] [--seconds=S]
 *               [--trace=SPANS.jsonl] [--json=OUT.json]
 *               [--work-dir=DIR]
 *   darco_bench --selftest --benchmark-json=BENCHMARK.json
 */

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/logging.hh"
#include "guest/emulator.hh"
#include "runner/batch_runner.hh"
#include "runner/result_cache.hh"
#include "runner/snapshot_codec.hh"
#include "sim/metrics.hh"
#include "sim/state_checker.hh"
#include "sim/system.hh"
#include "timing/pipeline.hh"
#include "tol/runtime.hh"
#include "workloads/params.hh"
#include "workloads/source.hh"

namespace {

using namespace darco;
using Clock = std::chrono::steady_clock;
namespace fs = std::filesystem;

// ---------------------------------------------------------------------
// Metric catalog: the single list the printer, the JSON writers and
// the self-test (against BENCHMARK.json) all read.
// ---------------------------------------------------------------------

struct MetricDef
{
    const char *name;
    const char *unit;
};

const MetricDef kEndToEnd[] = {
    {"wall_s", "s"},
    {"cpu_s", "s"},
    {"guest_mips", "MIPS"},
    {"setup_s", "s"},
    {"peak_rss_mb", "MB"},
};

const MetricDef kPerLayer[] = {
    {"workloads.resolve_s", "s"},
    {"sim.construct_load_s", "s"},
    {"tol.self_s", "s"},
    {"tol.functional_mips", "MIPS"},
    {"tol.records_per_guest", "ratio"},
    {"tol.verify_s", "s"},
    {"timing.all_s", "s"},
    {"timing.tol_only_s", "s"},
    {"timing.app_only_s", "s"},
    {"timing.tol_module_s", "s"},
    {"timing.ns_per_record", "ns"},
    {"guest.checker_s", "s"},
    {"guest.emulator_mips", "MIPS"},
    {"guest.insts_checked", "count"},
    {"runner.busy_frac", "frac"},
    {"runner.job_p50_s", "s"},
    {"runner.job_p90_s", "s"},
    {"runner.job_n", "count"},
    {"runner.cache_store_ms", "ms"},
    {"runner.cache_lookup_ms", "ms"},
    {"runner.entry_kb", "kB"},
    {"runner.jobs", "count"},
    {"runner.simulated", "count"},
    {"runner.cache_hits", "count"},
    {"runner.cache_misses", "count"},
    {"runner.cache_bypass", "count"},
    {"runner.deduped", "count"},
    {"runner.hit_rate", "frac"},
    {"tol.dyn_im", "count"},
    {"tol.dyn_bbm", "count"},
    {"tol.dyn_sbm", "count"},
    {"tol.bbs_translated", "count"},
    {"tol.sbs_created", "count"},
    {"timing.records", "count"},
    {"timing.sim_cycles", "cycles"},
    {"timing.ipc", "ratio"},
    {"timing.burst_fraction", "frac"},
    {"timing.l1d_miss_rate", "frac"},
    {"timing.l1i_miss_rate", "frac"},
    {"timing.l2_miss_rate", "frac"},
    {"timing.dtlb_miss_rate", "frac"},
    {"timing.bp_mispredict_rate", "frac"},
    {"timing.tol_cycle_frac", "frac"},
    {"timing.bucket_insts_frac", "frac"},
    {"timing.bucket_dcache_frac", "frac"},
    {"timing.bucket_icache_frac", "frac"},
    {"timing.bucket_branch_frac", "frac"},
    {"timing.bucket_sched_frac", "frac"},
    {"bench.trace_overhead", "frac"},
    {"bench.repeats", "count"},
};

/** Workload names, as BENCHMARK.json lists them. */
const char *const kWorkloads[] = {"steady_464", "cosim_48",
                                  "campaign_cold", "campaign_warm"};

// ---------------------------------------------------------------------
// Host clocks and process counters
// ---------------------------------------------------------------------

const Clock::time_point kProcessStart = Clock::now();

uint64_t
nowNs()
{
    return static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            Clock::now() - kProcessStart)
            .count());
}

double
secondsSince(uint64_t start_ns)
{
    return static_cast<double>(nowNs() - start_ns) * 1e-9;
}

/** Process user + system CPU seconds (all threads). */
double
cpuSeconds()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    auto sec = [](const timeval &tv) {
        return static_cast<double>(tv.tv_sec) +
               static_cast<double>(tv.tv_usec) * 1e-6;
    };
    return sec(ru.ru_utime) + sec(ru.ru_stime);
}

/**
 * Peak resident set of this process image, in MiB. VmHWM, unlike
 * getrusage's ru_maxrss, is not inherited across exec from a larger
 * parent (such as the Python launcher).
 */
double
peakRssMb()
{
    std::ifstream status("/proc/self/status");
    for (std::string line; std::getline(status, line);) {
        if (line.rfind("VmHWM:", 0) == 0)
            return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0;
    std::sort(v.begin(), v.end());
    const size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/** Nearest-rank percentile (0 < p <= 1) of @p v. */
double
percentile(std::vector<double> v, double p)
{
    if (v.empty())
        return 0;
    std::sort(v.begin(), v.end());
    const auto rank = static_cast<size_t>(
        std::ceil(p * static_cast<double>(v.size())));
    return v[std::clamp<size_t>(rank, 1, v.size()) - 1];
}

double
ratio(double num, double den)
{
    return den > 0 ? num / den : 0;
}

// ---------------------------------------------------------------------
// Spans: host time aggregated per (layer, run), kept in memory and
// written out when the benchmark ends.
// ---------------------------------------------------------------------

struct Span
{
    std::string layer;
    std::string run;
    std::string parent;
    uint64_t startNs = 0;
    uint64_t endNs = 0;
    uint64_t busyNs = 0;
    uint64_t calls = 0;
    /** Work handed to the layer across the calls (records, for the
     *  timing pipelines), so ratios come from where the work happens. */
    uint64_t items = 0;

    void
    add(uint64_t start, uint64_t end)
    {
        if (!calls)
            startNs = start;
        endNs = end;
        busyNs += end - start;
        ++calls;
    }
};

class SpanLog
{
  public:
    /** The span of @p layer in @p run (created on first use; the
     *  reference stays valid for the log's lifetime). */
    Span &
    at(const std::string &layer, const std::string &run,
       const std::string &parent)
    {
        Span &s = spans[{run, layer}];
        s.layer = layer;
        s.run = run;
        s.parent = parent;
        return s;
    }

    /** Busy seconds of @p layer summed over every run. */
    double
    busy(const std::string &layer) const
    {
        uint64_t ns = 0;
        for (const auto &[key, s] : spans) {
            if (s.layer == layer)
                ns += s.busyNs;
        }
        return static_cast<double>(ns) * 1e-9;
    }

    /** Items of @p layer summed over every run. */
    double
    items(const std::string &layer) const
    {
        uint64_t n = 0;
        for (const auto &[key, s] : spans) {
            if (s.layer == layer)
                n += s.items;
        }
        return static_cast<double>(n);
    }

    /** Busy seconds of @p layer minus those of its child spans. */
    double
    self(const std::string &layer) const
    {
        int64_t ns = 0;
        for (const auto &[key, s] : spans) {
            if (s.layer == layer)
                ns += static_cast<int64_t>(s.busyNs);
            else if (s.parent == layer)
                ns -= static_cast<int64_t>(s.busyNs);
        }
        return static_cast<double>(ns) * 1e-9;
    }

    void
    writeJsonl(const std::string &path) const
    {
        FILE *out = std::fopen(path.c_str(), "w");
        fatal_if(!out, "cannot open span file '%s'", path.c_str());
        for (const auto &[key, s] : spans) {
            std::fprintf(out,
                         "{\"layer\":\"%s\",\"run\":\"%s\","
                         "\"start_ns\":%" PRIu64 ",\"end_ns\":%" PRIu64
                         ",\"busy_ns\":%" PRIu64 ",\"calls\":%" PRIu64
                         ",\"items\":%" PRIu64 ",\"parent\":\"%s\"}\n",
                         s.layer.c_str(), s.run.c_str(), s.startNs,
                         s.endNs, s.busyNs, s.calls, s.items,
                         s.parent.c_str());
        }
        fatal_if(std::fclose(out) != 0, "cannot write span file '%s'",
                 path.c_str());
    }

  private:
    std::map<std::pair<std::string, std::string>, Span> spans;
};

/** Adds the enclosing scope's interval to a span. */
class Timed
{
  public:
    explicit Timed(Span &s) : span(s), start(nowNs()) {}
    ~Timed() { span.add(start, nowNs()); }

    Timed(const Timed &) = delete;
    Timed &operator=(const Timed &) = delete;

  private:
    Span &span;
    uint64_t start;
};

/** A record sink that times each call into the sink it wraps. */
class TimedSink : public timing::RecordSink
{
  public:
    TimedSink(timing::RecordSink &inner_sink, Span &s)
        : inner(inner_sink), span(s)
    {}

    void
    consume(const timing::Record &rec) override
    {
        Timed t(span);
        ++span.items;
        inner.consume(rec);
    }

    void
    consumeBatch(const timing::Record *recs, size_t count) override
    {
        Timed t(span);
        span.items += count;
        inner.consumeBatch(recs, count);
    }

  private:
    timing::RecordSink &inner;
    Span &span;
};

/** A commit observer that times each call into the one it wraps. */
class TimedObserver : public tol::CommitObserver
{
  public:
    TimedObserver(tol::CommitObserver &inner_obs, Span &s)
        : inner(inner_obs), span(s)
    {}

    void
    onCommit(uint64_t retired, const guest::State &state,
             uint8_t known_flags) override
    {
        Timed t(span);
        inner.onCommit(retired, state, known_flags);
    }

  private:
    tol::CommitObserver &inner;
    Span &span;
};

/** Counts records and drops them: the functional-only runs. */
class NullSink : public timing::RecordSink
{
  public:
    void consume(const timing::Record &) override { ++records; }
    void consumeBatch(const timing::Record *, size_t count) override
    {
        records += count;
    }

    uint64_t records = 0;
};

// ---------------------------------------------------------------------
// The traced wiring: sim::System rebuilt from public parts, with a
// span around every layer call. Mirrors System's constructor, load()
// and run() (src/sim/system.cc); the self-test and every traced pass
// prove it bit-identical.
// ---------------------------------------------------------------------

class TracedSystem
{
  public:
    TracedSystem(const sim::SimConfig &config, SpanLog &log,
                 const std::string &run_name)
        : cfg(config), spans(log), run(run_name)
    {
        fatal_if(cfg.profile || !cfg.captureTracePath.empty(),
                 "traced wiring: profiling and capture are not wired");
        addPipe(timing::Pipeline::Filter::All, "timing.all");
        if (cfg.tolOnlyPipe)
            addPipe(timing::Pipeline::Filter::TolOnly, "timing.tol_only");
        if (cfg.appOnlyPipe)
            addPipe(timing::Pipeline::Filter::AppOnly, "timing.app_only");
        if (cfg.tolModulePipe) {
            addPipe(timing::Pipeline::Filter::TolModule,
                    "timing.tol_module");
        }
        runtime = std::make_unique<tol::Runtime>(cfg.tol, hostMem, fanout);
    }

    TracedSystem(const TracedSystem &) = delete;
    TracedSystem &operator=(const TracedSystem &) = delete;

    void
    load(const guest::Program &program)
    {
        runtime->load(program);
        if (cfg.cosim) {
            authEmu.reset(program);
            checker = std::make_unique<sim::StateChecker>(
                authEmu, cfg.cosimStrict);
            observer = std::make_unique<TimedObserver>(
                *checker, spans.at("guest.checker", run, "tol"));
            runtime->setObserver(observer.get());
        }
    }

    sim::RunSnapshot
    runToEnd()
    {
        Timed whole(spans.at("sim.run", run, ""));
        tol::Runtime::RunResult rr;
        {
            Timed t(spans.at("tol", run, "sim.run"));
            rr = runtime->run(cfg.guestBudget, cfg.cancel);
        }
        for (Pipe &p : pipes) {
            Timed t(spans.at(p.layer + ".drain", run, "sim.run"));
            p.pipe->finish();
        }
        sim::RunSnapshot snap;
        snap.result.guestRetired = rr.guestRetired;
        snap.result.halted = rr.halted;
        snap.result.cancelled = rr.cancelled;
        snap.result.cycles = pipes[0].pipe->stats().cycles;
        if (cfg.cosim && !rr.cancelled) {
            Timed t(spans.at("sim.memcmp", run, "sim.run"));
            snap.result.memoryDiff =
                sim::compareGuestMemory(authMem, hostMem);
        }
        snap.stats = pipes[0].pipe->stats();
        snap.tolStats = runtime->stats();
        for (const Pipe &p : pipes) {
            if (p.filter == timing::Pipeline::Filter::TolOnly)
                snap.tolOnly = p.pipe->stats();
            else if (p.filter == timing::Pipeline::Filter::AppOnly)
                snap.appOnly = p.pipe->stats();
            else if (p.filter == timing::Pipeline::Filter::TolModule)
                snap.tolModule = p.pipe->stats();
        }
        snap.timingCore = pipes[0].pipe->engine() ==
                                  timing::Pipeline::Engine::EventDriven
                              ? "event" : "reference";
        return snap;
    }

    /** Co-simulation checker (nullptr without cosim). */
    const sim::StateChecker *stateChecker() const { return checker.get(); }

  private:
    struct Pipe
    {
        timing::Pipeline::Filter filter;
        std::string layer;
        std::unique_ptr<timing::Pipeline> pipe;
        std::unique_ptr<TimedSink> sink;
    };

    void
    addPipe(timing::Pipeline::Filter filter, const std::string &layer)
    {
        Pipe p;
        p.filter = filter;
        p.layer = layer;
        p.pipe = std::make_unique<timing::Pipeline>(cfg.timing, filter);
        p.sink = std::make_unique<TimedSink>(*p.pipe,
                                             spans.at(layer, run, "tol"));
        fanout.add(p.sink.get());
        pipes.push_back(std::move(p));
    }

    // The runtime and pipelines hold references into cfg: it is
    // declared first so it outlives them.
    const sim::SimConfig cfg;
    SpanLog &spans;
    const std::string run;

    host::Memory hostMem;
    guest::Memory authMem;
    guest::Emulator authEmu{authMem};

    timing::RecordFanout fanout;
    std::vector<Pipe> pipes;
    std::unique_ptr<tol::Runtime> runtime;
    std::unique_ptr<sim::StateChecker> checker;
    std::unique_ptr<TimedObserver> observer;
};

// ---------------------------------------------------------------------
// Correctness bookkeeping
// ---------------------------------------------------------------------

class Checks
{
  public:
    /** Record one check; a failure is reported on stderr. */
    void
    expect(bool ok, const std::string &what)
    {
        ++attempted;
        if (!ok) {
            ++failed;
            std::fprintf(stderr, "CHECK FAILED: %s\n", what.c_str());
        }
    }

    uint64_t attempted = 0;
    uint64_t failed = 0;
};

/**
 * Bit-identity of two runs: the result scalars plus every pipeline's
 * timing::diffStats and tol::diffTolStats (empty = identical).
 */
std::string
diffSnapshots(const sim::RunSnapshot &a, const sim::RunSnapshot &b)
{
    std::string diff;
    if (a.result.guestRetired != b.result.guestRetired ||
        a.result.halted != b.result.halted ||
        a.result.cycles != b.result.cycles ||
        a.timingCore != b.timingCore) {
        diff += "result scalars differ\n";
    }
    diff += timing::diffStats(a.stats, b.stats);
    auto pipe = [&](const char *what,
                    const std::optional<timing::PipeStats> &x,
                    const std::optional<timing::PipeStats> &y) {
        if (x.has_value() != y.has_value())
            diff += strprintf("%s presence differs\n", what);
        else if (x)
            diff += timing::diffStats(*x, *y);
    };
    pipe("tol_only", a.tolOnly, b.tolOnly);
    pipe("app_only", a.appOnly, b.appOnly);
    pipe("tol_module", a.tolModule, b.tolModule);
    diff += tol::diffTolStats(a.tolStats, b.tolStats);
    return diff;
}

/**
 * FNV-1a over the canonical serialization of each result, in order.
 * Burst-dispatch coverage is zeroed first: it records which host path
 * retired the cycles, not what was simulated, and diffStats excludes
 * it for the same reason — so a perf-only change keeps the digest.
 */
uint64_t
digestOf(const std::vector<const sim::RunSnapshot *> &snaps)
{
    std::string body;
    for (const sim::RunSnapshot *s : snaps) {
        sim::RunSnapshot copy = *s;
        copy.stats.burstCycles = 0;
        for (auto *p : {&copy.tolOnly, &copy.appOnly, &copy.tolModule}) {
            if (*p)
                (*p)->burstCycles = 0;
        }
        runner::codec::appendSnapshotFields(body, copy);
    }
    return runner::codec::hashString(body);
}

// ---------------------------------------------------------------------
// Held-out inputs: source://benchseed/<N>/<benchmark> rebuilds a paper
// benchmark with a seed derived from N. N = 0 keeps the paper seed,
// so it reproduces source://synthetic/<benchmark> exactly.
// ---------------------------------------------------------------------

uint64_t
derivedSeed(uint64_t paper_seed, uint64_t n)
{
    if (n == 0)
        return paper_seed;
    uint64_t z = paper_seed + n * 0x9e3779b97f4a7c15ull;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
}

class SeededSource : public workloads::WorkloadSource
{
  public:
    std::string scheme() const override { return "benchseed"; }

    workloads::Workload
    resolve(const std::string &spec) const override
    {
        const size_t slash = spec.find('/');
        char *seed_end = nullptr;
        const uint64_t n = std::strtoull(spec.c_str(), &seed_end, 10);
        const workloads::BenchParams *paper =
            slash == 0 || seed_end != spec.c_str() + slash
                ? nullptr
                : workloads::findBenchmark(spec.substr(slash + 1));
        if (!paper) {
            fatal_kind(ErrKind::BadWorkload,
                       "benchseed: expected <seed>/<benchmark>, got '%s'",
                       spec.c_str());
        }
        workloads::BenchParams params = *paper;
        params.seed = derivedSeed(paper->seed, n);
        workloads::Workload w = workloads::syntheticWorkload(params);
        w.uri = "source://benchseed/" + spec;
        return w;
    }
};

std::string
seededUri(uint64_t seed, const std::string &benchmark)
{
    return strprintf("source://benchseed/%" PRIu64 "/%s", seed,
                     benchmark.c_str());
}

std::vector<std::string>
allSeededUris(uint64_t seed)
{
    std::vector<std::string> uris;
    for (const workloads::BenchParams &p : workloads::allBenchmarks())
        uris.push_back(seededUri(seed, p.name));
    return uris;
}

// ---------------------------------------------------------------------
// Shared per-workload measurement state
// ---------------------------------------------------------------------

/** Run sizes; the self-test shrinks them. */
struct Scale
{
    uint64_t steadyBudget = 16'000'000;
    uint64_t cosimBudget = 250'000;
    uint64_t campaignBudget = 2'000'000;
    /** Keep repeating the measured unit until this much time passed. */
    double seconds = 10;
    /** Two at least, so every run checks a repeat against the first. */
    unsigned minRepeats = 2;
};

struct Report
{
    std::vector<double> wall;   ///< per measured repeat
    std::vector<double> cpu;    ///< per measured repeat
    std::vector<double> setup;  ///< per set-up
    /** Guest instructions of the distinct results of one repeat. */
    double guestInsts = 0;
    uint64_t digest = 0;
    std::map<std::string, double> layer;
    Checks checks;
};

/** Per-layer work counts of a set of results (summed counters). */
void
addWorkCounts(std::map<std::string, double> &m,
              const std::vector<const sim::RunSnapshot *> &snaps)
{
    double dyn_im = 0, dyn_bbm = 0, dyn_sbm = 0, bbs = 0, sbs = 0;
    double records = 0, cycles = 0, insts = 0, burst = 0, tol_cycles = 0;
    double l1d_a = 0, l1d_m = 0, l1i_a = 0, l1i_m = 0, l2_a = 0, l2_m = 0;
    double tlb_a = 0, tlb_m = 0, bp_b = 0, bp_m = 0;
    double bucket[timing::kNumBuckets] = {};
    for (const sim::RunSnapshot *s : snaps) {
        const tol::TolStats &t = s->tolStats;
        const timing::PipeStats &p = s->stats;
        dyn_im += static_cast<double>(t.dynIm);
        dyn_bbm += static_cast<double>(t.dynBbm);
        dyn_sbm += static_cast<double>(t.dynSbm);
        bbs += static_cast<double>(t.bbsTranslated);
        sbs += static_cast<double>(t.sbsCreated);
        records += static_cast<double>(p.records);
        cycles += static_cast<double>(p.cycles);
        insts += static_cast<double>(p.tolInsts() + p.appInsts());
        burst += static_cast<double>(p.burstCycles);
        tol_cycles += p.tolCycles();
        l1d_a += static_cast<double>(p.l1d.accesses);
        l1d_m += static_cast<double>(p.l1d.misses);
        l1i_a += static_cast<double>(p.l1i.accesses);
        l1i_m += static_cast<double>(p.l1i.misses);
        l2_a += static_cast<double>(p.l2.accesses);
        l2_m += static_cast<double>(p.l2.misses);
        tlb_a += static_cast<double>(p.tlb.accesses);
        tlb_m += static_cast<double>(p.tlb.l1Misses);
        bp_b += static_cast<double>(p.bp.branches);
        bp_m += static_cast<double>(p.bp.mispredicts);
        for (unsigned b = 0; b < timing::kNumBuckets; ++b)
            bucket[b] += p.bucketTotal(static_cast<timing::Bucket>(b));
    }
    m["tol.dyn_im"] = dyn_im;
    m["tol.dyn_bbm"] = dyn_bbm;
    m["tol.dyn_sbm"] = dyn_sbm;
    m["tol.bbs_translated"] = bbs;
    m["tol.sbs_created"] = sbs;
    m["timing.records"] = records;
    m["timing.sim_cycles"] = cycles;
    m["timing.ipc"] = ratio(insts, cycles);
    m["timing.burst_fraction"] = ratio(burst, cycles);
    m["timing.l1d_miss_rate"] = ratio(l1d_m, l1d_a);
    m["timing.l1i_miss_rate"] = ratio(l1i_m, l1i_a);
    m["timing.l2_miss_rate"] = ratio(l2_m, l2_a);
    m["timing.dtlb_miss_rate"] = ratio(tlb_m, tlb_a);
    m["timing.bp_mispredict_rate"] = ratio(bp_m, bp_b);
    m["timing.tol_cycle_frac"] = ratio(tol_cycles, cycles);
    const char *names[timing::kNumBuckets] = {
        "timing.bucket_insts_frac", "timing.bucket_dcache_frac",
        "timing.bucket_icache_frac", "timing.bucket_branch_frac",
        "timing.bucket_sched_frac"};
    for (unsigned b = 0; b < timing::kNumBuckets; ++b)
        m[names[b]] = ratio(bucket[b], cycles);
}

/** Alternated verifyIr-on/off pairs of functional-only runs. */
constexpr unsigned kFunctionalPairs = 3;

/** Per-layer host-time metrics derived from a span log. */
void
addSpanMetrics(std::map<std::string, double> &m, const SpanLog &log,
               double guest, double records)
{
    m["workloads.resolve_s"] = log.busy("workloads");
    m["sim.construct_load_s"] = log.busy("sim.setup");
    m["tol.self_s"] = log.self("tol");
    m["tol.functional_mips"] =
        ratio(guest * kFunctionalPairs, log.busy("tol.functional")) * 1e-6;
    m["tol.records_per_guest"] = ratio(records, guest);
    m["tol.verify_s"] = (log.busy("tol.functional") -
                         log.busy("tol.functional_noverify")) /
                        kFunctionalPairs;
    for (const char *pipe :
         {"timing.all", "timing.tol_only", "timing.app_only",
          "timing.tol_module"}) {
        m[std::string(pipe) + "_s"] =
            log.busy(pipe) + log.busy(std::string(pipe) + ".drain");
    }
    m["timing.ns_per_record"] =
        ratio(m["timing.all_s"] * 1e9, log.items("timing.all"));
    m["guest.checker_s"] = log.busy("guest.checker");
    m["bench.trace_overhead"] =
        ratio(log.busy("sim.run"), log.busy("bench.untraced_run")) - 1;
}

/** One System::run of @p uri, timed set-up vs run. */
struct SystemRun
{
    sim::RunSnapshot snap;
    double setup = 0;
    double wall = 0;
    double cpu = 0;
};

/** @p run_span, when given, also receives the run's interval. */
SystemRun
timedSystemRun(const std::string &uri, const sim::SimConfig &cfg,
               Checks &checks, Span *run_span = nullptr)
{
    SystemRun out;
    const uint64_t t0 = nowNs();
    const workloads::Workload w = workloads::resolveWorkload(uri);
    sim::System sys(cfg);
    sys.load(w);
    const uint64_t t1 = nowNs();
    const double c1 = cpuSeconds();
    const sim::SystemResult res = sys.run();
    const uint64_t t2 = nowNs();
    out.cpu = cpuSeconds() - c1;
    out.wall = static_cast<double>(t2 - t1) * 1e-9;
    out.setup = static_cast<double>(t1 - t0) * 1e-9;
    if (run_span)
        run_span->add(t1, t2);
    out.snap = sim::snapshotFromSystem(sys, res);
    checks.expect(res.guestRetired > 0, uri + ": retired nothing");
    if (cfg.cosim) {
        const sim::StateChecker *c = sys.checker();
        checks.expect(c && c->failures().empty(),
                      uri + ": co-simulation mismatch: " +
                          (c && !c->failures().empty()
                               ? c->failures().front() : ""));
        checks.expect(res.memoryDiff.empty(),
                      uri + ": memory diff: " + res.memoryDiff);
    }
    return out;
}

struct TracedOutcome
{
    /** The adjacent untraced System run (the identity reference). */
    sim::RunSnapshot reference;
    /** Guest instructions the co-simulation checker verified. */
    uint64_t checked = 0;
};

/**
 * The traced pass over one (workload, config). An untraced System run
 * goes first, back to back with the traced one so both see the same
 * machine state: it is the bit-identity reference and the denominator
 * of bench.trace_overhead. With @p functional_runs, alternated
 * functional-only runs with verifyIr as configured and off follow,
 * for the subtractive verifier cost.
 */
TracedOutcome
tracedRun(const std::string &uri, const std::string &run,
          const sim::SimConfig &cfg, SpanLog &log, Checks &checks,
          bool functional_runs)
{
    TracedOutcome out;
    out.reference = timedSystemRun(uri, cfg, checks,
                                   &log.at("bench.untraced_run", run, ""))
                        .snap;
    workloads::Workload w;
    {
        Timed t(log.at("workloads", run, ""));
        w = workloads::resolveWorkload(uri);
    }
    sim::RunSnapshot snap;
    {
        std::unique_ptr<TracedSystem> sys;
        {
            Timed t(log.at("sim.setup", run, ""));
            sys = std::make_unique<TracedSystem>(cfg, log, run);
            sys->load(w.program);
        }
        snap = sys->runToEnd();
        if (const sim::StateChecker *c = sys->stateChecker()) {
            out.checked = c->instructionsChecked();
            checks.expect(c->failures().empty(),
                          run + ": traced co-simulation mismatch: " +
                              (c->failures().empty()
                                   ? "" : c->failures().front()));
            checks.expect(snap.result.memoryDiff.empty(),
                          run + ": traced memory diff: " +
                              snap.result.memoryDiff);
        }
    }
    const std::string diff = diffSnapshots(snap, out.reference);
    checks.expect(diff.empty(),
                  run + ": traced wiring diverged from System:\n" + diff);

    // ABBA order (on, off, off, on, ...) cancels slow drift.
    for (unsigned i = 0; functional_runs && i < 2 * kFunctionalPairs;
         ++i) {
        const bool as_configured = i % 4 == 0 || i % 4 == 3;
        sim::SimConfig fcfg = cfg;
        fcfg.tol.verifyIr = as_configured && cfg.tol.verifyIr;
        host::Memory mem;
        NullSink sink;
        tol::Runtime rt(fcfg.tol, mem, sink);
        rt.load(w.program);
        tol::Runtime::RunResult rr;
        {
            Timed t(log.at(as_configured ? "tol.functional"
                                         : "tol.functional_noverify",
                           run, ""));
            rr = rt.run(fcfg.guestBudget);
        }
        checks.expect(rr.guestRetired == snap.result.guestRetired &&
                          sink.records == snap.stats.records,
                      run + ": functional-only run diverged");
    }
    return out;
}

/** Standalone authoritative-emulator run; returns instructions. */
uint64_t
emulatorRun(const std::string &uri, const std::string &run,
            uint64_t budget, SpanLog &log)
{
    const workloads::Workload w = workloads::resolveWorkload(uri);
    guest::Memory mem;
    guest::Emulator emu(mem);
    emu.reset(w.program);
    Timed t(log.at("guest.emulator", run, ""));
    return emu.run(budget);
}

// ---------------------------------------------------------------------
// Workloads
// ---------------------------------------------------------------------

/**
 * steady_464: one long System::run of 464.h264ref in SBM steady state
 * under the default SimConfig, repeated with a fresh System each time.
 */
Report
runSteady(uint64_t seed, const Scale &scale, SpanLog *trace)
{
    Report rep;
    const std::string uri = seededUri(seed, "464.h264ref");
    sim::SimConfig cfg;
    cfg.guestBudget = scale.steadyBudget;

    sim::RunSnapshot first;
    const uint64_t start = nowNs();
    for (unsigned r = 0;
         r < scale.minRepeats || secondsSince(start) < scale.seconds;
         ++r) {
        SystemRun run = timedSystemRun(uri, cfg, rep.checks);
        rep.setup.push_back(run.setup);
        rep.wall.push_back(run.wall);
        rep.cpu.push_back(run.cpu);
        if (r == 0) {
            first = std::move(run.snap);
        } else {
            const std::string diff = diffSnapshots(run.snap, first);
            rep.checks.expect(diff.empty(),
                              "repeat " + std::to_string(r) +
                                  " diverged:\n" + diff);
        }
    }
    rep.guestInsts = static_cast<double>(first.result.guestRetired);
    rep.digest = digestOf({&first});

    if (trace) {
        tracedRun(uri, "464.h264ref", cfg, *trace, rep.checks, true);
        addSpanMetrics(rep.layer, *trace, rep.guestInsts,
                       static_cast<double>(first.stats.records));
        addWorkCounts(rep.layer, {&first});
        const uint64_t emu =
            emulatorRun(uri, "464.h264ref", cfg.guestBudget, *trace);
        rep.layer["guest.emulator_mips"] =
            ratio(static_cast<double>(emu),
                  trace->busy("guest.emulator")) * 1e-6;
    }
    return rep;
}

/**
 * cosim_48: every paper workload once per pass, serially, under
 * non-strict co-simulation (a mismatch is a failed check, not a
 * panic) in the transitional IM -> BBM -> SBM phase.
 */
Report
runCosim(uint64_t seed, const Scale &scale, SpanLog *trace)
{
    Report rep;
    const std::vector<std::string> uris = allSeededUris(seed);
    sim::SimConfig cfg;
    cfg.guestBudget = scale.cosimBudget;
    cfg.cosim = true;
    cfg.cosimStrict = false;

    std::vector<sim::RunSnapshot> first;
    const uint64_t start = nowNs();
    for (unsigned pass = 0;
         pass < scale.minRepeats || secondsSince(start) < scale.seconds;
         ++pass) {
        double setup = 0, wall = 0, cpu = 0;
        std::vector<sim::RunSnapshot> snaps;
        for (const std::string &uri : uris) {
            SystemRun run = timedSystemRun(uri, cfg, rep.checks);
            setup += run.setup;
            wall += run.wall;
            cpu += run.cpu;
            snaps.push_back(std::move(run.snap));
        }
        rep.setup.push_back(setup);
        rep.wall.push_back(wall);
        rep.cpu.push_back(cpu);
        if (pass == 0) {
            first = std::move(snaps);
            continue;
        }
        for (size_t i = 0; i < uris.size(); ++i) {
            const std::string diff = diffSnapshots(snaps[i], first[i]);
            rep.checks.expect(diff.empty(), uris[i] + " pass " +
                                                std::to_string(pass) +
                                                " diverged:\n" + diff);
        }
    }
    std::vector<const sim::RunSnapshot *> ptrs;
    for (const sim::RunSnapshot &s : first) {
        rep.guestInsts += static_cast<double>(s.result.guestRetired);
        ptrs.push_back(&s);
    }
    rep.digest = digestOf(ptrs);

    if (trace) {
        double records = 0, checked = 0, emu = 0;
        for (size_t i = 0; i < uris.size(); ++i) {
            const std::string run =
                workloads::allBenchmarks()[i].name;
            checked += static_cast<double>(
                tracedRun(uris[i], run, cfg, *trace, rep.checks, true)
                    .checked);
            records += static_cast<double>(first[i].stats.records);
            emu += static_cast<double>(
                emulatorRun(uris[i], run, cfg.guestBudget, *trace));
        }
        addSpanMetrics(rep.layer, *trace, rep.guestInsts, records);
        addWorkCounts(rep.layer, ptrs);
        rep.layer["guest.insts_checked"] = checked;
        rep.layer["guest.emulator_mips"] =
            ratio(emu, trace->busy("guest.emulator")) * 1e-6;
    }
    return rep;
}

/** The figure option sets of the fig5-fig11 campaign, in job order. */
struct Figure
{
    const char *name;
    bool tolModulePipe;
    bool isolationPipes;
};

const Figure kFigures[] = {
    {"fig5", false, false}, {"fig6", false, false},
    {"fig7", false, false}, {"fig8", true, false},
    {"fig9", false, false}, {"fig10", false, true},
    {"fig11", false, true},
};

/** Figures whose jobs lead each distinct option set (dedup leaders). */
const size_t kLeaderFigures[] = {0, 3, 5};

std::vector<runner::BatchJob>
campaignJobs(const std::vector<std::string> &uris, uint64_t budget)
{
    std::vector<runner::BatchJob> jobs;
    for (const Figure &fig : kFigures) {
        for (const std::string &uri : uris) {
            runner::BatchJob job;
            job.workload = uri;
            job.options.guestBudget = budget;
            job.options.tolConfig.bbToSbThreshold =
                sim::scaledSbThreshold(budget);
            job.options.tolModulePipe = fig.tolModulePipe;
            job.options.tolOnlyPipe = fig.isolationPipes;
            job.options.appOnlyPipe = fig.isolationPipes;
            jobs.push_back(std::move(job));
        }
    }
    return jobs;
}

unsigned
campaignWorkers()
{
    return std::max(1u, std::min(4u, std::thread::hardware_concurrency()));
}

struct CampaignPass
{
    std::vector<runner::JobResult> results;
    double wall = 0;
    double cpu = 0;
};

CampaignPass
runCampaignPass(const std::vector<runner::BatchJob> &jobs,
                const std::string &cache_dir, Checks &checks)
{
    runner::BatchConfig bc;
    bc.workers = campaignWorkers();
    bc.cacheDir = cache_dir;
    const runner::BatchRunner pool(bc);
    CampaignPass pass;
    const uint64_t t0 = nowNs();
    const double c0 = cpuSeconds();
    pass.results = pool.run(jobs);
    pass.wall = secondsSince(t0);
    pass.cpu = cpuSeconds() - c0;
    for (const runner::JobResult &r : pass.results)
        checks.expect(r.ok, r.uri + ": job failed: " + r.error);
    return pass;
}

size_t
countStatus(const CampaignPass &pass, runner::CacheStatus status)
{
    return static_cast<size_t>(std::count_if(
        pass.results.begin(), pass.results.end(),
        [&](const runner::JobResult &r) {
            return r.cacheStatus == status;
        }));
}

std::vector<const sim::RunSnapshot *>
distinctResults(const CampaignPass &pass)
{
    std::vector<const sim::RunSnapshot *> out;
    for (const runner::JobResult &r : pass.results) {
        if (!r.deduped)
            out.push_back(&r.snapshot);
    }
    return out;
}

/** Repeats of the campaigns' resolve-only set-up. */
constexpr unsigned kResolveRepeats = 5;

/** Median over repeats of resolving every campaign workload. */
double
timeResolutions(const std::vector<std::string> &uris,
                std::vector<double> &samples)
{
    for (unsigned r = 0; r < kResolveRepeats; ++r) {
        const uint64_t t0 = nowNs();
        for (const std::string &uri : uris)
            workloads::resolveWorkload(uri);
        samples.push_back(secondsSince(t0));
    }
    return median(samples);
}

/** Runner-layer metrics from one measured pass's job results. */
void
addRunnerMetrics(std::map<std::string, double> &m,
                 const CampaignPass &pass)
{
    std::vector<double> durations;
    double busy = 0;
    for (const runner::JobResult &r : pass.results) {
        if (r.attempts == 0)
            continue;
        durations.push_back(static_cast<double>(r.durationMs) * 1e-3);
        busy += static_cast<double>(r.durationMs) * 1e-3;
    }
    const double hits =
        static_cast<double>(countStatus(pass, runner::CacheStatus::Hit));
    const double misses =
        static_cast<double>(countStatus(pass, runner::CacheStatus::Miss));
    m["runner.busy_frac"] = ratio(busy, pass.wall * campaignWorkers());
    m["runner.job_p50_s"] = percentile(durations, 0.5);
    m["runner.job_p90_s"] = percentile(durations, 0.9);
    m["runner.job_n"] = static_cast<double>(durations.size());
    m["runner.jobs"] = static_cast<double>(pass.results.size());
    m["runner.simulated"] = static_cast<double>(durations.size());
    m["runner.cache_hits"] = hits;
    m["runner.cache_misses"] = misses;
    m["runner.cache_bypass"] = static_cast<double>(
        countStatus(pass, runner::CacheStatus::Bypass));
    m["runner.deduped"] = static_cast<double>(std::count_if(
        pass.results.begin(), pass.results.end(),
        [](const runner::JobResult &r) { return r.deduped; }));
    m["runner.hit_rate"] = ratio(hits, hits + misses);
}

/**
 * Timed direct ResultCache calls on the base-option results: one
 * store and one lookup per entry in a private directory.
 */
void
addCacheProbe(std::map<std::string, double> &m, const CampaignPass &pass,
              size_t entries, const std::string &dir, Checks &checks)
{
    fs::remove_all(dir);
    runner::ResultCache cache(dir);
    std::vector<double> store_ms, lookup_ms;
    double bytes = 0;
    for (size_t i = 0; i < entries; ++i) {
        const runner::JobResult &r = pass.results[i];
        const runner::CacheKey key{r.uri, r.fingerprint, "darco-bench"};
        uint64_t t0 = nowNs();
        checks.expect(cache.store(key, r.snapshot), r.uri + ": store");
        store_ms.push_back(secondsSince(t0) * 1e3);
        bytes += static_cast<double>(fs::file_size(cache.entryPath(key)));
        t0 = nowNs();
        const std::optional<sim::RunSnapshot> got = cache.lookup(key);
        lookup_ms.push_back(secondsSince(t0) * 1e3);
        checks.expect(got && diffSnapshots(*got, r.snapshot).empty(),
                      r.uri + ": cache round trip differs");
    }
    fs::remove_all(dir);
    m["runner.cache_store_ms"] = median(store_ms);
    m["runner.cache_lookup_ms"] = median(lookup_ms);
    m["runner.entry_kb"] = ratio(bytes, static_cast<double>(entries)) /
                           1024.0;
}

/**
 * Serial traced replay of the campaign's three option sets on one
 * workload per suite, each also checked against the campaign's own
 * result for that job: the engine's layer shares under the campaign
 * mix.
 */
void
campaignReplay(const std::vector<std::string> &uris, uint64_t budget,
               const CampaignPass &pass, SpanLog &log, Report &rep)
{
    const std::vector<runner::BatchJob> jobs = campaignJobs(uris, budget);
    const std::vector<workloads::BenchParams> &all =
        workloads::allBenchmarks();
    double guest = 0, records = 0;
    std::vector<std::string> seen_suites;
    for (size_t w = 0; w < all.size(); ++w) {
        if (std::find(seen_suites.begin(), seen_suites.end(),
                      all[w].suite) != seen_suites.end()) {
            continue;
        }
        seen_suites.push_back(all[w].suite);
        for (const size_t fig : kLeaderFigures) {
            const size_t index = fig * uris.size() + w;
            const runner::JobResult &job = pass.results[index];
            const sim::SimConfig cfg =
                sim::configFromOptions(jobs[index].options);
            const std::string run =
                all[w].name + "/" + kFigures[fig].name;
            const TracedOutcome traced =
                tracedRun(uris[w], run, cfg, log, rep.checks, fig == 0);
            const std::string diff =
                diffSnapshots(traced.reference, job.snapshot);
            rep.checks.expect(diff.empty(),
                              run + ": BatchRunner result differs from "
                                    "System:\n" + diff);
            if (fig == 0) {
                guest += static_cast<double>(
                    job.snapshot.result.guestRetired);
                records += static_cast<double>(job.snapshot.stats.records);
            }
        }
    }
    addSpanMetrics(rep.layer, log, guest, records);
}

/**
 * campaign_cold / campaign_warm: the fig5-fig11 job list (48
 * workloads x 7 figure option sets) on one BatchRunner. Cold passes
 * start from an empty cache; warm passes read a cache filled by an
 * untimed populate pass, whose wall time is part of set-up.
 */
Report
runCampaign(bool warm, uint64_t seed, const Scale &scale,
            const std::string &work_dir, SpanLog *trace)
{
    Report rep;
    const std::vector<std::string> uris = allSeededUris(seed);
    const std::vector<runner::BatchJob> jobs =
        campaignJobs(uris, scale.campaignBudget);
    fs::create_directories(work_dir);

    std::vector<double> resolve;
    const double resolve_s = timeResolutions(uris, resolve);

    const std::string warm_dir = work_dir + "/warm-cache";
    std::optional<CampaignPass> populate;
    if (warm) {
        fs::remove_all(warm_dir);
        populate = runCampaignPass(jobs, warm_dir, rep.checks);
        rep.setup.push_back(resolve_s + populate->wall);
    } else {
        rep.setup = resolve;
    }

    // Only the reference and the first measured pass are kept, so the
    // peak memory does not grow with the number of passes.
    const size_t cacheable = uris.size();
    CampaignPass first;
    const uint64_t start = nowNs();
    for (unsigned p = 0;
         p < scale.minRepeats || secondsSince(start) < scale.seconds;
         ++p) {
        const std::string dir =
            warm ? warm_dir : work_dir + "/cold-" + std::to_string(p);
        if (!warm)
            fs::remove_all(dir);
        CampaignPass pass = runCampaignPass(jobs, dir, rep.checks);
        if (!warm)
            fs::remove_all(dir);
        rep.wall.push_back(pass.wall);
        rep.cpu.push_back(pass.cpu);

        const size_t hits = countStatus(pass, runner::CacheStatus::Hit);
        rep.checks.expect(hits == (warm ? cacheable : 0),
                          strprintf("%zu cache hits, expected %zu", hits,
                                    warm ? cacheable : 0));
        // The first cold pass is its own reference.
        if (populate || p > 0) {
            const CampaignPass &reference = populate ? *populate : first;
            for (size_t i = 0; i < jobs.size(); ++i) {
                const std::string diff =
                    diffSnapshots(pass.results[i].snapshot,
                                  reference.results[i].snapshot);
                rep.checks.expect(diff.empty(),
                                  pass.results[i].uri + " (job " +
                                      std::to_string(i) + ") diverged:\n" +
                                      diff);
            }
        }
        if (p == 0)
            first = std::move(pass);
    }
    fs::remove_all(warm_dir);

    const std::vector<const sim::RunSnapshot *> distinct =
        distinctResults(first);
    for (const sim::RunSnapshot *s : distinct)
        rep.guestInsts += static_cast<double>(s->result.guestRetired);
    rep.digest = digestOf(distinct);

    if (trace) {
        campaignReplay(uris, scale.campaignBudget, first, *trace, rep);
        rep.layer["workloads.resolve_s"] = resolve_s;
        addRunnerMetrics(rep.layer, first);
        addCacheProbe(rep.layer, first, cacheable,
                      work_dir + "/probe-cache", rep.checks);
        std::vector<const sim::RunSnapshot *> base;
        for (size_t i = 0; i < cacheable; ++i)
            base.push_back(&first.results[i].snapshot);
        addWorkCounts(rep.layer, base);
    }
    std::error_code ignored;
    fs::remove(work_dir, ignored);  // only if empty
    return rep;
}

// ---------------------------------------------------------------------
// Output
// ---------------------------------------------------------------------

std::string
jsonNumber(double v)
{
    return strprintf("%.17g", v);
}

/** {"name": {"value": v, "unit": "u"}, ...} over a catalog. */
template <size_t N>
std::string
metricsJson(const MetricDef (&defs)[N],
            const std::map<std::string, double> &values)
{
    std::string out = "{";
    for (size_t i = 0; i < N; ++i) {
        out += strprintf("%s\"%s\": {\"value\": %s, \"unit\": \"%s\"}",
                         i ? ", " : "", defs[i].name,
                         jsonNumber(values.at(defs[i].name)).c_str(),
                         defs[i].unit);
    }
    return out + "}";
}

std::string
samplesJson(const std::vector<double> &v)
{
    std::string out = "[";
    for (size_t i = 0; i < v.size(); ++i)
        out += (i ? ", " : "") + jsonNumber(v[i]);
    return out + "]";
}

template <size_t N>
void
printMetrics(const char *title, const MetricDef (&defs)[N],
             const std::map<std::string, double> &values)
{
    std::printf("%s\n", title);
    for (const MetricDef &d : defs) {
        std::printf("  %-28s %18.6f %s\n", d.name, values.at(d.name),
                    d.unit);
    }
}

struct Args
{
    std::string workload;
    uint64_t seed = 0;
    double seconds = 10;
    std::string tracePath;
    std::string jsonPath;
    std::string workDir = "darco_bench_work";
    bool selftest = false;
    std::string benchmarkJson;
};

Args
parseArgs(int argc, char **argv)
{
    Args args;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        auto value = [&](const char *key) -> const char * {
            const size_t len = std::strlen(key);
            return arg.compare(0, len, key) == 0 ? arg.c_str() + len
                                                 : nullptr;
        };
        if (const char *v = value("--workload="))
            args.workload = v;
        else if (const char *v2 = value("--seed="))
            args.seed = std::strtoull(v2, nullptr, 10);
        else if (const char *v3 = value("--seconds="))
            args.seconds = std::strtod(v3, nullptr);
        else if (const char *v4 = value("--trace="))
            args.tracePath = v4;
        else if (const char *v5 = value("--json="))
            args.jsonPath = v5;
        else if (const char *v6 = value("--work-dir="))
            args.workDir = v6;
        else if (const char *v7 = value("--benchmark-json="))
            args.benchmarkJson = v7;
        else if (arg == "--selftest")
            args.selftest = true;
        else
            fatal("unknown argument '%s' (see benchmark/README.md)",
                  arg.c_str());
    }
    return args;
}

/** Everything one workload invocation reports. */
struct Result
{
    Report rep;
    std::map<std::string, double> e2e;
};

Result
runWorkloadByName(const std::string &name, uint64_t seed,
                  const Scale &scale, const std::string &work_dir,
                  SpanLog *trace)
{
    Result res;
    if (name == "steady_464")
        res.rep = runSteady(seed, scale, trace);
    else if (name == "cosim_48")
        res.rep = runCosim(seed, scale, trace);
    else if (name == "campaign_cold" || name == "campaign_warm")
        res.rep = runCampaign(name == "campaign_warm", seed, scale,
                              work_dir, trace);
    else
        fatal("unknown workload '%s' (steady_464, cosim_48, "
              "campaign_cold, campaign_warm)",
              name.c_str());

    Report &rep = res.rep;
    const double wall = median(rep.wall);
    res.e2e["wall_s"] = wall;
    res.e2e["cpu_s"] = median(rep.cpu);
    res.e2e["guest_mips"] = ratio(rep.guestInsts, wall) * 1e-6;
    res.e2e["setup_s"] = median(rep.setup);
    res.e2e["peak_rss_mb"] = peakRssMb();
    if (trace) {
        rep.layer["bench.repeats"] = static_cast<double>(rep.wall.size());
        // Metrics a workload does not exercise read 0 (README.md).
        for (const MetricDef &d : kPerLayer)
            rep.layer.emplace(d.name, 0.0);
    }
    return res;
}

// ---------------------------------------------------------------------
// Self-test
// ---------------------------------------------------------------------

/** The @p field string values of the objects in the JSON array
 *  under @p key (enough of a parser for BENCHMARK.json). */
std::vector<std::string>
valuesUnder(const std::string &json, const std::string &key,
            const std::string &field)
{
    std::vector<std::string> values;
    size_t pos = json.find("\"" + key + "\"");
    if (pos == std::string::npos)
        return values;
    pos = json.find('[', pos);
    const size_t end = json.find(']', pos);
    for (;;) {
        pos = json.find("\"" + field + "\"", pos);
        if (pos == std::string::npos || pos > end)
            break;
        const size_t q1 = json.find('"', json.find(':', pos));
        const size_t q2 = json.find('"', q1 + 1);
        values.push_back(json.substr(q1 + 1, q2 - q1 - 1));
        pos = q2;
    }
    return values;
}

template <size_t N>
std::vector<std::string>
catalogColumn(const MetricDef (&defs)[N], const char *MetricDef::*column)
{
    std::vector<std::string> values;
    for (const MetricDef &d : defs)
        values.push_back(d.*column);
    return values;
}

int
selftest(const Args &args)
{
    Checks checks;

    // BENCHMARK.json names the same workloads and metrics.
    std::ifstream in(args.benchmarkJson);
    fatal_if(!in, "--selftest needs --benchmark-json=<BENCHMARK.json>");
    std::stringstream text;
    text << in.rdbuf();
    const std::string json = text.str();
    for (const auto column : {&MetricDef::name, &MetricDef::unit}) {
        const char *what = column == &MetricDef::name ? "name" : "unit";
        checks.expect(valuesUnder(json, "end_to_end", what) ==
                          catalogColumn(kEndToEnd, column),
                      std::string("end_to_end ") + what +
                          "s differ from BENCHMARK.json");
        checks.expect(valuesUnder(json, "per_layer", what) ==
                          catalogColumn(kPerLayer, column),
                      std::string("per_layer ") + what +
                          "s differ from BENCHMARK.json");
    }
    checks.expect(valuesUnder(json, "workloads", "name") ==
                      std::vector<std::string>(std::begin(kWorkloads),
                                               std::end(kWorkloads)),
                  "workload names differ from BENCHMARK.json");

    // Seed 0 reproduces the registered paper programs exactly; another
    // seed gives another program.
    for (const workloads::BenchParams &p : workloads::allBenchmarks()) {
        const guest::Program a =
            workloads::resolveWorkload(seededUri(0, p.name)).program;
        const guest::Program b =
            workloads::resolveWorkload(workloads::syntheticUri(p.name))
                .program;
        bool same = a.code == b.code && a.entry == b.entry &&
                    a.data.size() == b.data.size();
        for (size_t i = 0; same && i < a.data.size(); ++i) {
            same = a.data[i].addr == b.data[i].addr &&
                   a.data[i].bytes == b.data[i].bytes;
        }
        checks.expect(same, p.name + ": seed 0 differs from the paper");
    }
    checks.expect(
        workloads::resolveWorkload(seededUri(1, "464.h264ref")).program.code !=
            workloads::resolveWorkload(seededUri(0, "464.h264ref"))
                .program.code,
        "seed 1 did not change 464.h264ref");

    // Traced wiring == System on all 48 workloads, with every pipeline
    // and the co-simulation checker live.
    sim::SimConfig cfg;
    cfg.guestBudget = 30'000;
    cfg.tol.bbToSbThreshold = 300;
    cfg.cosim = true;
    cfg.cosimStrict = false;
    cfg.tolOnlyPipe = cfg.appOnlyPipe = cfg.tolModulePipe = true;
    SpanLog log;
    for (const std::string &uri : allSeededUris(0))
        tracedRun(uri, uri, cfg, log, checks, false);

    // Every workload end to end at a small fixed scale, traced.
    Scale small;
    small.steadyBudget = 200'000;
    small.cosimBudget = 20'000;
    small.campaignBudget = 20'000;
    small.seconds = 0;
    for (const char *name : kWorkloads) {
        SpanLog trace;
        const Result res = runWorkloadByName(
            name, 3, small, args.workDir + "/selftest", &trace);
        checks.expect(res.rep.checks.failed == 0,
                      std::string(name) + ": failed checks");
        checks.expect(res.e2e.size() == std::size(kEndToEnd) &&
                          res.rep.layer.size() == std::size(kPerLayer),
                      std::string(name) + ": emitted metric set differs "
                                          "from the catalog");
        for (const auto &[metric, value] : res.e2e) {
            checks.expect(value > 0, std::string(name) + ": " + metric +
                                         " is not positive");
        }
    }
    std::error_code ignored;
    fs::remove(args.workDir, ignored);
    std::printf("selftest: %" PRIu64 " checks, %" PRIu64 " failed\n",
                checks.attempted, checks.failed);
    return checks.failed ? 1 : 0;
}

} // namespace

int
main(int argc, char **argv)
{
    const Args args = parseArgs(argc, argv);
    workloads::registerSource(std::make_unique<SeededSource>());
    if (args.selftest)
        return selftest(args);
    fatal_if(args.workload.empty(),
             "usage: darco_bench --workload=NAME [--seed=N] "
             "[--seconds=S] [--trace=SPANS.jsonl] [--json=OUT.json]");

    Scale scale;
    scale.seconds = args.seconds;
    std::unique_ptr<SpanLog> trace;
    if (!args.tracePath.empty())
        trace = std::make_unique<SpanLog>();
    const Result res = runWorkloadByName(args.workload, args.seed, scale,
                                         args.workDir, trace.get());
    const Report &rep = res.rep;
    const bool correct = rep.checks.failed == 0;

    std::printf("workload %s seed %" PRIu64 ": %zu repeats, digest "
                "%016" PRIx64 ", %" PRIu64 "/%" PRIu64 " checks failed\n",
                args.workload.c_str(), args.seed, rep.wall.size(),
                rep.digest, rep.checks.failed, rep.checks.attempted);
    printMetrics("end-to-end:", kEndToEnd, res.e2e);
    if (trace) {
        printMetrics("per-layer:", kPerLayer, rep.layer);
        trace->writeJsonl(args.tracePath);
    }

    if (!args.jsonPath.empty()) {
        FILE *out = std::fopen(args.jsonPath.c_str(), "w");
        fatal_if(!out, "cannot open '%s'", args.jsonPath.c_str());
        std::fprintf(
            out,
            "{\"workload\": \"%s\", \"seed\": %" PRIu64
            ", \"digest\": \"%016" PRIx64 "\", \"correct\": %s, "
            "\"attempted\": %" PRIu64 ", \"failed\": %" PRIu64
            ", \"wall_samples\": %s, \"metrics\": %s",
            args.workload.c_str(), args.seed, rep.digest,
            correct ? "true" : "false", rep.checks.attempted,
            rep.checks.failed, samplesJson(rep.wall).c_str(),
            metricsJson(kEndToEnd, res.e2e).c_str());
        if (trace) {
            std::fprintf(out, ", \"per_layer\": %s",
                         metricsJson(kPerLayer, rep.layer).c_str());
        }
        std::fprintf(out, "}\n");
        fatal_if(std::fclose(out) != 0, "cannot write '%s'",
                 args.jsonPath.c_str());
    }

    std::printf("{\"correct\": %s, \"attempted\": %" PRIu64
                ", \"failed\": %" PRIu64 ", \"metrics\": %s}\n",
                correct ? "true" : "false", rep.checks.attempted,
                rep.checks.failed,
                trace ? metricsJson(kPerLayer, rep.layer).c_str()
                      : metricsJson(kEndToEnd, res.e2e).c_str());
    return 0;
}
