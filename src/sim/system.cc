#include "sim/system.hh"

#include <cctype>

#include "common/logging.hh"
#include "sim/metrics.hh"

namespace darco::sim {

namespace {

/** "guestIndirectBranches" -> "guest_indirect_branches". */
std::string
snakeCase(const char *camel)
{
    std::string out;
    for (; *camel; ++camel) {
        if (std::isupper(static_cast<unsigned char>(*camel))) {
            out += '_';
            out += static_cast<char>(
                std::tolower(static_cast<unsigned char>(*camel)));
        } else {
            out += *camel;
        }
    }
    return out;
}

} // namespace

trace::TracePins
capturePins(const SystemResult &result,
            const timing::PipeStats &combined,
            const std::string &timingCore,
            const tol::TolStats &tolStats)
{
    trace::TracePins pins;
    pins.guestRetired = result.guestRetired;
    pins.simCycles = result.cycles;
    pins.hostRecords = combined.records;
    pins.timingCore = timingCore;
    tol::TolStats::forEachField(tolStats, [&pins](const char *name,
                                                  uint64_t count) {
        const std::string key = snakeCase(name);
        trace::TracePins::forEachField(pins, [&](const char *pin,
                                                 auto &value) {
            if constexpr (std::is_same_v<decltype(value), uint64_t &>) {
                if (key == pin)
                    value = count;
            }
        });
    });
    return pins;
}

System::System(const SimConfig &config) : cfg(config)
{
    combined = std::make_unique<timing::Pipeline>(
        cfg.timing, timing::Pipeline::Filter::All);
    fanout.add(combined.get());
    for (size_t i = 0; i < kIsolationPipes.size(); ++i) {
        if (cfg.*kIsolationPipes[i].simFlag) {
            isolated[i] = std::make_unique<timing::Pipeline>(
                cfg.timing, kIsolationPipes[i].filter);
            fanout.add(isolated[i].get());
        }
    }
    if (cfg.profile) {
        profiler = std::make_unique<profile::Collector>(cfg.timing);
        fanout.add(profiler.get());
    }

    runtime = std::make_unique<tol::Runtime>(cfg.tol, hostMem, fanout);
    authEmu = std::make_unique<guest::Emulator>(authMem);
}

void
System::load(const guest::Program &program)
{
    loadIdentified(program, "anonymous", "", 0);
}

void
System::load(const workloads::Workload &workload)
{
    if (workload.recipe) {
        loadIdentified(workloads::buildBenchmark(*workload.recipe),
                       workload.name, workload.suite, workload.seed);
        return;
    }
    loadIdentified(workload.program, workload.name, workload.suite,
                   workload.seed);
}

void
System::loadIdentified(const guest::Program &program,
                       const std::string &name,
                       const std::string &suite, uint64_t seed)
{
    panic_if(loaded, "System::load called twice");
    loaded = true;
    runtime->load(program);
    if (cfg.cosim) {
        authEmu->reset(program);
        stateChecker = std::make_unique<StateChecker>(*authEmu,
                                                      cfg.cosimStrict);
        runtime->setObserver(stateChecker.get());
        if (cfg.profile) {
            // The checker replays every retired guest instruction
            // through the emulator, so its branch stream is the exact
            // dynamic guest branch trace — collect it.
            guestBranches =
                std::make_unique<profile::GuestBranchCollector>();
            authEmu->setBranchObserver(guestBranches.get());
        }
    }
    if (!cfg.captureTracePath.empty()) {
        capture = std::make_unique<trace::TraceFile>();
        capture->meta.name = name;
        capture->meta.suite = suite;
        capture->meta.seed = seed;
        capture->meta.guestBudget = cfg.guestBudget;
        capture->meta.imToBbThreshold = cfg.tol.imToBbThreshold;
        capture->meta.bbToSbThreshold = cfg.tol.bbToSbThreshold;
        capture->program = program;
    }
}

const char *
System::timingCore() const
{
    return combined->engine() == timing::Pipeline::Engine::EventDriven
        ? "event" : "reference";
}

const timing::PipeStats *
System::isolationStats(timing::Pipeline::Filter filter) const
{
    for (size_t i = 0; i < kIsolationPipes.size(); ++i) {
        if (kIsolationPipes[i].filter == filter && isolated[i])
            return &isolated[i]->stats();
    }
    return nullptr;
}

void
System::writeCapturedTrace(const SystemResult &result)
{
    capture->pins = capturePins(result, combined->stats(), timingCore(),
                                runtime->stats());
    capture->hasPins = true;
    trace::writeTrace(cfg.captureTracePath, *capture);
}

SystemResult
System::run()
{
    panic_if(!loaded, "System::run before load");
    panic_if(ran, "System::run called twice");
    ran = true;

    const tol::Runtime::RunResult rr =
        runtime->run(cfg.guestBudget, cfg.cancel);

    // The functional pass above streamed records into the timing
    // instances, which advance time lazily behind a bounded backlog
    // (event-driven core; docs/timing-model.md). finish() runs each
    // instance's final drain — fast-forwarding any tail stall in one
    // jump — and snapshots the component stats.
    combined->finish();
    for (const std::unique_ptr<timing::Pipeline> &pipe : isolated) {
        if (pipe)
            pipe->finish();
    }

    SystemResult result;
    result.guestRetired = rr.guestRetired;
    result.halted = rr.halted;
    result.cancelled = rr.cancelled;
    result.cycles = combined->stats().cycles;
    // A cancelled run stopped mid-workload: its end state is not the
    // workload's end state, so the final memory audit is meaningless
    // and the pins of a partial run must never be published as a
    // replayable trace (per-commit cosim checks still ran).
    if (cfg.cosim && !rr.cancelled)
        result.memoryDiff = compareGuestMemory(authMem, hostMem);
    if (capture && !rr.cancelled)
        writeCapturedTrace(result);
    return result;
}

} // namespace darco::sim
