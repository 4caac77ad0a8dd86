/**
 * @file
 * The DARCO-style system controller (Figure 2): wires the x86
 * component (authoritative emulator + its own memory), the co-design
 * component (TOL runtime over the host memory), the timing
 * simulator instances (the combined pipe plus whichever isolation
 * pipes of sim::kIsolationPipes the config attaches: TOL-only,
 * APP-only and TOL-module, all fed from the same functional pass),
 * the optional profile collector on that stream, and the state
 * checker.
 */

#ifndef DARCO_SIM_SYSTEM_HH
#define DARCO_SIM_SYSTEM_HH

#include <array>
#include <memory>
#include <string>

#include "guest/emulator.hh"
#include "profile/guest_branch.hh"
#include "profile/profile.hh"
#include "sim/config.hh"
#include "sim/state_checker.hh"
#include "timing/pipeline.hh"
#include "tol/runtime.hh"
#include "trace/trace.hh"
#include "workloads/source.hh"

namespace darco::sim {

/** Outcome of one System::run (docs/metrics.md). */
struct SystemResult
{
    uint64_t guestRetired = 0;      ///< guest instructions executed
    bool halted = false;            ///< guest reached HALT in budget
    uint64_t cycles = 0;            ///< combined-pipeline cycles
    std::string memoryDiff;         ///< co-simulation memory check
    /** Stopped early by SimConfig::cancel: every other field still
     *  exactly accounts the work that completed (partial metrics). */
    bool cancelled = false;
};

/**
 * The determinism pins of a finished run: what a capture writes into
 * its trace and what a replay is checked against. The four run-level
 * pins are set from their sources; every other pin copies the
 * tol::TolStats counter whose name, in snake_case, is the pin's key.
 */
trace::TracePins capturePins(const SystemResult &result,
                             const timing::PipeStats &combined,
                             const std::string &timingCore,
                             const tol::TolStats &tolStats);

class System
{
  public:
    explicit System(const SimConfig &config);

    /** Load a guest program into both components. */
    void load(const guest::Program &program);

    /**
     * Load a workload: same as load(Program), but the workload's
     * identity (name, suite, seed) flows into the capture metadata
     * when SimConfig::captureTracePath is set. A workload whose
     * program is still a recipe (workloads::identifyWorkload) is
     * built here.
     */
    void load(const workloads::Workload &workload);

    /** Run to the budget (or HALT), then drain the pipelines. */
    SystemResult run();

    /** TOL activity counters (modes, translations, services). */
    const tol::TolStats &tolStats() const { return runtime->stats(); }
    /** The unfiltered pipeline's metrics (Figures 6/7/9). */
    const timing::PipeStats &combinedStats() const
    {
        return combined->stats();
    }
    /**
     * The core that actually advanced simulated time ("event" or
     * "reference"), so harnesses can record it next to the
     * measurements: the one spelling of RunSnapshot::timingCore and
     * of the trace pins (GoldenDigests includes it).
     */
    const char *timingCore() const;
    /** The isolation pipe of @p filter (a kIsolationPipes row), or
     *  nullptr if the config does not attach it. */
    const timing::PipeStats *isolationStats(
        timing::Pipeline::Filter filter) const;
    /** Characterization collector, if enabled (SimConfig::profile). */
    const profile::Collector *profileCollector() const
    {
        return profiler.get();
    }
    /**
     * Guest-level dynamic branch profile, collected from the
     * authoritative emulator's branch stream. Needs both
     * SimConfig::profile and SimConfig::cosim (the emulator only
     * replays the full instruction stream under co-simulation);
     * nullptr otherwise. Input to the static-CFG cross-checks
     * (src/analysis/cfg.hh).
     */
    const profile::GuestBranchProfile *guestBranchProfile() const
    {
        return guestBranches ? &guestBranches->profile() : nullptr;
    }
    /** Co-simulation state checker (nullptr when cosim is off). */
    const StateChecker *checker() const { return stateChecker.get(); }
    /** Architectural guest state of the co-design component. */
    const guest::State &guestState() const
    {
        return runtime->guestState();
    }
    /** The TOL runtime (for threshold/introspection access). */
    tol::Runtime &tolRuntime() { return *runtime; }
    /** Host physical memory of the co-design component. */
    host::Memory &hostMemory() { return hostMem; }

  private:
    void loadIdentified(const guest::Program &program,
                        const std::string &name,
                        const std::string &suite, uint64_t seed);
    void writeCapturedTrace(const SystemResult &result);

    SimConfig cfg;

    /** Pending capture (captureTracePath set): filled at load(),
     *  pinned and written at the end of run(). */
    std::unique_ptr<trace::TraceFile> capture;

    host::Memory hostMem;
    guest::Memory authMem;
    std::unique_ptr<guest::Emulator> authEmu;

    timing::RecordFanout fanout;
    std::unique_ptr<timing::Pipeline> combined;
    /** Row i of kIsolationPipes; null when the config omits it. */
    std::array<std::unique_ptr<timing::Pipeline>, kNumIsolationPipes>
        isolated;
    std::unique_ptr<profile::Collector> profiler;

    std::unique_ptr<tol::Runtime> runtime;
    std::unique_ptr<StateChecker> stateChecker;
    std::unique_ptr<profile::GuestBranchCollector> guestBranches;

    bool loaded = false;
    bool ran = false;
};

} // namespace darco::sim

#endif // DARCO_SIM_SYSTEM_HH
