/**
 * @file
 * The DARCO-style system controller (Figure 2): wires the x86
 * component (authoritative emulator + its own memory), the co-design
 * component (TOL runtime over the host memory), the timing
 * simulator instances (combined + optional TOL-only / APP-only
 * isolation instances fed from the same functional pass), and the
 * state checker.
 */

#ifndef DARCO_SIM_SYSTEM_HH
#define DARCO_SIM_SYSTEM_HH

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
     * Load a resolved workload: same as load(Program), but the
     * workload's identity (name, suite, seed) flows into the capture
     * metadata when SimConfig::captureTracePath is set.
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
     * The core that actually advanced simulated time, so harnesses
     * can record it next to the measurements (RunSnapshot::timingCore;
     * GoldenDigests and the trace pins include it).
     */
    timing::Pipeline::Engine timingEngine() const
    {
        return combined->engine();
    }
    /** TOL-software isolated pipeline, if enabled (Figures 10/11). */
    const timing::PipeStats *tolOnlyStats() const
    {
        return tolOnly ? &tolOnly->stats() : nullptr;
    }
    /** Application isolated pipeline, if enabled (Figures 10/11). */
    const timing::PipeStats *appOnlyStats() const
    {
        return appOnly ? &appOnly->stats() : nullptr;
    }
    /** TOL-by-module pipeline, if enabled (Figure 8). */
    const timing::PipeStats *tolModuleStats() const
    {
        return tolModule ? &tolModule->stats() : nullptr;
    }
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
    /** The authoritative emulator's guest memory. */
    guest::Memory &authMemory() { return authMem; }

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
    std::unique_ptr<timing::Pipeline> tolOnly;
    std::unique_ptr<timing::Pipeline> appOnly;
    std::unique_ptr<timing::Pipeline> tolModule;
    std::unique_ptr<profile::Collector> profiler;

    std::unique_ptr<tol::Runtime> runtime;
    std::unique_ptr<StateChecker> stateChecker;
    std::unique_ptr<profile::GuestBranchCollector> guestBranches;

    bool loaded = false;
    bool ran = false;
};

} // namespace darco::sim

#endif // DARCO_SIM_SYSTEM_HH
