/**
 * @file
 * Top-level simulation configuration: the TOL configuration, the host
 * microarchitecture (Table I), and controller options.
 */

#ifndef DARCO_SIM_CONFIG_HH
#define DARCO_SIM_CONFIG_HH

#include <cstddef>
#include <cstdint>
#include <string>

#include "common/cancel.hh"
#include "timing/config.hh"
#include "tol/config.hh"

namespace darco::sim {

/** Rows of sim::kIsolationPipes (sim/metrics.hh), one per isolation
 *  pipe flag below. */
inline constexpr size_t kNumIsolationPipes = 3;

struct SimConfig
{
    tol::TolConfig tol;
    timing::TimingConfig timing;

    /** Guest instructions to simulate (stops at HALT if earlier). */
    uint64_t guestBudget = 2'000'000;

    /**
     * Co-simulation: run the authoritative x86 component in lockstep
     * and compare architectural state at every commit (Figure 2's
     * state checker). Costs host time; enabled in tests, off in
     * benchmark sweeps.
     */
    bool cosim = false;
    /** panic() on the first co-simulation mismatch. */
    bool cosimStrict = true;

    /**
     * When non-empty, System snapshots the loaded workload to this
     * binary trace file (docs/traces.md): the program image, the run
     * recipe (budget + promotion thresholds), and — once run()
     * finishes — the run's determinism pins. The trace replays
     * bit-identically through `source://trace/<file>`.
     */
    std::string captureTracePath;

    /**
     * Cooperative cancellation (nullptr = never cancelled, the
     * default). Not part of the determinism key: it changes when a
     * run stops, never what the completed work measured. The token
     * must outlive System::run().
     */
    const common::CancelToken *cancel = nullptr;

    /**
     * Collect characterization profiles (reuse-distance histogram +
     * branch profile; src/profile/) from the record stream. Off by
     * default: no collector sink is registered, so the hot path is
     * byte-for-byte the unprofiled one.
     */
    bool profile = false;

    /** TOL-software-stream isolated pipeline (Figures 10/11). */
    bool tolOnlyPipe = false;
    /** Application-stream isolated pipeline (Figures 10/11). */
    bool appOnlyPipe = false;
    /** TOL-by-module pipeline incl. instrumentation (Figure 8). */
    bool tolModulePipe = false;
};

} // namespace darco::sim

#endif // DARCO_SIM_CONFIG_HH
