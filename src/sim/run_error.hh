/**
 * @file
 * Structured failure taxonomy for batch-executed simulations.
 *
 * Every engine failure path reachable from a batch job maps into one
 * of seven classes (docs/robustness.md has the full table):
 *
 *   class            transient  retried  typical producer
 *   BadWorkload      no         no       unknown URI / benchmark
 *   TraceCorrupt     no         no       DTRC structural/CSUM failure
 *   GuestFault       no         no       undecodable guest program
 *   BudgetExhausted  no         no       requireHalt && !halted
 *   Timeout          yes        yes      watchdog cancellation
 *   IoTransient      yes        yes      trace-file open/read error
 *   Internal         no         no       any unclassified fatal()
 *
 * Classification never matches message text: classified fatal sites
 * attach a common::ErrKind (fatal_kind) that the runner maps here;
 * Timeout and BudgetExhausted are produced structurally from the run
 * result. An unclassified fatal() deliberately lands in Internal —
 * permanent, never retried — because retrying an unknown failure is
 * how campaigns silently burn a night of compute.
 */

#ifndef DARCO_SIM_RUN_ERROR_HH
#define DARCO_SIM_RUN_ERROR_HH

#include <string>

#include "common/logging.hh"

namespace darco::sim {

enum class RunErrorClass : uint8_t {
    None,             ///< no error (JobResult::ok)
    BadWorkload,
    TraceCorrupt,
    GuestFault,
    BudgetExhausted,
    Timeout,
    IoTransient,
    Internal,
};

/** Stable class name ("TraceCorrupt", ...; "None" for None). */
const char *runErrorClassName(RunErrorClass cls);

/** One classified failure: what failed, where, and whether a
 *  from-scratch re-run could plausibly succeed. */
struct RunError
{
    RunErrorClass cls = RunErrorClass::None;
    std::string uri;       ///< workload URI of the failing job
    std::string context;   ///< human-readable detail (fatal message,
                           ///< pin diff, watchdog report)

    /** Transient failures are retried with backoff; permanent ones
     *  fail the job on the first attempt. */
    bool
    transient() const
    {
        return cls == RunErrorClass::Timeout ||
               cls == RunErrorClass::IoTransient;
    }

    const char *name() const { return runErrorClassName(cls); }

    /** "Class (transient|permanent): context" — the JobResult::error
     *  rendering. */
    std::string describe() const;
};

/** Map a classified fatal (the ScopedFatalThrow seam) into the
 *  taxonomy; ErrKind::Unclassified lands in Internal. */
RunError runErrorFromFatal(const FatalError &e, const std::string &uri);

} // namespace darco::sim

#endif // DARCO_SIM_RUN_ERROR_HH
