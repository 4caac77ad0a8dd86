/**
 * @file
 * Workload sourcing: where guest programs come from.
 *
 * Historically the synthetic `BenchParams` builder was the only way
 * to obtain a workload, and every consumer was welded to it. This
 * header cuts that seam: a `Workload` is a resolved, ready-to-load
 * guest program plus its identity (name, suite, seed) and — when it
 * came from a trace — the capture-time run recipe and determinism
 * pins. `WorkloadSource` implementations resolve workloads from a
 * scheme-addressed URI space:
 *
 *   source://synthetic/<benchmark>   the 48 paper benchmarks
 *   source://trace/<path>            a captured binary trace
 *
 * Bare names (no "source://") resolve through the synthetic scheme,
 * so existing `--benchmark=429.mcf` style arguments keep working.
 * New scenario classes (recorded regressions, reduced repro cases,
 * externally authored guests) plug in via registerSource() without
 * touching the engine or the harnesses.
 */

#ifndef DARCO_WORKLOADS_SOURCE_HH
#define DARCO_WORKLOADS_SOURCE_HH

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "trace/trace.hh"
#include "workloads/params.hh"

namespace darco::workloads {

/** A resolved workload: program image + identity + trace context. */
struct Workload
{
    std::string uri;     ///< canonical source URI this resolved from
    std::string name;    ///< display name (benchmark or trace name)
    std::string suite;   ///< suite tag; "" when not suite-affiliated
    uint64_t seed = 0;   ///< generator seed (provenance)
    guest::Program program;

    /**
     * Capture-time run recipe, present when sourced from a trace.
     * sim::snapshotRun and runner::BatchRunner re-apply it (budget +
     * promotion thresholds) for bit-identical replay; see
     * sim::applyCaptureRecipe (sim/metrics.hh).
     */
    std::optional<trace::TraceMeta> capturedMeta;
    /** Capture run's determinism pins, when the trace carried them. */
    std::optional<trace::TracePins> capturedPins;
};

/** One scheme of the workload URI space. */
class WorkloadSource
{
  public:
    virtual ~WorkloadSource() = default;

    /** URI scheme this source serves (e.g. "synthetic", "trace"). */
    virtual std::string scheme() const = 0;

    /** Resolve the part after "source://<scheme>/". fatal() on a
     *  spec this source cannot serve. */
    virtual Workload resolve(const std::string &spec) const = 0;

    /** Enumerable specs, for listings ({} when not enumerable). */
    virtual std::vector<std::string> list() const { return {}; }
};

/** True if @p text is a "source://..." workload URI. */
bool isSourceUri(const std::string &text);

/** Canonical URI for a synthetic paper benchmark. */
std::string syntheticUri(const std::string &benchmark);

/** Canonical URI for a captured trace file. */
std::string traceUri(const std::string &path);

/**
 * Register an additional source. fatal() if the scheme is already
 * taken (the builtin "synthetic" and "trace" schemes are reserved).
 * Thread-safe: registration and lookup serialize on the registry
 * mutex, so concurrent registrations of distinct schemes both land
 * and concurrent claims of one scheme have exactly one winner.
 */
void registerSource(std::unique_ptr<WorkloadSource> source);

/**
 * Resolve a workload from a "source://<scheme>/<spec>" URI or, for
 * compatibility, a bare synthetic benchmark name. fatal() on an
 * unknown scheme, unknown benchmark, or unreadable trace.
 * Thread-safe: safe to call from batch workers concurrently with
 * other resolutions and with registerSource().
 */
Workload resolveWorkload(const std::string &uri_or_name);

/** Every enumerable workload URI across the registered sources. */
std::vector<std::string> listWorkloadUris();

/** Build a Workload directly from synthetic parameters. */
Workload syntheticWorkload(const BenchParams &params);

} // namespace darco::workloads

#endif // DARCO_WORKLOADS_SOURCE_HH
