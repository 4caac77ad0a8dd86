/**
 * @file
 * Workload-source registry and the two builtin sources: the
 * synthetic paper benchmarks (identified by their build recipe,
 * built by resolveWorkload) and the binary-trace replayer.
 *
 * The registry is deliberately explicit (builtin sources are
 * constructed on first use, not via static self-registration): the
 * simulator links as a static library, and a linker is free to drop
 * a translation unit whose only purpose is a self-registering static
 * initializer.
 *
 * The registry is thread-safe: builtin construction is guarded by
 * std::call_once, and registration/lookup serialize on a mutex, so
 * batch workers may resolve (and even register) sources concurrently
 * (docs/concurrency.md).
 */

#include "workloads/source.hh"

#include <mutex>

#include "common/logging.hh"

namespace darco::workloads {

namespace {

constexpr const char *kPrefix = "source://";
constexpr size_t kPrefixLen = 9;

class SyntheticSource : public WorkloadSource
{
  public:
    std::string scheme() const override { return "synthetic"; }

    Workload
    resolve(const std::string &spec) const override
    {
        const BenchParams *params = findBenchmark(spec);
        if (!params) {
            fatal_kind(ErrKind::BadWorkload,
                       "workload source: unknown synthetic benchmark "
                       "'%s' (see --list or "
                       "workloads::allBenchmarks())",
                       spec.c_str());
        }
        return syntheticWorkload(*params);
    }

    std::vector<std::string>
    list() const override
    {
        std::vector<std::string> specs;
        for (const BenchParams &p : allBenchmarks())
            specs.push_back(p.name);
        return specs;
    }
};

class TraceSource : public WorkloadSource
{
  public:
    std::string scheme() const override { return "trace"; }

    Workload
    resolve(const std::string &spec) const override
    {
        trace::ReadResult read = trace::readTrace(spec);
        if (!read.ok()) {
            // Io vs Corrupt drives the runner's retry policy: a
            // flaky filesystem deserves another attempt, a failed
            // checksum never does (sim/run_error.hh).
            fatal_kind(read.failKind == trace::ReadFail::Io
                           ? ErrKind::Io : ErrKind::Corrupt,
                       "workload source: %s", read.error.c_str());
        }
        Workload w;
        w.uri = traceUri(spec);
        w.name = read.file.meta.name;
        w.suite = read.file.meta.suite;
        w.seed = read.file.meta.seed;
        w.program = std::move(read.file.program);
        w.capturedMeta = std::move(read.file.meta);
        if (read.file.hasPins)
            w.capturedPins = std::move(read.file.pins);
        return w;
    }
};

// The registry is process-global mutable state shared across worker
// threads (docs/concurrency.md): construction is std::call_once'd and
// every access to the source vector holds registryMutex. Sources are
// never removed, so a `const WorkloadSource *` obtained under the
// lock stays valid after release — resolve() itself runs unlocked
// (trace resolution does file I/O; serializing it would make the
// registry a batch-wide bottleneck), which is safe because sources
// are immutable once registered (WorkloadSource::resolve is const
// and the builtins are stateless).
std::vector<std::unique_ptr<WorkloadSource>> registrySources;
std::once_flag registryOnce;
std::mutex registryMutex;

void
initBuiltinSources()
{
    std::call_once(registryOnce, [] {
        registrySources.push_back(std::make_unique<SyntheticSource>());
        registrySources.push_back(std::make_unique<TraceSource>());
    });
}

const WorkloadSource *
findSource(const std::string &scheme)
{
    initBuiltinSources();
    std::lock_guard<std::mutex> lock(registryMutex);
    for (const auto &source : registrySources) {
        if (source->scheme() == scheme)
            return source.get();
    }
    return nullptr;
}

} // namespace

bool
isSourceUri(const std::string &text)
{
    return text.rfind(kPrefix, 0) == 0;
}

std::string
syntheticUri(const std::string &benchmark)
{
    return std::string(kPrefix) + "synthetic/" + benchmark;
}

std::string
traceUri(const std::string &path)
{
    return std::string(kPrefix) + "trace/" + path;
}

void
registerSource(std::unique_ptr<WorkloadSource> source)
{
    panic_if(!source, "registerSource(nullptr)");
    initBuiltinSources();
    // Check and insert under one lock: two threads racing to claim
    // the same scheme must serialize, with exactly one winner.
    std::lock_guard<std::mutex> lock(registryMutex);
    for (const auto &existing : registrySources) {
        fatal_if(existing->scheme() == source->scheme(),
                 "workload source: scheme '%s' already registered",
                 source->scheme().c_str());
    }
    registrySources.push_back(std::move(source));
}

Workload
identifyWorkload(const std::string &uri_or_name)
{
    if (!isSourceUri(uri_or_name)) {
        // Compatibility: bare names are synthetic benchmarks.
        return findSource("synthetic")->resolve(uri_or_name);
    }
    const std::string rest = uri_or_name.substr(kPrefixLen);
    const size_t slash = rest.find('/');
    if (slash == std::string::npos || slash == 0 ||
        slash + 1 >= rest.size()) {
        fatal_kind(ErrKind::BadWorkload,
                   "workload source: malformed URI '%s' (expected "
                   "source://<scheme>/<spec>)",
                   uri_or_name.c_str());
    }
    const std::string scheme = rest.substr(0, slash);
    const std::string spec = rest.substr(slash + 1);
    const WorkloadSource *source = findSource(scheme);
    if (!source) {
        fatal_kind(ErrKind::BadWorkload,
                   "workload source: unknown scheme '%s' in '%s'",
                   scheme.c_str(), uri_or_name.c_str());
    }
    return source->resolve(spec);
}

Workload
resolveWorkload(const std::string &uri_or_name)
{
    Workload w = identifyWorkload(uri_or_name);
    if (w.recipe) {
        w.program = buildBenchmark(*w.recipe);
        w.recipe.reset();
    }
    return w;
}

std::vector<std::string>
listWorkloadUris()
{
    initBuiltinSources();
    // Snapshot the source pointers under the lock, then enumerate
    // unlocked (list() may be arbitrarily expensive for a future
    // scheme, and sources are immutable once registered).
    std::vector<const WorkloadSource *> snapshot;
    {
        std::lock_guard<std::mutex> lock(registryMutex);
        for (const auto &source : registrySources)
            snapshot.push_back(source.get());
    }
    std::vector<std::string> uris;
    for (const WorkloadSource *source : snapshot) {
        for (const std::string &spec : source->list()) {
            uris.push_back(std::string(kPrefix) + source->scheme() +
                           "/" + spec);
        }
    }
    return uris;
}

Workload
syntheticWorkload(const BenchParams &params)
{
    Workload w;
    w.uri = syntheticUri(params.name);
    w.name = params.name;
    w.suite = params.suite;
    w.seed = params.seed;
    w.recipe = params;
    return w;
}

} // namespace darco::workloads
