#include "sim/run_error.hh"

namespace darco::sim {

namespace {

struct ClassName
{
    RunErrorClass cls;
    const char *name;
};

constexpr ClassName kClassNames[] = {
    {RunErrorClass::None, "None"},
    {RunErrorClass::BadWorkload, "BadWorkload"},
    {RunErrorClass::TraceCorrupt, "TraceCorrupt"},
    {RunErrorClass::GuestFault, "GuestFault"},
    {RunErrorClass::BudgetExhausted, "BudgetExhausted"},
    {RunErrorClass::Timeout, "Timeout"},
    {RunErrorClass::IoTransient, "IoTransient"},
    {RunErrorClass::Internal, "Internal"},
};

} // namespace

const char *
runErrorClassName(RunErrorClass cls)
{
    for (const ClassName &entry : kClassNames) {
        if (entry.cls == cls)
            return entry.name;
    }
    return "Internal";
}

std::string
RunError::describe() const
{
    if (cls == RunErrorClass::None)
        return {};
    return strprintf("%s (%s): %s", name(),
                     transient() ? "transient" : "permanent",
                     context.c_str());
}

RunError
runErrorFromFatal(const FatalError &e, const std::string &uri)
{
    RunError err;
    err.uri = uri;
    err.context = e.what();
    switch (e.kind()) {
      case ErrKind::BadWorkload:
        err.cls = RunErrorClass::BadWorkload;
        break;
      case ErrKind::Io:
        err.cls = RunErrorClass::IoTransient;
        break;
      case ErrKind::Corrupt:
        err.cls = RunErrorClass::TraceCorrupt;
        break;
      case ErrKind::Guest:
        err.cls = RunErrorClass::GuestFault;
        break;
      case ErrKind::Unclassified:
      case ErrKind::Internal:
        err.cls = RunErrorClass::Internal;
        break;
    }
    return err;
}

} // namespace darco::sim
