/**
 * @file
 * Static IR/translation verifier (docs/analysis.md).
 *
 * Independent re-derivation of the invariants every TOL pass must
 * preserve, checked between passes when TolConfig::verifyIr is on:
 *
 *  - verifyTrace():      structural operand/width checks, reaching-
 *                        definitions def-before-use + SSA discipline
 *                        for temporaries, exit-table consistency, and
 *                        memory/branch side-effect ordering.
 *  - verifySchedule():   the scheduler's output is a segment-local
 *                        permutation of its input that respects every
 *                        dependence edge (RAW/WAR/WAW per vreg plus
 *                        the conservative memory model), with the
 *                        edges recomputed here from the pre-schedule
 *                        trace — not taken from the scheduler.
 *  - verifyAllocation(): post-regalloc proof that no two overlapping
 *                        live ranges share a host register or spill
 *                        slot, that bound vregs kept their pre-colored
 *                        registers, and that every live temporary has
 *                        a location.
 *
 * All three are pure observers: they never mutate the trace, charge
 * no cost-model work, and emit no records, so enabling verification
 * cannot change any determinism field (GoldenDigests checks this on
 * every engine scenario). The check*() wrappers raise the findings as a classified
 * fatal_kind(ErrKind::Internal) through the error taxonomy
 * (sim/run_error.hh), so a batch campaign reports a miscompile as a
 * permanent, never-retried Internal failure.
 */

#ifndef DARCO_ANALYSIS_VERIFY_HH
#define DARCO_ANALYSIS_VERIFY_HH

#include <string>
#include <vector>

#include "ir/ir.hh"
#include "ir/regalloc.hh"

namespace darco::analysis {

/** Verifier findings: one human-readable diagnostic per violation.
 *  Empty means the property holds. */
using Findings = std::vector<std::string>;

/** Join findings into one newline-separated diagnostic string. */
inline std::string
joinFindings(const Findings &findings)
{
    std::string out;
    for (const std::string &f : findings) {
        if (!out.empty())
            out += "\n  ";
        out += f;
    }
    return out;
}

/**
 * Structural + dataflow verification of @p trace.
 *
 * @param scheduled the trace has been through the instruction
 *        scheduler: side-effect guest-order monotonicity is skipped
 *        (reordering within a segment legitimately breaks it;
 *        verifySchedule() proves the reorder safe instead).
 */
Findings verifyTrace(const ir::Trace &trace, bool scheduled = false);

/**
 * Verify that @p after is a legal schedule of @p before: identical
 * exits/EIP tables, exit instructions pinned in place, each segment a
 * permutation of the original, and every dependence edge of the
 * original order preserved.
 */
Findings verifySchedule(const ir::Trace &before, const ir::Trace &after);

/**
 * Verify @p alloc against @p trace: recomputes every temporary's live
 * interval and proves register/spill-slot assignments conflict-free.
 */
Findings verifyAllocation(const ir::Trace &trace,
                          const ir::Allocation &alloc,
                          const ir::AllocPools &pools = ir::defaultPools());

/**
 * fatal_kind(ErrKind::Internal) with the findings when non-empty.
 * @p stage names the pass just executed ("sbm/cse", "bbm/regalloc",
 * ...) for the diagnostic.
 */
void checkTrace(const ir::Trace &trace, const char *stage,
                bool scheduled = false);
void checkSchedule(const ir::Trace &before, const ir::Trace &after,
                   const char *stage);
void checkAllocation(const ir::Trace &trace, const ir::Allocation &alloc,
                     const char *stage);

} // namespace darco::analysis

#endif // DARCO_ANALYSIS_VERIFY_HH
