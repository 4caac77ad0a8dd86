/**
 * @file
 * Guest-level dynamic branch profile.
 *
 * The PR-7 characterization branch profile (profile/branch.hh) keys
 * by *host* PC — the right view for predictor studies, but useless
 * against a static guest CFG: translated code executes host branches
 * at host addresses. This profile instead hangs off the authoritative
 * emulator's BranchObserver hook (guest/emulator.hh). Under
 * co-simulation the state checker replays every retired guest
 * instruction through the emulator, so the observer sees the exact
 * dynamic guest branch stream regardless of which TOL mode (IM, BBM,
 * SBM) executed it — including chained superblock exits that never
 * touch a dispatch path.
 *
 * The static CFG analyzer (src/analysis/cfg.hh) cross-validates this
 * profile against the CFG it derives from the program bytes alone:
 * every observed site must be a static branch, and the per-site
 * taken/not-taken counts must satisfy flow conservation over the
 * basic-block graph.
 *
 * Deliberately NOT part of profile::RunProfile: it is derived from
 * the authoritative emulator, not from timing records, so it has no
 * place in the result cache or the trace format — replay parity is
 * untouched.
 */

#ifndef DARCO_PROFILE_GUEST_BRANCH_HH
#define DARCO_PROFILE_GUEST_BRANCH_HH

#include <cstdint>
#include <map>

#include "guest/emulator.hh"
#include "guest/isa.hh"

namespace darco::profile {

/** Dynamic observations of one static guest branch site. */
struct GuestBranchSite
{
    uint64_t taken = 0;      ///< executions that redirected control
    uint64_t notTaken = 0;   ///< not-taken JCC executions (fallthrough)
    bool isCond = false;
    bool isIndirect = false; ///< JMPI / CALLI / RET
    bool isCall = false;
    bool isRet = false;
    /**
     * Observed landing EIPs of taken executions, with counts. For a
     * direct branch this has a single entry; for an indirect branch
     * it is the dynamic target distribution. Not-taken executions are
     * not recorded here — the fallthrough address is static.
     */
    std::map<uint32_t, uint64_t> targets;

    uint64_t execs() const { return taken + notTaken; }
};

/**
 * Whole-run guest branch profile, keyed by branch EIP. std::map for
 * deterministic iteration (reports and cross-checks walk it).
 */
struct GuestBranchProfile
{
    std::map<uint32_t, GuestBranchSite> sites;
    uint64_t dynBranches = 0;
    uint64_t dynCondBranches = 0;
};

/** BranchObserver that accumulates a GuestBranchProfile. */
class GuestBranchCollector : public guest::BranchObserver
{
  public:
    void
    onBranch(uint32_t pc, uint32_t next, bool taken,
             const guest::OpInfo &info) override
    {
        GuestBranchSite &site = prof.sites[pc];
        site.isCond = info.isCondBranch;
        site.isIndirect = info.isIndirect;
        site.isCall = info.isCall;
        site.isRet = info.isRet;
        if (taken) {
            ++site.taken;
            ++site.targets[next];
        } else {
            ++site.notTaken;
        }
        ++prof.dynBranches;
        if (info.isCondBranch)
            ++prof.dynCondBranches;
    }

    const GuestBranchProfile &profile() const { return prof; }

  private:
    GuestBranchProfile prof;
};

} // namespace darco::profile

#endif // DARCO_PROFILE_GUEST_BRANCH_HH
