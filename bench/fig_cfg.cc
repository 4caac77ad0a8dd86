/**
 * @file
 * Static-CFG characterization bench: per-workload basic blocks,
 * static instruction mix, dominator-tree shape and natural loops
 * from the static analyzer (src/analysis/cfg.hh), cross-validated
 * against the dynamic branch profile of a real co-simulated run.
 *
 * Every run doubles as a live verification gate, mirroring
 * fig_reuse's analytic-oracle pattern: the workload executes with
 * the IR/regalloc verifier on (TolConfig::verifyIr) and the guest
 * branch stream collected from the authoritative emulator, and the
 * bench hard-fails unless (1) every dynamically observed branch PC
 * decodes to a CFG branch of the same kind and (2) the measured
 * per-branch taken/not-taken counts satisfy per-block flow
 * conservation (Kirchhoff) over the static edges — the same exact
 * invariants tests/test_analysis.cc pins under ctest, checked here
 * at bench budgets on every workload the sweep selects.
 */

#include <cinttypes>

#include "analysis/cfg.hh"
#include "bench_util.hh"
#include "sim/system.hh"

using namespace darco;
using bench::BenchArgs;

namespace an = darco::analysis;

namespace {

/** Depth of a block in the dominator tree (entry = 0); blocks
 *  unreachable over static edges report 0. */
size_t
domDepth(const an::Cfg &cfg, size_t block)
{
    size_t depth = 0;
    while (block != cfg.entryIndex && cfg.idom[block] != an::kNoIdom &&
           cfg.idom[block] != block && depth <= cfg.blocks.size()) {
        block = cfg.idom[block];
        ++depth;
    }
    return depth;
}

} // namespace

int
main(int argc, char **argv)
{
    // Every run here is a live co-simulated System that the cross-
    // checks inspect after it finishes, so none goes through the
    // batch runner, and its flags are unknown arguments.
    const BenchArgs args =
        BenchArgs::parse(argc, argv, bench::Sweep::NoBatch);

    struct Row
    {
        std::string name;
        std::string suite;
        an::InstMix mix;
        size_t blocks;
        size_t loops;
        size_t maxDomDepth;
        uint64_t dynBranches;
        uint64_t dynCondBranches;
        size_t dynSites;
        uint64_t retired;
    };
    std::vector<Row> rows;

    for (const std::string &uri : bench::selectWorkloadUris(args)) {
        const workloads::Workload w = workloads::resolveWorkload(uri);
        std::fprintf(stderr, "  analyzing %-24s ...\n", w.name.c_str());

        // Static side: the CFG must pass its own structural
        // self-check before it is allowed to judge the dynamics.
        const an::Cfg cfg = an::buildCfg(w.program);
        an::Findings f = an::verifyCfg(cfg);
        fatal_if(!f.empty(), "%s: static CFG failed self-check:\n%s",
                 w.name.c_str(), an::joinFindings(f).c_str());

        // Dynamic side: a verified, co-simulated, profiled run. The
        // guest branch stream only exists under cosim + profile (the
        // authoritative emulator replays every retired instruction),
        // and verifyIr keeps the IR/regalloc verifier gating every
        // translation of this run.
        sim::SimConfig sim_cfg;
        sim_cfg.guestBudget = args.budget;
        sim_cfg.cosim = true;
        sim_cfg.cosimStrict = true;
        sim_cfg.profile = true;
        sim_cfg.tol.bbToSbThreshold =
            sim::scaledSbThreshold(args.budget);
        fatal_if(!sim_cfg.tol.verifyIr,
                 "TolConfig::verifyIr no longer defaults on; fig_cfg "
                 "requires a verified run");
        sim::System sys(sim_cfg);
        sys.load(w);
        const sim::SystemResult res = sys.run();

        const profile::GuestBranchProfile *prof =
            sys.guestBranchProfile();
        fatal_if(!prof, "%s: co-simulated profiled run carries no "
                 "guest branch profile",
                 w.name.c_str());

        // The live cross-checks (exact, not statistical): any
        // divergence between the static CFG and the measured branch
        // stream is a hard failure.
        f = an::crossCheckBranchSites(cfg, *prof);
        fatal_if(!f.empty(),
                 "%s: dynamic branch sites diverged from the static "
                 "CFG:\n%s",
                 w.name.c_str(), an::joinFindings(f).c_str());
        f = an::crossCheckFlowConservation(cfg, *prof,
                                           sys.guestState().eip);
        fatal_if(!f.empty(),
                 "%s: flow conservation violated between the static "
                 "CFG and the measured branch counts:\n%s",
                 w.name.c_str(), an::joinFindings(f).c_str());

        size_t max_depth = 0;
        for (size_t b = 0; b < cfg.blocks.size(); ++b)
            max_depth = std::max(max_depth, domDepth(cfg, b));

        rows.push_back({w.name, w.suite, cfg.mix, cfg.blocks.size(),
                        cfg.loops.size(), max_depth,
                        prof->dynBranches, prof->dynCondBranches,
                        prof->sites.size(), res.guestRetired});
    }

    std::printf("=== Static CFG: blocks, dominators, loops ===\n");
    Table shape({"benchmark", "suite", "insts", "bytes", "blocks",
                 "loops", "domdepth", "avg insts/blk"});
    for (const Row &r : rows) {
        shape.beginRow();
        shape.add(r.name);
        shape.add(r.suite);
        shape.addf("%u", r.mix.total);
        shape.addf("%u", r.mix.codeBytes);
        shape.addf("%zu", r.blocks);
        shape.addf("%zu", r.loops);
        shape.addf("%zu", r.maxDomDepth);
        shape.addf("%.2f", static_cast<double>(r.mix.total) /
                               static_cast<double>(r.blocks));
    }
    bench::renderTable(shape, args);

    std::printf("\n=== Static instruction mix (%% of static insts; "
                "categories overlap) ===\n");
    Table mix({"benchmark", "mov%", "alu%", "load%", "store%",
               "stack%", "branch%", "cond%", "ind%", "fp%", "nop%"});
    for (const Row &r : rows) {
        const double total = r.mix.total;
        mix.beginRow();
        mix.add(r.name);
        mix.addf("%.1f", 100.0 * r.mix.moves / total);
        mix.addf("%.1f", 100.0 * r.mix.alu / total);
        mix.addf("%.1f", 100.0 * r.mix.loads / total);
        mix.addf("%.1f", 100.0 * r.mix.stores / total);
        mix.addf("%.1f", 100.0 * r.mix.stack / total);
        mix.addf("%.1f", 100.0 * r.mix.branches / total);
        mix.addf("%.1f", 100.0 * r.mix.condBranches / total);
        mix.addf("%.1f", 100.0 * r.mix.indirectBranches / total);
        mix.addf("%.1f", 100.0 * r.mix.fpOps / total);
        mix.addf("%.1f", 100.0 * r.mix.nops / total);
    }
    bench::renderTable(mix, args);

    std::printf("\n=== Dynamic agreement (co-simulated run, verifier "
                "on) ===\n");
    Table dyn({"benchmark", "retired", "dyn branches", "dyn cond",
               "sites", "static branches", "site coverage%"});
    for (const Row &r : rows) {
        dyn.beginRow();
        dyn.add(r.name);
        dyn.addf("%" PRIu64, r.retired);
        dyn.addf("%" PRIu64, r.dynBranches);
        dyn.addf("%" PRIu64, r.dynCondBranches);
        dyn.addf("%zu", r.dynSites);
        dyn.addf("%u", r.mix.branches);
        dyn.addf("%.1f", 100.0 * static_cast<double>(r.dynSites) /
                             static_cast<double>(r.mix.branches));
    }
    bench::renderTable(dyn, args);

    std::printf("\ncfg cross-check: dynamic branch sites and flow "
                "conservation matched the static CFG exactly on all "
                "%zu workload(s)\n", rows.size());
    return 0;
}
