/**
 * @file
 * Benchmark parameterization.
 *
 * Each paper benchmark (SPEC CPU2006 INT/FP, Physicsbench,
 * MediaBench) is reproduced as a synthetic guest program generated
 * from a common set of kernel archetypes. The parameters control
 * exactly the application characteristics the paper's analysis
 * attributes the observed behaviour to (§III-B, §III-E):
 *
 *  - static code footprint (cold blobs + number of distinct loops),
 *  - dynamic/static instruction ratio and its closeness to the
 *    BB->SB promotion threshold (loop iteration counts),
 *  - indirect-branch density (dispatch tables, call/return pairs),
 *  - FP share and memory behaviour (streams, strides, pointer
 *    chases, footprints).
 *
 * The dynamic/static ratio emerges naturally: the outer phase loop
 * re-executes the whole phase cycle until the simulation budget is
 * reached (benchmarks with small outerRepeats halt early — the
 * paper's "some benchmarks run to completion").
 */

#ifndef DARCO_WORKLOADS_PARAMS_HH
#define DARCO_WORKLOADS_PARAMS_HH

#include <cstdint>
#include <string>
#include <vector>

#include "guest/assembler.hh"

namespace darco::workloads {

struct BenchParams
{
    std::string name;
    std::string suite;           ///< "SPEC INT"/"SPEC FP"/"Physics"/"Media"
    uint64_t seed = 1;

    /** Outer phase-cycle repetitions (large = budget-bound). */
    uint64_t outerRepeats = 1u << 30;

    /**
     * One-shot initialization code (executed exactly once): the
     * static population that never leaves IM (paper Fig 5a: ~36% of
     * static code is not promoted because it runs <= IM/BBth times).
     * 0 means "derive a default from the cold-blob size".
     */
    uint32_t initBlobInsts = 0;

    /** Straight-line cold code executed once per phase cycle. */
    uint32_t coldBlobInsts = 0;

    /** Medium loops: the BBM-resident / near-threshold population. */
    uint32_t warmLoops = 0;
    uint32_t warmIters = 0;      ///< per phase cycle, per loop
    uint32_t warmBody = 8;       ///< ALU ops per iteration body
    bool warmMem = true;         ///< bodies include array traffic

    /** Hot kernels: the SBM-resident population. */
    uint32_t hotLoops = 1;
    uint32_t hotIters = 100000;  ///< per phase cycle, per kernel
    uint32_t hotBody = 6;

    /** Fraction of warm+hot loops using FP arithmetic. */
    double fpShare = 0.0;

    /** Indirect-dispatch kernel (jump table, varying selector). */
    uint32_t dispatchIters = 0;  ///< per phase cycle
    uint32_t dispatchTargets = 8;

    /** Call/return pairs per phase cycle (returns are indirect). */
    uint32_t callPairs = 0;

    /** Data footprint and access pattern. */
    uint32_t dataKb = 64;
    uint32_t strideBytes = 4;
    uint32_t chaseIters = 0;     ///< pointer-chase loads per cycle
    uint32_t chaseNodes = 4096;
};

/** Build the synthetic guest program for @p params. */
guest::Program buildBenchmark(const BenchParams &params);

/** All 48 paper benchmarks in figure order. */
const std::vector<BenchParams> &allBenchmarks();

/** Subset by suite name ("SPEC INT", "SPEC FP", "Physics", "Media"). */
std::vector<const BenchParams *> suiteBenchmarks(const std::string &suite);

/** Find one benchmark by name (nullptr if absent). */
const BenchParams *findBenchmark(const std::string &name);

/** The four paper outliers of §III-D. */
std::vector<const BenchParams *> outlierBenchmarks();

} // namespace darco::workloads

#endif // DARCO_WORKLOADS_PARAMS_HH
