#!/usr/bin/env python3
"""Perf-tracking gate: compare a freshly measured BENCH_engine.json
against the committed one (ROADMAP "Perf tracking").

The gate iterates the COMMITTED baseline, not the fresh run, so a
scenario that disappears from the fresh measurement (dropped from the
harness, or skipped by a crash) is a hard failure rather than a
silent shrink of the compared set. The reverse holds too: a fresh
scenario with no committed baseline fails, so new harness scenarios
must land with a regenerated committed JSON that gates them.

Checks per baseline scenario:

- Determinism fields (guest_retired, host_records, sim_cycles) must
  match EXACTLY. They are bit-stable across machines and build
  flags, so any drift is a simulator semantics change that must be
  intentional (and must come with a regenerated committed JSON).
- timing_core records which core actually advanced the clock in the
  timed run ("event" / "reference", captured from the live pipeline
  by the harness). It must match the baseline exactly: a silent
  core fallback makes every throughput comparison meaningless, which
  is precisely how wide-issue configs lost the event core before the
  width-generalized accounting.
- Throughput (guest_mips) may not regress by more than the tolerance
  (default 5%, override with DARCO_PERF_TOLERANCE, e.g. "0.05").
  Wall-perf comparisons across different machines are noisy; the
  tolerance gates only egregious regressions, while the in-process
  event_core_speedup field stays machine-consistent.

Usage: check_perf.py <fresh.json> <committed.json>
       check_perf.py --update <fresh.json> <committed.json>

--update regenerates the committed baseline in place from the fresh
measurement (use after an intentional engine change: re-run
engine_speed on the measurement box, then commit the refreshed JSON).

Exit code 0 = pass, 1 = regression/mismatch, 2 = usage error.
"""

import json
import os
import shutil
import sys

DETERMINISM_FIELDS = ("guest_retired", "host_records", "sim_cycles",
                      "timing_core")

# Why every scenario must report "execution": "serial": engine_speed
# samples are host timings of ONE simulation owning the whole
# process. The parallel batch runner exists for the figure sweeps
# (whose output is simulated quantities, immune to co-scheduling),
# but routing engine_speed through a worker pool would make scenarios
# share cache/bandwidth with each other, silently inflating
# `seconds` and corrupting every guest_mips / event_core_speedup
# comparison in the committed trajectory. The harness asserts this at
# runtime (engine_speed rejects --jobs > 1); this gate pins it in the
# committed JSON so a future code change cannot re-route it quietly.
SERIAL_ONLY_EXPLANATION = (
    "engine_speed scenarios must execute serially: the committed "
    "perf trajectory is a set of single-job host timings, and a "
    "scenario that ran through the parallel batch pool shared the "
    "process with other jobs, so its seconds/guest_mips numbers are "
    "not comparable with any committed baseline. Keep engine_speed "
    "off the BatchRunner path (it asserts --jobs <= 1) and "
    "regenerate the JSON serially.")

# Why every scenario must report "profile": "off": characterization
# profiling (MetricsOptions::profile) adds an exact stack-distance
# update per memory access plus a branch-predictor replica per
# branch. That is fine for the fig_reuse characterization bench, but
# an engine_speed sample taken with profiling live measures the
# profiler, not the engine, so its seconds/guest_mips are not
# comparable with any unprofiled baseline. The harness records the
# field from the live System (not the requested config), and this
# gate pins it on both sides so profiling cannot leak into the
# committed trajectory quietly.
PROFILE_OFF_EXPLANATION = (
    "engine_speed scenarios must run with characterization profiling "
    "off: a profiled run times the stack-distance engine and the "
    "branch-profile replica on top of the engine, so its "
    "seconds/guest_mips numbers are not comparable with any committed "
    "baseline. Keep MetricsOptions::profile off in the engine_speed "
    "harness (fig_reuse is the profiling bench) and regenerate the "
    "JSON unprofiled.")

# Why every scenario must report "verify": "off": the IR/regalloc
# verifier (TolConfig::verifyIr) is a pure observer — it cannot change
# any determinism field — but it re-derives reaching definitions,
# dependence edges and live intervals for every translation, which is
# real translation-path work. An engine_speed sample taken with it
# live times the verifier on top of the engine, so its
# seconds/guest_mips numbers are not comparable with any unverified
# baseline. The harness records the field from the live runtime (not
# the requested config), and this gate pins it on both sides;
# engine_speed's verify:on overhead A/B stays informational (stderr
# only, never committed).
VERIFY_OFF_EXPLANATION = (
    "engine_speed scenarios must run with IR verification off: a "
    "verified run times the IR/regalloc verifier's dataflow "
    "re-derivation on top of the engine, so its seconds/guest_mips "
    "numbers are not comparable with any committed baseline. Keep "
    "TolConfig::verifyIr off on timed engine_speed scenarios (ctest "
    "and fig_cfg are the verification gates) and regenerate the JSON "
    "unverified.")

# Why every scenario must report "cache": "off": the campaign result
# cache (BatchConfig::cacheDir, docs/campaigns.md) replays a stored
# RunSnapshot instead of simulating, so a cache-hit "run" takes
# microseconds of file I/O and its seconds/guest_mips measure the
# cache, not the engine. The simulated quantities stay bit-identical
# either way — which is exactly why only this gate can catch a
# cache-contaminated trajectory. The harness records the field from
# its own configuration (engine_speed never wires a cache dir), and
# this gate pins it on both sides so a future re-route through the
# cached campaign path fails here before anyone commits its output.
CACHE_OFF_EXPLANATION = (
    "engine_speed scenarios must run with the result cache off: a "
    "cache hit replays a stored snapshot instead of simulating, so "
    "its seconds/guest_mips numbers time file I/O rather than the "
    "engine and are not comparable with any committed baseline. Keep "
    "BatchConfig::cacheDir empty on the engine_speed path "
    "(run_benchmark --cache-dir is the campaign entry point) and "
    "regenerate the JSON uncached.")

UPDATE_HINT = (
    "If this change is intentional, regenerate the committed "
    "baseline in place:\n"
    "    (cd build && ./bench/engine_speed) && \\\n"
    "    python3 bench/check_perf.py --update "
    "build/BENCH_engine.json BENCH_engine.json\n"
    "and commit the refreshed BENCH_engine.json.\n"
    "Baseline runs must execute with every fault-tolerance knob off\n"
    "(no --timeout/--retries/--cache-dir, no cancel token wired): a\n"
    "watchdog-cancelled or cache-satisfied run measures a different\n"
    "experiment, and retry backoff pollutes the wall-clock numbers\n"
    "(docs/robustness.md).")


def update(fresh_path, committed_path):
    with open(fresh_path) as f:
        num_scenarios = len(json.load(f)["scenarios"])  # pre-copy check
    shutil.copyfile(fresh_path, committed_path)
    print(f"updated {committed_path} from {fresh_path} "
          f"({num_scenarios} scenarios)")
    return 0


def main(argv):
    if len(argv) > 1 and argv[1] == "--update":
        if len(argv) != 4:
            print(__doc__, file=sys.stderr)
            return 2
        return update(argv[2], argv[3])
    if len(argv) != 3:
        print(__doc__, file=sys.stderr)
        return 2
    with open(argv[1]) as f:
        fresh = json.load(f)["scenarios"]
    with open(argv[2]) as f:
        committed = json.load(f)["scenarios"]

    tolerance = float(os.environ.get("DARCO_PERF_TOLERANCE", "0.05"))
    failures = []

    for name, base in committed.items():
        # Both sides must record serial execution (see
        # SERIAL_ONLY_EXPLANATION): the committed baseline so the
        # repo never blesses a pool-contaminated trajectory, and the
        # fresh run so a re-routed harness fails here even before
        # anyone commits its output.
        if base.get("execution") != "serial":
            failures.append(f"{name}: committed scenario reports "
                            f"execution={base.get('execution')!r}. "
                            + SERIAL_ONLY_EXPLANATION)
        if base.get("profile") != "off":
            failures.append(f"{name}: committed scenario reports "
                            f"profile={base.get('profile')!r}. "
                            + PROFILE_OFF_EXPLANATION)
        if base.get("verify") != "off":
            failures.append(f"{name}: committed scenario reports "
                            f"verify={base.get('verify')!r}. "
                            + VERIFY_OFF_EXPLANATION)
        if base.get("cache") != "off":
            failures.append(f"{name}: committed scenario reports "
                            f"cache={base.get('cache')!r}. "
                            + CACHE_OFF_EXPLANATION)
        cur = fresh.get(name)
        if cur is None:
            failures.append(f"{name}: scenario disappeared from the "
                            "fresh measurement (every baseline "
                            "scenario must be re-measured)")
            continue
        if cur.get("execution") != "serial":
            failures.append(f"{name}: fresh scenario reports "
                            f"execution={cur.get('execution')!r}. "
                            + SERIAL_ONLY_EXPLANATION)
        if cur.get("profile") != "off":
            failures.append(f"{name}: fresh scenario reports "
                            f"profile={cur.get('profile')!r}. "
                            + PROFILE_OFF_EXPLANATION)
        if cur.get("verify") != "off":
            failures.append(f"{name}: fresh scenario reports "
                            f"verify={cur.get('verify')!r}. "
                            + VERIFY_OFF_EXPLANATION)
        if cur.get("cache") != "off":
            failures.append(f"{name}: fresh scenario reports "
                            f"cache={cur.get('cache')!r}. "
                            + CACHE_OFF_EXPLANATION)

        for field in DETERMINISM_FIELDS:
            if cur.get(field) != base.get(field):
                hint = ("a timing core silently changed: fix the "
                        "engine or intentionally re-baseline"
                        if field == "timing_core" else
                        "semantics change: regenerate the committed "
                        "JSON intentionally or fix the engine")
                failures.append(
                    f"{name}.{field}: determinism drift "
                    f"{base.get(field)} -> {cur.get(field)} ({hint})")

        base_mips = base.get("guest_mips", 0)
        cur_mips = cur.get("guest_mips", 0)
        if base_mips > 0 and cur_mips < base_mips * (1 - tolerance):
            failures.append(
                f"{name}.guest_mips: {base_mips:.3f} -> "
                f"{cur_mips:.3f} "
                f"({cur_mips / base_mips - 1:+.1%}, tolerance "
                f"-{tolerance:.0%})")
        else:
            delta = (cur_mips / base_mips - 1) if base_mips else 0.0
            print(f"  ok {name}: guest_mips {base_mips:.3f} -> "
                  f"{cur_mips:.3f} ({delta:+.1%})")

        # The in-process A/B ratio is load-matched and therefore far
        # less host-dependent than absolute MIPS: gate it with a
        # fixed absolute slack so the event core cannot quietly decay
        # back toward the reference core's speed.
        speedup = cur.get("event_core_speedup")
        base_speedup = base.get("event_core_speedup")
        if speedup is not None and base_speedup is not None:
            if speedup < base_speedup - 0.20:
                failures.append(
                    f"{name}.event_core_speedup: {base_speedup:.2f}x "
                    f"-> {speedup:.2f}x (allowed slack 0.20)")
            elif base_speedup > 1.0 and speedup <= 1.0:
                failures.append(
                    f"{name}.event_core_speedup: {speedup:.2f}x — "
                    "the event core lost to the reference core on a "
                    "scenario where the baseline has it winning "
                    f"({base_speedup:.2f}x)")
            else:
                print(f"     {name}: event_core_speedup "
                      f"{speedup:.2f}x (committed {base_speedup:.2f}x)")

    # The reverse direction is a failure too: a fresh scenario with
    # no committed baseline gets zero determinism/timing_core/speedup
    # coverage, so a new harness scenario must land together with a
    # regenerated committed JSON.
    for name in sorted(fresh.keys() - committed.keys()):
        failures.append(f"{name}: scenario has no committed baseline "
                        "(regenerate BENCH_engine.json so the new "
                        "scenario is gated)")

    if failures:
        print("PERF CHECK FAILED:", file=sys.stderr)
        for failure in failures:
            print(f"  {failure}", file=sys.stderr)
        print(UPDATE_HINT, file=sys.stderr)
        return 1
    print("perf check passed")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
