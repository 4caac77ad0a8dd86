#!/usr/bin/env python3
"""Determinism lint: text-level gate over src/ (no compiler needed).

The engine's core contract is that every measured quantity is a pure
function of (workload, config) — bit-identical across machines, pool
sizes, retries and cache hits. Two classes of source-level drift
can silently break that contract long before any test notices:

1. **Clock or randomness reads in engine code.** A `rand()` seeded
   from time, a `std::chrono` timestamp influencing a threshold, a
   `clock()` call feeding a heuristic — any of these makes two runs
   of the same cell different experiments. The only legitimate
   consumers of wall-clock time are the fault-tolerance *wiring*:
   the watchdog's deadline arithmetic and the retry backoff sleep
   (docs/robustness.md §2–3), which by design change whether a result
   exists, never what it measures. Those files are allowlisted below;
   everything else under src/ must be clock-free and RNG-free
   (workload generation uses its own seeded LCG, which is exactly the
   point: seeds are config, clocks are not).

2. **Unclassified `fatal()` in retry-relevant subsystems.** The
   error taxonomy (sim/run_error.hh) maps classified fatal sites
   (`fatal_kind(...)`) to retry decisions; an unclassified `fatal()`
   lands in `Internal` and is never retried. That is the correct
   *default*, but inside the subsystems a batch campaign actually
   executes (sim, tol, timing, ir, guest, profile) an unclassified
   site is almost always an unfinished thought: either the failure is
   environmental (should be `IoTransient`/`TraceCorrupt`/...) or it
   is a genuine invariant violation (should say so via
   `ErrKind::Internal` explicitly, like the IR verifier does). New
   fatal sites there must pick a kind — or carry an explicit
   `det-lint: allow(<why>)` marker on the same line, as the
   fault-injection point modeling "unclassified engine fatal" does.

3. **Raw struct bytes in persisted formats.** Everything under
   src/runner/ that reaches disk (cache entries, the config
   fingerprint) is written field by field from the structs' field
   lists (common/fields.hh), never as a struct's memory: a same-size
   field reorder or a compiler's padding would otherwise silently
   change or misread every entry. `memcpy` and
   `is_trivially_copyable` (the guard that raw-byte codecs lean on)
   are findings there.

Exit 0 = clean, 1 = findings (printed one per line), 2 = usage error.
Run from anywhere: paths resolve relative to the repo root.
"""

import os
import re
import sys

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# ---------------------------------------------------------------------
# Rule 1: clocks and randomness
# ---------------------------------------------------------------------

# The fault-tolerance wiring may read the clock (watchdog deadlines,
# backoff sleeps, wall-clock telemetry in the batch runner's progress
# accounting). Nothing it computes from those reads feeds a measured
# quantity — enforced by the bit-identical parallel-vs-serial and
# kill-and-resume A/Bs in the test suite.
#
# The campaign scale-out layer (src/runner/ result cache,
# docs/campaigns.md) does file I/O — cache entry reads, atomic
# rename-on-commit writes — but needs NO allowlist
# entry and must never grow one for clocks or randomness: its
# temp-file uniqueness comes from getpid() plus a process-local
# atomic sequence, its hit/verify selection hashes the config
# fingerprint, and everything it stores or replays is a checksummed
# snapshot of already-deterministic quantities. If cache code ever
# appears to need a clock or RNG, that is a design smell (a
# content-addressed cache keyed on pure inputs has no use for
# either), not grounds for widening this list. The sim-core ban
# (everything outside these three files) stays absolute.
CLOCK_ALLOWLIST = {
    "src/runner/watchdog.hh",
    "src/runner/watchdog.cc",
    "src/runner/batch_runner.cc",
}

CLOCK_PATTERNS = [
    (re.compile(r"(?<![A-Za-z0-9_:])s?rand\s*\("), "C rand()/srand()"),
    (re.compile(r"(?<![A-Za-z0-9_:])random\s*\("), "C random()"),
    (re.compile(r"\bdrand48\b|\blrand48\b"), "C *rand48()"),
    (re.compile(r"(?<![A-Za-z0-9_:.])time\s*\("), "C time()"),
    (re.compile(r"(?<![A-Za-z0-9_:.])clock\s*\("), "C clock()"),
    (re.compile(r"\bclock_gettime\b|\bgettimeofday\b"),
     "POSIX clock read"),
    (re.compile(r"\bstd::chrono\b"), "std::chrono"),
    (re.compile(r"\bstd::random_device\b"), "std::random_device"),
]

# ---------------------------------------------------------------------
# Rule 2: unclassified fatal() in retry-relevant subsystems
# ---------------------------------------------------------------------

FATAL_DIRS = ("src/sim", "src/tol", "src/timing", "src/ir",
              "src/guest", "src/profile")

UNCLASSIFIED_FATAL = re.compile(r"(?<![A-Za-z0-9_])fatal(_if)?\s*\(")

# ---------------------------------------------------------------------
# Rule 3: raw struct bytes in persisted formats
# ---------------------------------------------------------------------

RAW_BYTES_DIRS = ("src/runner/",)

RAW_BYTES = re.compile(r"\bmemcpy\b|\bis_trivially_copyable")

ALLOW_MARKER = re.compile(r"det-lint:\s*allow\(")


def strip_comments(text):
    """Remove // and /* */ comments (string literals are not parsed:
    engine diagnostics never contain the scanned tokens, and a false
    positive is a visible lint failure, not silent acceptance)."""
    text = re.sub(r"/\*.*?\*/", lambda m: "\n" * m.group(0).count("\n"),
                  text, flags=re.S)
    return re.sub(r"//[^\n]*", "", text)


def scan():
    findings = []
    for root, _dirs, files in os.walk(os.path.join(REPO, "src")):
        for name in sorted(files):
            if not name.endswith((".cc", ".hh")):
                continue
            path = os.path.join(root, name)
            rel = os.path.relpath(path, REPO)
            with open(path, encoding="utf-8") as f:
                raw_lines = f.read().splitlines()
            code_lines = strip_comments("\n".join(raw_lines)).splitlines()

            for lineno, (raw, code) in enumerate(
                    zip(raw_lines, code_lines), start=1):
                # The allow marker covers its own line and the two
                # following lines (it lives in a comment immediately
                # above the site it excuses).
                if any(ALLOW_MARKER.search(raw_lines[i])
                       for i in range(max(0, lineno - 3), lineno)):
                    continue
                if rel not in CLOCK_ALLOWLIST:
                    for pattern, what in CLOCK_PATTERNS:
                        if pattern.search(code):
                            findings.append(
                                f"{rel}:{lineno}: {what} in engine "
                                f"code (determinism: clocks/RNG are "
                                f"allowed only in the watchdog/backoff "
                                f"wiring): {raw.strip()}")
                if rel.startswith(FATAL_DIRS):
                    if UNCLASSIFIED_FATAL.search(code):
                        findings.append(
                            f"{rel}:{lineno}: unclassified fatal() in "
                            f"a retry-relevant subsystem — use "
                            f"fatal_kind(ErrKind::...) so the error "
                            f"taxonomy can classify it, or mark the "
                            f"line 'det-lint: allow(<why>)': "
                            f"{raw.strip()}")
                if rel.startswith(RAW_BYTES_DIRS):
                    if RAW_BYTES.search(code):
                        findings.append(
                            f"{rel}:{lineno}: raw struct bytes in a "
                            f"persisted format — encode field by "
                            f"field from the struct's field list "
                            f"(common/fields.hh): {raw.strip()}")
    return findings


def main(argv):
    if len(argv) > 1:
        print(__doc__, file=sys.stderr)
        return 2
    findings = scan()
    if findings:
        print("DETERMINISM LINT FAILED:", file=sys.stderr)
        for f in findings:
            print(f"  {f}", file=sys.stderr)
        return 1
    print("determinism lint passed")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
