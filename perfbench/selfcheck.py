"""Fast self-check of the benchmark at tiny sizes.

    python3 perfbench/selfcheck.py

Runs every workload with tiny instance pools and checks that:

* every metric named in BENCHMARK.json is emitted, with its unit, and every
  end-to-end value is a positive finite number;
* the traced counts repeat exactly across two traced runs;
* per-layer self times of the traced passes sum to the wall time measured
  around each call of those passes, apart from the tracer (to within
  SELF_TOL: the call dispatch and the outermost wrapper are not in a span);
* every output check passes (``correct`` is true);
* in a directory holding only BENCHMARK.json and the benchmark, run.py
  exits non-zero without printing a result.

Exits 0 when all checks pass, 1 otherwise.
"""

import dataclasses
import json
import math
import shutil
import subprocess
import sys
import tempfile

import run  # sets the BLAS thread variables before numpy loads
import workloads as wl

TINY = {
    "rankdef": (
        wl.Family("rankdef", 30, 8, 5, 4, inconsistent_every=4),
        wl.Family("full", 30, 8, 8, 1),
    ),
    "small_suite": (wl.Family("full", 40, 8, 8, 3, noise=1e-2), wl.Family("rankdef", 20, 6, 3, 3)),
}
SECONDS = 0.2
SEED = 7
SELF_TOL = 0.02


def main() -> int:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    want_e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    want_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    problems = []
    if sorted(w["name"] for w in spec["workloads"]) != sorted(wl.WORKLOADS):
        problems.append("BENCHMARK.json workloads differ from workloads.WORKLOADS")

    pkg = run.import_package()
    out_dir = run.OUT_DIR / "selfcheck"
    out_dir.parent.mkdir(exist_ok=True)
    out_dir.mkdir(exist_ok=True)
    for name, families in TINY.items():
        workload = dataclasses.replace(wl.WORKLOADS[name], families=families)

        def bench(trace):
            result, details = run.run(pkg, workload, SEED, SECONDS, trace, out_dir)
            if not result["correct"]:
                problems.append(f"{name} trace={trace}: failed checks {details['failures']}")
            return result, details

        result, _ = bench(0)
        problems += _units(f"{name} end-to-end", result["metrics"], want_e2e)
        bad = [k for k, v in result["metrics"].items() if not (math.isfinite(v["value"]) and v["value"] > 0)]
        if bad:
            problems.append(f"{name}: end-to-end values not positive and finite: {bad}")

        (first, details), (second, _) = bench(1), bench(1)
        problems += _units(f"{name} per-layer", first["metrics"], want_layer)
        counts = {k: v["value"] for k, v in first["metrics"].items() if v["unit"] == "count"}
        again = {k: v["value"] for k, v in second["metrics"].items() if v["unit"] == "count"}
        if counts != again:
            diff = sorted(k for k in counts if counts[k] != again.get(k))
            problems.append(f"{name}: traced counts differ between runs: {diff}")
        refused = first["metrics"]["rankdef.check_consistency.refused"]["value"]
        inconsistent = sum(f.count // f.inconsistent_every for f in families if f.inconsistent_every)
        if refused != 3 * inconsistent:  # both library routes and the CLI refuse each one
            problems.append(f"{name}: {refused} refusals per pass, {inconsistent} inconsistent instances")
        totals = details["trace_totals"]
        self_sum, call_wall = totals["self_sum_s"], totals["call_wall_s"]
        if not (1 - SELF_TOL) * call_wall <= self_sum <= call_wall:
            problems.append(f"{name}: self times sum to {self_sum} s, the traced calls took {call_wall} s")
        print(f"{name}: checked, {totals['spans']} spans in the last traced run, "
              f"self times {self_sum:.6f} s of {call_wall:.6f} s")

    problems += _bare_directory()
    for p in problems:
        print("FAIL", p)
    print("selfcheck", "failed" if problems else "passed")
    return 1 if problems else 0


def _units(label, metrics, want):
    got = {k: v["unit"] for k, v in metrics.items()}
    if got == want:
        return []
    missing = sorted(set(want) - set(got))
    extra = sorted(set(got) - set(want))
    wrong = sorted(k for k in set(want) & set(got) if want[k] != got[k])
    return [f"{label}: missing {missing}, unexpected {extra}, wrong unit {wrong}"]


def _bare_directory():
    """run.py must fail, printing no result, without the package sources."""
    bare = tempfile.mkdtemp(prefix="bare-", dir=run.OUT_DIR)
    try:
        shutil.copy(run.ROOT / "BENCHMARK.json", bare)
        shutil.copytree(run.ROOT / "perfbench", f"{bare}/perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "small_suite", "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180,
        )
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    if proc.returncode == 0 or proc.stdout.strip():
        return [f"bare directory: exit {proc.returncode}, stdout {proc.stdout.strip()[:200]!r}"]
    print(f"bare directory: exit {proc.returncode}: {proc.stderr.strip()}")
    return []


if __name__ == "__main__":
    sys.exit(main())
