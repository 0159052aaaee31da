"""pdtls benchmark: timed, checked calls into the public solver entry points.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload rankdef --seed 1 --seconds 40 --trace 0

One process, one closed-loop caller, BLAS and scipy's MatrixMarket reader
and writer pinned to one thread.  The run sets up its instance pool from
``--seed`` (several times, reporting the median set-up time), makes one
untimed warm-up pass, then repeats passes until ``--seconds`` are used.
A pass calls every route on every instance:
``fullrank.solve_qr``, ``fullrank.solve_spectral``,
``rankdef.solve_rankdef`` along both routes, and an in-process
``pdtls solve`` (``cli.main``) on the instance's MatrixMarket files.  Every
outcome is checked after the pass, outside the timed region.

With ``--trace 0`` the last line of standard output holds the end-to-end
metrics; with ``--trace 1`` the run alternates untraced and traced passes
and reports per-layer metrics from the spans (see ``tracer.py``).  The line
before it records the run environment and per-route timing detail.  Spans
are written to ``.perfbench/spans-<workload>-seed<seed>.json``.
"""

import os
import sys

# Memory for arrays comes from the heap and stays there.  By default glibc
# moves its mmap threshold as large blocks are freed, so whether a 32 MB
# array came from the heap or from a fresh mmap varied from run to run, and
# with it peak RSS and time.  A fresh mmap takes a page fault per 4 KiB page
# (about 100 000 per pass on rankdef), at a cost that varies with the host.
# glibc's largest mmap threshold (32 MiB) and no trimming keep the timed
# passes free of page faults once the warm-up pass has grown the heap; numpy
# is told not to ask for huge pages, whose supply also varies with the host.
# glibc and numpy read these at start-up only.
ALLOC_ENV = {
    "MALLOC_MMAP_THRESHOLD_": str(32 << 20),
    "MALLOC_TRIM_THRESHOLD_": str(4 << 30),
    "NUMPY_MADVISE_HUGEPAGE": "0",
}
if __name__ == "__main__" and any(os.environ.get(k) != v for k, v in ALLOC_ENV.items()):
    os.environ.update(ALLOC_ENV)
    os.execv(sys.executable, [sys.executable, *sys.argv])

# Pin BLAS before numpy loads it: one closed-loop caller on one thread.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import importlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import tracer as tracing  # noqa: E402
import workloads as wl  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench"

# Every timed figure is CPU time of the (single-threaded) process: on a
# shared virtual machine it leaves out the time the hypervisor gives to
# other guests, which wall time counts and which varies from minute to
# minute.  Pass wall times go to the details line.  Spans use wall time.
cpu_clock = time.process_time

# Output checks, applied to every call on the traced and untraced paths.
KKT_TOL = 1e-9  # ||X A X - B||_F / max(1, ||B||_F), the acceptance suite's bound
AGREE_TOL = 1e-7  # ||X_spectral - X_cod||_F / ||X_spectral||_F, rank-deficient routes
CLI_TOL = 1e-12  # ||X_cli - X_library||_F / ||X_library||_F
SYM_TOL = 1e-12  # ||X - X^T||_F / ||X||_F; X must also have a Cholesky factor
# ||X - X_exact||_F / ||X_exact||_F on full-rank instances: eps * cond(A)^2 =
# eps * cond(D)^4, since both full-rank routes decompose a matrix (R B R^T,
# or S U^T B U S) whose condition number is about cond(A)^2.
FWD_TOL = float(np.finfo(float).eps * wl.COND**4)


def reference_root(a, b):
    """The SPD root of X A X = B in closed form, computed apart from pdtls:
    X = A^{-1/2} (A^{1/2} B A^{1/2})^{1/2} A^{-1/2}.  The exact solution of a
    noisy instance, whose generator solution X0 solves the noise-free one."""
    w, u = np.linalg.eigh(a)
    half, inv_half = (u * np.sqrt(w)) @ u.T, (u / np.sqrt(w)) @ u.T
    w, u = np.linalg.eigh(half @ b @ half)
    x = inv_half @ ((u * np.sqrt(w)) @ u.T) @ inv_half
    return (x + x.T) / 2


# Set-up repeats at least this often and for at least this long; setup_s
# is the median.  A fast set-up thus gets enough repeats to be steady.
SETUP_REPEATS = 3
SETUP_SECONDS = 3.0
ROUTE_METRIC = {
    "qr": "qr_s",
    "spectral": "spectral_s",
    "rankdef_spectral": "rankdef_spectral_s",
    "rankdef_cod": "rankdef_cod_s",
    "cli": "cli_solve_s",
}


def import_package():
    """Import pdtls from the checkout's ``src`` directory, nowhere else."""
    src = ROOT / "src"
    if not (src / "pdtls" / "__init__.py").is_file():
        raise SystemExit(f"error: no pdtls sources under {src}")
    sys.path.insert(0, str(src))
    pkg = importlib.import_module("pdtls")
    for mod in ("cli", "fullrank", "generate", "io", "linalg", "model", "rankdef"):
        importlib.import_module(f"pdtls.{mod}")
    # pdtls.io reads and writes through scipy.io, whose MatrixMarket code
    # starts one thread per core by default; threadpoolctl sets this value.
    fmm = importlib.import_module("scipy.io._fast_matrix_market")
    fmm.PARALLELISM = 1
    return pkg


@dataclass(frozen=True)
class Files:
    """An instance's CLI inputs (written at set-up) and outputs.

    All are created empty before anything is timed and only written over
    afterwards: creating a file can cost more than writing it, and varies.
    """

    d: Path
    t: Path
    x: Path
    report: Path

    @classmethod
    def create(cls, workdir, k):
        f = cls(*(workdir / f"{k}_{part}" for part in ("D.mtx", "T.mtx", "X.mtx", "report.json")))
        for path in (f.d, f.t, f.x, f.report):
            path.touch()
        return f


def setup(pkg, workload, seeds, files):
    """Generate the pool and write each instance's D and T for the CLI."""
    pool = wl.build_pool(pkg, workload, seeds)
    for inst, f in zip(pool, files):
        pkg.io.write_matrix(f.d, inst.problem.d)
        pkg.io.write_matrix(f.t, inst.problem.t)
    return pool


def call(pkg, route, inst, f):
    """One call into a public entry point, looked up by module attribute."""
    if route == "qr":
        return pkg.fullrank.solve_qr(inst.problem)
    if route == "spectral":
        return pkg.fullrank.solve_spectral(inst.problem)
    if route == "rankdef_spectral":
        return pkg.rankdef.solve_rankdef(inst.problem, route="spectral")
    if route == "rankdef_cod":
        return pkg.rankdef.solve_rankdef(inst.problem, route="cod")
    return pkg.cli.main(
        ["solve", "--data", str(f.d), "--target", str(f.t), "--out", str(f.x), "--report", str(f.report)]
    )


@dataclass
class Pass:
    """One pass: outcomes[(route, k)] is ("ok", solution) for an accepted
    library call, (exception name, exception) for a raised one, and (exit
    code, None) for the CLI; call_cpu and call_wall hold each call's CPU and
    wall time; cpu_s and wall_s are the whole pass's."""

    outcomes: dict
    call_cpu: dict
    call_wall: dict
    cpu_s: float
    wall_s: float


def run_pass(pkg, pool, files) -> Pass:
    """Every route over the pool, one call at a time."""
    for f in files:  # empty the last pass's outputs, so none is read twice
        f.x.write_bytes(b"")
        f.report.write_bytes(b"")
    outcomes, call_cpu, call_wall = {}, {}, {}
    start, start_cpu = time.perf_counter(), cpu_clock()
    with contextlib.redirect_stderr(io.StringIO()):  # the CLI reports refusals on stderr
        for route in wl.ROUTES:
            for k in range(len(pool)):
                t0, c0 = time.perf_counter(), cpu_clock()
                try:
                    value = call(pkg, route, pool[k], files[k])
                    outcome = (value, None) if route == "cli" else ("ok", value)
                except Exception as exc:  # a refusal or failure is data, checked below
                    outcome = (type(exc).__name__, exc)
                call_cpu[(route, k)] = cpu_clock() - c0
                call_wall[(route, k)] = time.perf_counter() - t0
                outcomes[(route, k)] = outcome
    return Pass(outcomes, call_cpu, call_wall, cpu_clock() - start_cpu, time.perf_counter() - start)


def _rel(a, b) -> float:
    return float(np.linalg.norm(a - b) / np.linalg.norm(b))


def _digits(err: float) -> float:
    return -math.log10(max(err, np.finfo(float).tiny))


class Checker:
    """Checks every outcome of a pass against the instance's ground truth and
    keeps the accuracy figures (in digits) and the failures."""

    def __init__(self, pkg, pool, files):
        self.pkg, self.pool, self.files = pkg, pool, files
        self.grams = [(p.d.T @ p.d, p.t.T @ p.t) for p in (i.problem for i in pool)]
        # The exact solution of each full-rank instance: the generator's X0,
        # or the closed form on the Gram pair when noise was added.
        self.exact = [
            None if i.kind != "full" else i.x0 if i.x0 is not None else reference_root(*g)
            for i, g in zip(pool, self.grams)
        ]
        self.attempted = 0
        self.failures = []
        self.fwd = {"qr": [], "spectral": []}
        self.kkt, self.agree = [], []

    def accuracy(self):
        """Digits per accepted solve, by end-to-end metric name."""
        return {
            "qr_fwd_digits": self.fwd["qr"],
            "spectral_fwd_digits": self.fwd["spectral"],
            "kkt_digits_min": self.kkt,
            "rankdef_agree_digits": self.agree,
        }

    def medians(self):
        return {name: statistics.median(v) if v else None for name, v in self.accuracy().items()}

    def check_pass(self, outcomes):
        for (route, k), outcome in outcomes.items():
            self.attempted += 1
            try:
                why = self._check(route, k, outcome, outcomes)
            except Exception as exc:  # a missing or malformed output is a failed operation
                why = f"check raised {type(exc).__name__}: {exc}"
            if why:
                self.failures.append(f"{route} on instance {k} ({self.pool[k].kind}): {why}")

    def _check(self, route, k, outcome, outcomes):
        inst = self.pool[k]
        expected = wl.EXPECTED[inst.kind][route]
        status, value = outcome
        if status != expected:
            detail = "".join(traceback.format_exception(value)) if isinstance(value, Exception) else ""
            return f"expected {expected!r}, got {status!r} {detail}".strip()
        if route == "cli":
            library = outcomes.get((self._cli_route(inst), k))
            return self._check_cli(inst, self.files[k], status, library)
        if status != "ok":
            return None
        # Every accuracy figure is recorded before any is judged, so a failed
        # check still leaves the solve's digits in the metrics.
        x = value.x
        a, b = self.grams[k]
        kkt = float(np.linalg.norm(x @ a @ x - b) / max(1.0, np.linalg.norm(b)))
        self.kkt.append(_digits(kkt))
        err = diff = 0.0
        if self.exact[k] is not None:
            err = _rel(x, self.exact[k])
            if route in self.fwd:
                self.fwd[route].append(_digits(err))
        if route == "rankdef_cod" and outcomes[("rankdef_spectral", k)][0] == "ok":
            diff = _rel(x, outcomes[("rankdef_spectral", k)][1].x)
            self.agree.append(_digits(diff))
        if np.linalg.norm(x - x.T) > SYM_TOL * np.linalg.norm(x):
            return "X is not symmetric"
        try:
            np.linalg.cholesky(x)
        except np.linalg.LinAlgError:
            return "X is not positive definite"
        if kkt > KKT_TOL:
            return f"KKT residual {kkt:.3e} > {KKT_TOL:g}"
        if err > FWD_TOL:
            return f"forward error {err:.3e} > {FWD_TOL:.3e}"
        if diff > AGREE_TOL:
            return f"routes disagree by {diff:.3e} > {AGREE_TOL:g}"
        return None

    @staticmethod
    def _cli_route(inst):
        return "qr" if inst.kind == "full" else "rankdef_spectral"

    def _check_cli(self, inst, f, code, library):
        report = json.loads(f.report.read_text())
        method = "qr" if inst.kind == "full" else "rankdef-spectral"
        if report["method"] != method or report["rank_r"] != inst.rank:
            return f"report says method {report['method']} rank {report['rank_r']}"
        if report["consistent"] != (inst.kind != "inconsistent"):
            return f"report says consistent={report['consistent']}"
        if code != 0:
            return None
        if library is None or library[0] != "ok":
            return "no library solution to compare with"
        diff = _rel(self.pkg.io.read_matrix(f.x), library[1].x)
        if diff > CLI_TOL:
            return f"CLI X differs from library X by {diff:.3e} > {CLI_TOL:g}"
        return None


def tail(samples):
    """Highest whole percentile with at least ten samples above it, and its value."""
    n = len(samples)
    if n <= 10:
        return None, None
    pct = math.floor(100 * (n - 10) / n)
    return pct, float(np.percentile(samples, pct))


def environment(seed, seeds):
    import scipy

    def blas(show_config):
        cfg = show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{cfg['name']} {cfg['version']}"

    return {
        "python": platform.python_version(),
        "machine": platform.machine(),
        "numpy": np.__version__,
        "numpy_blas": blas(np.show_config),
        "scipy": scipy.__version__,
        "scipy_blas": blas(scipy.show_config),
        "blas_threads": {v: os.environ.get(v) for v in THREAD_VARS},
        "alloc_env": {v: os.environ.get(v) for v in ALLOC_ENV},
        "matrix_market_threads": importlib.import_module("scipy.io._fast_matrix_market").PARALLELISM,
        "clock": {"per_call_and_setup": "process CPU time", "passes": "wall time"},
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "seed": seed,
        "instance_seeds": seeds,
    }


def _metric(value, unit):
    return {"value": value, "unit": unit}


def _loop(seconds, step):
    """Call ``step`` until ``seconds`` are used; the next step is not started
    when the last one would no longer fit.  Returns the number of steps."""
    start = time.perf_counter()
    steps = 0
    while True:
        t0 = time.perf_counter()
        step(steps)
        steps += 1
        now = time.perf_counter()
        if now - start + (now - t0) > seconds:
            return steps


def run(pkg, workload, seed, seconds, trace, out_dir=OUT_DIR):
    """One benchmark run.  Returns (result, details); result is the object the
    benchmark prints last."""
    out_dir.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="run-", dir=out_dir))
    try:
        seeds = wl.instance_seeds(pkg, workload, seed)
        tracer = tracing.Tracer(pkg) if trace else None
        files = [Files.create(workdir, k) for k in range(len(seeds))]
        setup_times = []
        if tracer:
            with tracer.installed("setup"):
                pool = setup(pkg, workload, seeds, files)
        else:
            while len(setup_times) < SETUP_REPEATS or sum(setup_times) < SETUP_SECONDS:
                t0 = cpu_clock()
                pool = setup(pkg, workload, seeds, files)
                setup_times.append(cpu_clock() - t0)
        checker = Checker(pkg, pool, files)

        def checked_pass(phase=None):
            if phase is None:
                result = run_pass(pkg, pool, files)
            else:
                with tracer.installed(phase):
                    result = run_pass(pkg, pool, files)
            checker.check_pass(result.outcomes)
            return result

        checked_pass()  # warm-up, untimed
        samples = {}  # (route, k) -> CPU time of each timed call
        cpus, walls, traced = [], [], []

        def step(i):
            p = checked_pass()
            cpus.append(p.cpu_s)
            walls.append(p.wall_s)
            for key, t in p.call_cpu.items():
                samples.setdefault(key, []).append(t)
            if tracer:
                traced.append(checked_pass(phase=i))

        faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        passes = _loop(seconds, step)
        faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - faults
        details = {
            "workload": workload.name,
            "seconds": seconds,
            "trace": int(bool(trace)),
            "env": environment(seed, seeds),
            "instances": [
                {"kind": i.kind, "m": i.problem.m, "n": i.problem.n, "rank": i.rank, "seed": i.seed}
                for i in pool
            ],
            "passes": passes,
            "timed_page_faults": faults,
            "pass_wall_s": walls,
            "pass_cpu_s": cpus,
            "tolerances": {
                "kkt": KKT_TOL, "fwd": FWD_TOL, "agree": AGREE_TOL, "cli": CLI_TOL, "sym": SYM_TOL,
            },
            "median_digits": checker.medians(),
            "failures": checker.failures[:20],
        }
        if tracer:
            metrics, details["trace_totals"] = layer_metrics(tracer, passes, cpus, traced)
            spans_path = out_dir / f"spans-{workload.name}-seed{seed}.json"
            tracer.write(spans_path, {k: details[k] for k in ("workload", "env", "passes")})
            details["spans_file"] = str(spans_path)
        else:
            metrics = end_to_end_metrics(checker, setup_times, samples, cpus, len(pool))
            details["setup_runs_s"] = setup_times
            details["routes"] = {}
            for route in wl.ROUTES:
                calls = [t for k in range(len(pool)) for t in samples[(route, k)]]
                pct, value = tail(calls)
                details["routes"][ROUTE_METRIC[route]] = {
                    "median_s": statistics.median(calls),
                    "tail_pct": pct,
                    "tail_s": value,
                    "samples": len(calls),
                }
        failed = len(checker.failures)
        result = {
            "correct": failed == 0,
            "attempted": checker.attempted,
            "failed": failed,
            "metrics": metrics,
        }
        return result, details
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def end_to_end_metrics(checker, setup_times, samples, cpus, pool_size):
    m = {"setup_s": _metric(statistics.median(setup_times), "s")}
    # Each instance's median call time, averaged over the pool: a pool that
    # mixes accepted and refused calls then weighs them as the pool does,
    # where a median over all calls would sit on the edge between the kinds.
    for route in wl.ROUTES:
        per_instance = [statistics.median(samples[(route, k)]) for k in range(pool_size)]
        m[ROUTE_METRIC[route]] = _metric(statistics.fmean(per_instance), "s")
    timed_calls = len(wl.ROUTES) * pool_size * len(cpus)
    m["solves_per_s"] = _metric(timed_calls / sum(cpus), "1/s")
    # The worst solve of the run (the medians are in the details line).  No
    # accepted solve at all (every call failed) reads as 0 digits.
    for name, values in checker.accuracy().items():
        m[name] = _metric(min(values, default=0.0), "digits")
    m["ok_rate"] = _metric(1.0 - len(checker.failures) / checker.attempted, "ratio")
    m["peak_rss_mb"] = _metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB")
    return m


def _exact(count: float):
    """A count per pass is whole when every pass repeats the same calls."""
    return int(count) if count == int(count) else count


def layer_metrics(tracer, passes, cpus, traced):
    """Per-layer metrics per set-up plus one pass: the set-up's spans plus the
    traced passes' spans divided by the number of traced passes.

    Also returns totals over the traced passes: the summed self times of
    their spans, and the summed wall time ``run_pass`` took around each call,
    measured apart from the tracer.  The two differ by the call dispatch and
    the outermost wrapper's own cost only."""
    setup, _ = tracer.summary({"setup"})
    per_pass, root_s = tracer.summary(set(range(passes)))
    m = {}
    for name in tracing.SPAN_NAMES:
        s, p = setup[name], per_pass[name]
        m[f"{name}.calls"] = _metric(_exact(s["calls"] + p["calls"] / passes), "count")
        m[f"{name}.self_s"] = _metric(s["self_s"] + p["self_s"] / passes, "s")
        note = tracing.SPAN_NOTES.get(name)
        if note == "out_bytes":
            m[f"{name}.out_bytes"] = _metric(_exact(s["note"] + p["note"] / passes), "bytes")
        elif note == "refused":
            m[f"{name}.refused"] = _metric(_exact(p["note"] / passes), "count")
    m["model.make_solution.share"] = _metric(per_pass["model.make_solution"]["incl_s"] / root_s, "ratio")
    traced_cpu = statistics.median(p.cpu_s for p in traced)
    m["trace.overhead"] = _metric(traced_cpu / statistics.median(cpus), "ratio")
    totals = {
        "self_sum_s": sum(row["self_s"] for row in per_pass.values()),
        "call_wall_s": sum(sum(p.call_wall.values()) for p in traced),
        "traced_passes": passes,
        "spans": len(tracer.spans),
    }
    return m, totals


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(wl.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    pkg = import_package()
    result, details = run(pkg, wl.WORKLOADS[args.workload], args.seed, args.seconds, args.trace)
    print(json.dumps(details))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
