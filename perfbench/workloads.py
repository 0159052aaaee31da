"""Workloads: seeded instance pools built with the package's own generators.

Every route runs on every instance of a pool, and each instance carries the
outcome every route must have (the ground truth the generator guarantees):

=============  ===================  =======================  ==================
instance kind  solve_qr / spectral  solve_rankdef (both)     pdtls solve (auto)
=============  ===================  =======================  ==================
full           solution             solution (rank r = n)    exit 0, method qr
consistent     RankDeficiencyError  solution                 exit 0, rankdef
inconsistent   RankDeficiencyError  NoSolutionError          exit 2
=============  ===================  =======================  ==================

so a refusal is a correct outcome and a speed-up that weakens a test shows up
as failures.
"""

from dataclasses import dataclass

import numpy as np

ROUTES = ("qr", "spectral", "rankdef_spectral", "rankdef_cod", "cli")

EXPECTED = {
    "full": {"qr": "ok", "spectral": "ok", "rankdef_spectral": "ok", "rankdef_cod": "ok", "cli": 0},
    "consistent": {
        "qr": "RankDeficiencyError",
        "spectral": "RankDeficiencyError",
        "rankdef_spectral": "ok",
        "rankdef_cod": "ok",
        "cli": 0,
    },
    "inconsistent": {
        "qr": "RankDeficiencyError",
        "spectral": "RankDeficiencyError",
        "rankdef_spectral": "NoSolutionError",
        "rankdef_cod": "NoSolutionError",
        "cli": 2,
    },
}

# Relative size of the perturbation of T that makes a rank-deficient
# instance inconsistent; f_norm / delta is about 40 at 2000x100 r=60.
INCONSISTENT_EPS = 1e-3
# Stream path for that perturbation; the generators use paths 0, 1 and 2.
PERTURB_PATH = 3
# Condition number of D in full-rank instances: its singular values run
# geometrically from 1 down to 1/COND.
COND = 10.0


@dataclass(frozen=True)
class Family:
    """``count`` instances of one shape.

    kind "full": ``gen_full_rank`` with cond(D) = COND, relative noise
    ``noise`` on D and T via ``inject_noise``.
    kind "rankdef": ``gen_consistent_rankdef``; every ``inconsistent_every``-th
    instance has T perturbed (T only) at relative ``INCONSISTENT_EPS``.
    """

    kind: str
    m: int
    n: int
    r: int
    count: int
    noise: float = 0.0
    inconsistent_every: int = 0


@dataclass(frozen=True)
class Workload:
    """A pool of instance families."""

    name: str
    families: tuple


@dataclass(frozen=True)
class Instance:
    kind: str  # "full", "consistent" or "inconsistent"
    rank: int  # rank of D
    seed: int
    problem: object  # pdtls.model.ProblemInstance
    x0: np.ndarray | None  # the generator's solution (noise-free full-rank instances)


# A third workload, tall full-rank 2000x50 data, was dropped: its 10 ms
# routes (spectral, rankdef_spectral) moved by up to 30% between runs of the
# same code on a shared 2-vCPU machine.
WORKLOADS = {
    # Rank-deficient data, one in four made inconsistent, plus one full-rank
    # instance of the same shape so that `pdtls solve --method auto` takes
    # both sides of its rank decision and the full-rank routes are timed.
    # The m-by-n kernels dominate: the full m-by-m Q of qr_decompose (in the
    # generator and the QR route) and of the COD.
    "rankdef": Workload(
        "rankdef",
        (
            Family("rankdef", 2000, 100, 60, 4, inconsistent_every=4),
            Family("full", 2000, 100, 100, 1),
        ),
    ),
    # Many tiny instances (the README's noisy 40x8 example and 20x6 r=3):
    # per-call Python and diagnostic overhead dominates, kernels do little.
    "small_suite": Workload(
        "small_suite",
        (Family("full", 40, 8, 8, 40, noise=1e-2), Family("rankdef", 20, 6, 3, 40)),
    ),
}


def instance_seeds(pkg, workload: Workload, seed: int) -> list[int]:
    """Per-instance seeds, derived from the run seed as ``pdtls bench`` does."""
    total = sum(f.count for f in workload.families)
    return [int(pkg.generate.derive_rng(seed, i).integers(0, 2**63 - 1)) for i in range(total)]


def _order(workload: Workload) -> list[tuple[Family, int]]:
    """(family, index within family), families interleaved so that any run
    of consecutive instances has the pool's mix."""
    slots = []
    for fam in workload.families:
        slots += [((i + 0.5) / fam.count, fam, i) for i in range(fam.count)]
    slots.sort(key=lambda s: s[0])
    return [(fam, i) for _, fam, i in slots]


def build_pool(pkg, workload: Workload, seeds: list[int]) -> list[Instance]:
    """Generate the workload's instances through the package's generators."""
    gen = pkg.generate
    pool = []
    for (fam, i), s in zip(_order(workload), seeds):
        if fam.kind == "full":
            spec = gen.GeneratorSpec(
                m=fam.m, n=fam.n, r=fam.r, seed=s,
                spectrum_a=np.geomspace(1.0, 1.0 / COND, fam.n),
            )
            p, x0 = gen.gen_full_rank(spec)
            if fam.noise:  # x0 no longer solves the noisy problem
                p, x0 = gen.inject_noise(p, fam.noise, s), None
            pool.append(Instance("full", fam.n, s, p, x0))
            continue
        p = gen.gen_consistent_rankdef(gen.GeneratorSpec(m=fam.m, n=fam.n, r=fam.r, seed=s))
        kind = "consistent"
        if fam.inconsistent_every and i % fam.inconsistent_every == fam.inconsistent_every - 1:
            noise = gen.derive_rng(s, PERTURB_PATH).standard_normal(p.t.shape)
            t = p.t + INCONSISTENT_EPS * np.linalg.norm(p.t) * noise / np.linalg.norm(noise)
            p = pkg.model.ProblemInstance(d=p.d, t=t)
            kind = "inconsistent"
        pool.append(Instance(kind, fam.r, s, p, None))
    return pool
