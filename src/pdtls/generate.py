"""Deterministic, seeded generation of test problems.

Consistent rank-deficient instances are built by aligning the leading
eigenvectors of B = T^T T with the row space of D through an arbitrary
rotation, which guarantees the solvability condition holds exactly.

Seed derivation rule: every generator call consumes a single stream
created as ``numpy.random.default_rng(SeedSequence((seed, *path)))`` where
``path`` is a fixed tuple of small non-negative integers; suites derive
per-instance seeds the same way (instance i of suite seed s uses
``(s, i)``).  The rule is deterministic across runs and platforms.
"""

from dataclasses import dataclass

import numpy as np

from . import linalg
from .model import ProblemInstance

__all__ = [
    "GeneratorSpec",
    "derive_rng",
    "random_rotation",
    "gen_full_rank",
    "gen_consistent_rankdef",
    "inject_noise",
]


def derive_rng(seed: int, *path: int) -> np.random.Generator:
    """Deterministic child stream for (seed, *path); see module docstring."""
    return np.random.default_rng(np.random.SeedSequence((int(seed),) + tuple(int(x) for x in path)))


def default_spectrum(r: int) -> np.ndarray:
    """Default singular spectrum: geometric from 1.0 down to 0.1."""
    return np.geomspace(1.0, 0.1, r) if r > 1 else np.ones(max(r, 0))


@dataclass(frozen=True)
class GeneratorSpec:
    """Shape, seed, noise level and spectra for one generated instance.

    spectrum_a drives the data matrix (see the two generators for the exact
    convention) and spectrum_b the target matrix; both must be positive and
    non-increasing.  Omitted spectra default to ``default_spectrum(r)``.
    """

    m: int
    n: int
    r: int
    seed: int
    noise_level: float = 0.0
    spectrum_a: np.ndarray | None = None
    spectrum_b: np.ndarray | None = None

    def __post_init__(self):
        if not (self.m >= self.n >= self.r >= 1):
            raise ValueError(f"need m >= n >= r >= 1, got m={self.m} n={self.n} r={self.r}")
        if self.seed < 0:
            raise ValueError("seed must be a non-negative integer")
        if self.noise_level < 0.0:
            raise ValueError("noise_level must be >= 0")
        for name in ("spectrum_a", "spectrum_b"):
            spec = getattr(self, name)
            spec = default_spectrum(self.r) if spec is None else np.asarray(spec, dtype=np.float64)
            if spec.shape != (self.r,):
                raise ValueError(f"{name} must have length r={self.r}")
            if np.any(spec <= 0.0) or np.any(np.diff(spec) > 0.0):
                raise ValueError(f"{name} must be positive and non-increasing")
            object.__setattr__(self, name, spec)


def random_rotation(k: int, seed) -> np.ndarray:
    """Random k-by-k rotation (orthonormal, det +1).

    ``seed`` may be an integer or a ``numpy.random.Generator``.  Built by QR
    of a standard normal draw with the nonnegative-diagonal convention,
    flipping the last column if needed to land in the det +1 component.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    rng = seed if isinstance(seed, np.random.Generator) else derive_rng(seed)
    q = linalg.qr_decompose(rng.standard_normal((k, k))).q
    if np.linalg.det(q) < 0.0:
        q[:, -1] = -q[:, -1]
    return q


def _orthonormal_columns(m: int, n: int, rng) -> np.ndarray:
    """m-by-n matrix with orthonormal columns, Haar-ish via QR."""
    return linalg.qr_decompose(rng.standard_normal((m, n))).q[:, :n]


def _random_spd(n: int, rng) -> np.ndarray:
    q = random_rotation(n, rng)
    w = rng.uniform(0.5, 2.0, n)
    return linalg.symmetrize((q * w) @ q.T)


def gen_full_rank(spec: GeneratorSpec) -> tuple[ProblemInstance, np.ndarray]:
    """Full-rank instance with a known SPD solution x0.

    d has singular values ``spectrum_a``; t = d @ x0 plus relative noise of
    size noise_level on t.  With noise_level = 0 the instance is exactly
    consistent and both direct solvers recover x0.
    """
    if spec.r != spec.n:
        raise ValueError("gen_full_rank requires r == n")
    rng = derive_rng(spec.seed, 0)
    left = _orthonormal_columns(spec.m, spec.n, rng)
    right = random_rotation(spec.n, rng)
    d = (left * spec.spectrum_a) @ right.T
    x0 = _random_spd(spec.n, rng)
    t = d @ x0
    if spec.noise_level > 0.0:
        noise = rng.standard_normal(t.shape)
        t = t + spec.noise_level * np.linalg.norm(t) * noise / np.linalg.norm(noise)
    return ProblemInstance(d=d, t=t), x0


def gen_consistent_rankdef(spec: GeneratorSpec) -> ProblemInstance:
    """Exactly consistent rank-deficient instance, rank(D) = rank(T) = r < n.

    D = Ud [[diag(sqrt(spectrum_a)), 0], [0, 0]] U^T, and T shares the
    leading right subspace up to an r-by-r rotation:
    T = Ut [[diag(sqrt(spectrum_b)), 0], [0, 0]] (U diag(Q, P))^T.  The
    trailing rotation P multiplies a zero block and is not drawn.
    """
    if spec.r >= spec.n:
        raise ValueError("gen_consistent_rankdef requires r < n")
    rng = derive_rng(spec.seed, 1)
    u = random_rotation(spec.n, rng)
    ud = _orthonormal_columns(spec.m, spec.r, rng)
    d = (ud * np.sqrt(spec.spectrum_a)) @ u[:, : spec.r].T
    q = random_rotation(spec.r, rng)
    v_r = u[:, : spec.r] @ q
    ut = _orthonormal_columns(spec.m, spec.r, rng)
    t = (ut * np.sqrt(spec.spectrum_b)) @ v_r.T
    p = ProblemInstance(d=d, t=t)
    if spec.noise_level > 0.0:
        p = inject_noise(p, spec.noise_level, int(rng.integers(0, 2**63 - 1)))
    return p


def inject_noise(p: ProblemInstance, eps: float, seed: int) -> ProblemInstance:
    """Add relative Frobenius-scaled noise to both matrices.

    d' = d + eps * ||d||_F * N_d / ||N_d||_F and likewise for t;
    eps = 0 returns the instance unchanged.
    """
    if eps < 0.0:
        raise ValueError("eps must be >= 0")
    if eps == 0.0:
        return p
    rng = derive_rng(seed, 2)
    n_d = rng.standard_normal(p.d.shape)
    n_t = rng.standard_normal(p.t.shape)
    d = p.d + eps * np.linalg.norm(p.d) * n_d / np.linalg.norm(n_d)
    t = p.t + eps * np.linalg.norm(p.t) * n_t / np.linalg.norm(n_t)
    return ProblemInstance(d=d, t=t)
