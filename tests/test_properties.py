"""Invariants of the solution under transformations of the data.

With A = D^T D and B = T^T T the solution of X A X = B transforms as the
data do.  For full-rank D it is unique, so:

* scaling D by 2^i and T by 2^j gives 2^(j-i) X (exact in binary);
* a left orthogonal factor, D -> Q D and T -> Q T, leaves A, B and X
  unchanged;
* the right congruence D -> D P, T -> T P^{-T} gives A -> P^T A P,
  B -> P^{-1} B P^{-T} and X -> P^{-1} X P^{-T}.

Below full rank X depends on the free completion, which the solver fixes
in D's own basis and in the data's units (sqrt(||T||_F / ||D||_F) I).  So
the left orthogonal factor must leave X as it is, and scaling D by 2^i and
T by 2^j must leave D's rank and the consistency verdict, with its margin
f_norm / delta, as they are and scale X by 2^(j-i).  The examples are
drawn deterministically, few enough to keep the suite quick.
"""

import math
import sys

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import pdtls
from pdtls import generate, model, rankdef

PROPERTY_SETTINGS = settings(derandomize=True, max_examples=15, deadline=None, database=None)

# Relative agreement of two solves of transformed data: cond(D) <= 10 and
# cond(P) <= 4 here, so rounding stays far below it.
RTOL = 1e-10

seeds = st.integers(0, 2**16)
shapes = st.integers(2, 6).flatmap(lambda n: st.tuples(st.integers(n, 3 * n), st.just(n)))


def full_rank_problem(m, n, seed):
    # Noisy, so that no X fits exactly and E(X) > 0.
    spec = generate.GeneratorSpec(m=m, n=n, r=n, seed=seed, noise_level=1e-2)
    return generate.gen_full_rank(spec)[0]


def close(x, ref):
    return np.linalg.norm(x - ref) <= RTOL * np.linalg.norm(ref)


# Exponents reach +-600, so that B = T^T T and A = D^T D would over- or
# underflow in the caller's units, and j - i stays within +-400, so that X
# does not.  The scaled X is compared after scaling it back by 2^(i-j),
# which is exact.
exponents = st.integers(-600, 600)


def exponent_near(i):
    return st.integers(max(-600, i - 400), min(600, i + 400))


@PROPERTY_SETTINGS
@given(shape=shapes, seed=seeds, i=exponents, data=st.data())
def test_power_of_two_scaling(shape, seed, i, data):
    j = data.draw(exponent_near(i), label="j")
    p = full_rank_problem(*shape, seed)
    scaled = model.ProblemInstance(d=2.0**i * p.d, t=2.0**j * p.t)
    assert close(np.ldexp(pdtls.solve(scaled).x, i - j), pdtls.solve(p).x)


@PROPERTY_SETTINGS
@given(shape=shapes, seed=seeds)
def test_left_orthogonal_factor(shape, seed):
    p = full_rank_problem(*shape, seed)
    q = generate.random_rotation(p.m, seed + 1)
    rotated = model.ProblemInstance(d=q @ p.d, t=q @ p.t)
    assert close(pdtls.solve(rotated).x, pdtls.solve(p).x)


@PROPERTY_SETTINGS
@given(shape=shapes, seed=seeds)
def test_right_congruence(shape, seed):
    p = full_rank_problem(*shape, seed)
    rng = np.random.default_rng(seed)
    # cond(P) <= 4: a rotation times a diagonal in [0.5, 2].
    pm = generate.random_rotation(p.n, rng) * rng.uniform(0.5, 2.0, p.n)
    p_inv = np.linalg.inv(pm)
    moved = model.ProblemInstance(d=p.d @ pm, t=p.t @ p_inv.T)
    assert close(pdtls.solve(moved).x, p_inv @ pdtls.solve(p).x @ p_inv.T)


@PROPERTY_SETTINGS
@given(shape=shapes, seed=seeds, data=st.data())
def test_left_orthogonal_factor_below_full_rank(shape, seed, data):
    m, n = shape
    r = data.draw(st.integers(1, n - 1), label="r")
    p = generate.gen_consistent_rankdef(generate.GeneratorSpec(m=m, n=n, r=r, seed=seed))
    q = generate.random_rotation(m, seed + 1)
    rotated = model.ProblemInstance(d=q @ p.d, t=q @ p.t)
    sol, ref = pdtls.solve(rotated), pdtls.solve(p)
    assert sol.rank == ref.rank == r
    assert close(sol.x, ref.x)


# The report's f_norm and delta are in the caller's units, where either
# can pass the float range; the margin is compared where both are normal
# floats, and the verdict everywhere.
@PROPERTY_SETTINGS
@given(shape=shapes, seed=seeds, data=st.data(), i=exponents,
       eps=st.sampled_from([0.0, 1e-6, 1e-3]))
def test_power_of_two_scaling_below_full_rank(shape, seed, data, i, eps):
    m, n = shape
    r = data.draw(st.integers(1, n - 1), label="r")
    j = data.draw(exponent_near(i), label="j")
    p = generate.gen_consistent_rankdef(generate.GeneratorSpec(m=m, n=n, r=r, seed=seed))
    noise = np.random.default_rng(seed).standard_normal(p.t.shape)
    p = model.ProblemInstance(d=p.d, t=p.t + eps * np.linalg.norm(p.t) * noise / np.linalg.norm(noise))
    scaled = model.ProblemInstance(d=2.0**i * p.d, t=2.0**j * p.t)
    rep, ref = (rankdef.check_consistency(rankdef.partition_spectral(q)) for q in (scaled, p))
    assert (rep.rank, rep.consistent) == (ref.rank, ref.consistent)
    if all(sys.float_info.min <= v < math.inf for v in (rep.f_norm, rep.delta)):
        margin, ref_margin = rep.f_norm / rep.delta, ref.f_norm / ref.delta
        assert abs(margin - ref_margin) <= 1e-6 * max(1.0, ref_margin)
    if ref.consistent:
        assert close(np.ldexp(pdtls.solve(scaled).x, i - j), pdtls.solve(p).x)
