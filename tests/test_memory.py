"""Peak traced memory of every solver route and generator on tall data.

No route may ask for an m-row orthogonal factor: on m-by-n data each one
should stay within a small multiple of the m*n*8 bytes of one input matrix.
A solution's diagnostics take two m-by-n arrays, (D Y)^T and Y^{-1} T^T,
and no other m-row temporary.
"""

import tracemalloc

import pytest

from pdtls import fullrank, generate, linalg, model, rankdef

M, N, R = 3000, 6, 3
BOUND = 16 * M * N * 8
DIAGNOSTICS_BOUND = 2.5 * M * N * 8


def peak_bytes(fn, *args, **kwargs) -> int:
    tracemalloc.start()
    try:
        fn(*args, **kwargs)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


FULL_SPEC = generate.GeneratorSpec(m=M, n=N, r=N, seed=3)
RANKDEF_SPEC = generate.GeneratorSpec(m=M, n=N, r=R, seed=3)


@pytest.mark.parametrize(
    "fn, spec",
    [(generate.gen_full_rank, FULL_SPEC), (generate.gen_consistent_rankdef, RANKDEF_SPEC)],
    ids=["gen_full_rank", "gen_consistent_rankdef"],
)
def test_generator_peak_memory(fn, spec):
    assert peak_bytes(fn, spec) <= BOUND


@pytest.mark.parametrize("solve", [fullrank.solve_qr, fullrank.solve_spectral])
def test_fullrank_peak_memory(solve):
    p, _ = generate.gen_full_rank(FULL_SPEC)
    assert peak_bytes(solve, p) <= BOUND


@pytest.mark.parametrize("route", ["spectral", "cod"])
def test_rankdef_peak_memory(route):
    p = generate.gen_consistent_rankdef(RANKDEF_SPEC)
    assert peak_bytes(rankdef.solve_rankdef, p, route=route) <= BOUND


@pytest.mark.parametrize("route", ["qr", "rankdef_spectral", "rankdef_cod"])
def test_diagnostics_peak_memory(route):
    if route == "qr":
        p, _ = generate.gen_full_rank(FULL_SPEC)
        f, b, x = linalg.qr_svd_decompose(p.d).r, linalg.gram(p.t), fullrank.solve_qr(p).x
    else:
        p = generate.gen_consistent_rankdef(RANKDEF_SPEC)
        part = route.removeprefix("rankdef_")
        bp = getattr(rankdef, f"partition_{part}")(p)
        f, b, x = bp.factor, bp.b, rankdef.solve_rankdef(p, route=part).x
    assert peak_bytes(model.make_solution, p, f, b, x, route) <= DIAGNOSTICS_BOUND
