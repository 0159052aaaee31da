"""Peak traced memory of every solver route and generator on tall data.

No route may ask for an m-row orthogonal factor: on m-by-n data each one
should stay within a small multiple of the m*n*8 bytes of one input matrix.
"""

import tracemalloc

import pytest

from pdtls import fullrank, generate, rankdef

M, N, R = 3000, 6, 3
BOUND = 16 * M * N * 8


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
