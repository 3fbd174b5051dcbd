import random
import sys
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from linwht import (
    AlgorithmSeq,
    BitMatrix,
    DimensionError,
    SizeLimitError,
    evaluate,
    hadamard,
    iterative_ct,
    check_membership,
    pease,
    reversed_inverted,
    sample_member,
    transform,
)
from linwht import oracle
from linwht.gf2 import identity, parity, rotation_matrix
from linwht.groups import random_invertible
from linwht.oracle import (
    _PANEL_BYTES,
    _plan,
    _run,
    _working_dtype,
    dependency_sets,
    evaluate_partial,
    perm_indices,
)

from helpers import (
    WHT3,
    SubtractFailsInWorkers,
    forced_singular_sequence,
    kron_hadamard,
    naive_apply,
    naive_evaluate,
    naive_transform,
    perm_matrix,
    random_sequence,
    reshape_fwht,
    twisted_member,
)


def test_hadamard_matches_hand_table():
    assert (hadamard(3) == WHT3).all()


def test_hadamard_sign_rule():
    """Every entry is (-1)^popcount(i & j), whatever way the matrix is built."""
    for n in range(1, 11):
        idx = np.arange(1 << n)
        sign = np.array([(-1) ** parity(v) for v in range(1 << n)], dtype=np.int32)
        h = hadamard(n)
        assert h.dtype == np.int32
        assert (h == sign[np.bitwise_and.outer(idx, idx)]).all(), n


def test_hadamard_first_row_and_column_ones():
    h = hadamard(5)
    assert (h[0] == 1).all() and (h[:, 0] == 1).all()


def test_hadamard_orthogonality():
    h = hadamard(4)
    assert (h @ h == 16 * np.eye(16, dtype=np.int32)).all()


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_hadamard_equals_kron_product(n):
    assert (hadamard(n) == kron_hadamard(n)).all()


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 12), st.integers(1, 4), st.integers(0, 2**30))
def test_perm_indices_matches_apply(n, count, seed):
    rng = random.Random(seed)
    qs = [random_invertible(n, rng) for _ in range(count)]
    idx = perm_indices([q.words for q in qs], n)
    assert idx.shape == (count, 1 << n) and idx.dtype == np.intp
    for q, row in zip(qs, idx):
        assert row.tolist() == [naive_apply(q, i) for i in range(1 << n)]


@settings(max_examples=30)
@given(st.integers(1, 4), st.integers(0, 2**30), st.integers(0, 2**30))
def test_linear_perm_composition(n, s1, s2):
    q = random_invertible(n, random.Random(s1))
    r = random_invertible(n, random.Random(s2))
    pq, pr, pqr = perm_indices([q.words, r.words, (q @ r).words], n)
    assert (pqr == pq[pr]).all()


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_pease_evaluates_to_transform(n):
    assert (evaluate(pease(n)) == hadamard(n)).all()


def test_single_stage_partial_product():
    # last stage of the n=2 constant-geometry sequence: butterfly after shuffle
    P = pease(2)
    got = evaluate_partial(P, 2)
    f2 = np.array([[1, 1], [1, -1]], dtype=np.int64)
    b = np.kron(np.eye(2, dtype=np.int64), f2)
    assert (got == b @ perm_matrix(rotation_matrix(2))).all()


def test_partial_product_chain():
    rng = random.Random(7)
    P = random_sequence(3, rng)
    full = evaluate_partial(P, 1)
    assert (evaluate(P) == perm_matrix(P[0]) @ full).all()
    assert (evaluate_partial(P, 4) == np.eye(8)).all()


def test_partial_bounds():
    P = pease(2)
    with pytest.raises(ValueError):
        evaluate_partial(P, 0)
    with pytest.raises(ValueError):
        evaluate_partial(P, 4)


@settings(max_examples=25, deadline=None)
@given(st.integers(1, 4), st.integers(0, 2**30))
def test_transpose_symmetry(n, seed):
    """The computed matrix of the reversed-inverted sequence is the
    transpose, member or not."""
    P = random_sequence(n, random.Random(seed))
    assert (evaluate(reversed_inverted(P)) == evaluate(P).T).all()


def test_dependency_sets_read_off_columns():
    P = pease(2)
    d = dependency_sets(P, 1, 0)
    assert d.support == frozenset({0, 1, 2, 3})
    assert d.minus == frozenset()
    assert d.plus == frozenset({0, 1, 2, 3})


def test_dependency_sets_match_partial_matrix():
    rng = random.Random(3)
    for n in (3, 5):
        P = random_sequence(n, rng)
        for k in range(0, n + 2):
            m = evaluate(P) if k == 0 else evaluate_partial(P, k)
            for i in range(1 << n):
                d = dependency_sets(P, k, i)
                col = m[:, i]
                assert d.support == frozenset(np.flatnonzero(col != 0).tolist())
                assert d.plus == frozenset(np.flatnonzero(col == 1).tolist())
                assert d.minus == frozenset(np.flatnonzero(col == -1).tolist())


def test_dependency_sets_bounds():
    P = pease(2)
    for k, i in ((0, 4), (0, -1), (-1, 0), (4, 0)):
        with pytest.raises(ValueError):
            dependency_sets(P, k, i)
    with pytest.raises(SizeLimitError):
        dependency_sets(pease(15), 1, 0)


def test_dependency_sets_full_product():
    P = pease(3)
    h = hadamard(3)
    for i in range(8):
        d = dependency_sets(P, 0, i)
        assert d.plus == frozenset(np.flatnonzero(h[:, i] > 0).tolist())
        assert d.minus == frozenset(np.flatnonzero(h[:, i] < 0).tolist())


def test_row_support_bounded_by_spreading_rank():
    """Rows of the computed matrix can never have more nonzeros than
    2^rank(X)."""
    from linwht import spreading_matrix

    rng = random.Random(17)
    for trial in range(100):
        if trial % 2:
            P = forced_singular_sequence(3, rng)
        else:
            P = random_sequence(3, rng)
        bound = 1 << spreading_matrix(P).rank()
        w = evaluate(P)
        assert int(np.count_nonzero(w, axis=1).max()) <= bound


def test_size_guard_default():
    with pytest.raises(SizeLimitError):
        hadamard(15)
    with pytest.raises(SizeLimitError):
        evaluate(pease(15))


def test_size_guard_env_override(monkeypatch):
    monkeypatch.setenv("WHT_MAX_N", "4")
    with pytest.raises(SizeLimitError):
        hadamard(5)
    assert hadamard(4).shape == (16, 16)
    monkeypatch.setenv("WHT_MAX_N", "bogus")
    with pytest.raises(ValueError):
        hadamard(2)


_KINDS = ("member", "random", "singular")


def _sequence(kind: str, n: int, seed: int) -> AlgorithmSeq:
    rng = random.Random(f"{kind}/{n}/{seed}")
    if kind == "member":
        return sample_member(n, rng.randrange(1 << 30))
    if kind == "random":
        return random_sequence(n, rng)
    return forced_singular_sequence(n, rng)


def _integer_valued(shape, dtype, rng: np.random.Generator) -> np.ndarray:
    """Small integers in ``dtype``, so every sum the stages form is exact."""
    x = rng.integers(-8, 9, size=shape).astype(dtype)
    if np.issubdtype(dtype, np.complexfloating):
        x += 1j * rng.integers(-8, 9, size=shape)
    return x


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
@pytest.mark.parametrize("kind", _KINDS)
def test_evaluations_match_naive_product(n, kind):
    for seed in range(3):
        P = _sequence(kind, n, seed)
        assert (evaluate(P) == naive_evaluate(P)).all()
        for k in range(1, n + 2):
            assert (evaluate_partial(P, k) == naive_evaluate(P, k, final_perm=False)).all()


@pytest.mark.parametrize("dtype", [np.int64, np.float64, np.complex128])
@pytest.mark.parametrize("trailing", [(), (3,), (2, 5), (0,), (2, 0)])
def test_transform_matches_naive_product(dtype, trailing):
    """Every trailing shape gives the naive product, also one with no column and so no panel to run."""
    rng = np.random.default_rng(len(trailing))
    for n in range(1, 7):
        for kind in _KINDS:
            P = _sequence(kind, n, 0)
            x = _integer_valued((1 << n,) + trailing, dtype, rng)
            got = transform(P, x)
            want = (naive_evaluate(P) @ x.reshape(1 << n, x[0].size)).reshape(x.shape)
            assert got.dtype == x.dtype and got.shape == x.shape
            assert (got == want).all()


def test_transform_spans_panels_with_remainder():
    n = 4
    P = _sequence("member", n, 1)
    width = _PANEL_BYTES // ((1 << n) * np.dtype(np.float64).itemsize)
    x = _integer_valued((1 << n, 2 * width + 3), np.float64, np.random.default_rng(5))
    assert (transform(P, x) == naive_evaluate(P) @ x).all()
    # a non-contiguous input takes the same path
    assert (transform(P, x[:, ::2]) == naive_evaluate(P) @ x[:, ::2]).all()


@pytest.mark.parametrize("n", [15, 16])
def test_transform_matches_reshape_fwht_at_large_n(n):
    """Members' transforms equal a reshape FWHT past the dense oracle's
    reach, where a panel holds two float64 or four int32 columns (n=15)
    and one float64 or two int32 columns (n=16)."""
    rng = random.Random(n)
    members = [pease(n), iterative_ct(n)]
    members += [sample_member(n, rng.randrange(1 << 30)) for _ in range(2)]
    data = np.random.default_rng(n)
    for x in (
        _integer_valued((1 << n,), np.float64, data),
        _integer_valued((1 << n, 4), np.int32, data),
    ):
        want = reshape_fwht(x)
        for P in members:
            got = transform(P, x)
            assert got.dtype == x.dtype and got.shape == x.shape
            assert (got == want).all()


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
@pytest.mark.parametrize("kind", _KINDS)
def test_naive_transform_matches_naive_product(n, kind):
    """The stage-by-stage reference agrees with the dense product it
    stands in for past the dense limit."""
    data = np.random.default_rng(n)
    for seed in range(2):
        P = _sequence(kind, n, seed)
        for x in (_integer_valued((1 << n,), np.int64, data), _integer_valued((1 << n, 3), np.int64, data)):
            assert (naive_transform(P, x) == naive_evaluate(P) @ x).all()


@pytest.mark.parametrize("n", [15, 16])
def test_transform_matches_naive_transform_at_large_n(n):
    """Past the dense limit, members and non-members alike equal a
    reference that builds no gather table and uses no split order."""
    rng = random.Random(n)
    seqs = [pease(n), sample_member(n, rng.randrange(1 << 30))]
    seqs += [random_sequence(n, rng) for _ in range(2)]
    data = np.random.default_rng(n)
    for x in (
        _integer_valued((1 << n,), np.float64, data),
        _integer_valued((1 << n, 3), np.int32, data),
    ):
        for P in seqs:
            got = transform(P, x)
            assert got.dtype == x.dtype and got.shape == x.shape
            assert (got == naive_transform(P, x)).all()


def test_transform_rejects_wrong_first_axis():
    P = pease(3)
    for shape in ((), (7,), (9, 2), (2, 8)):
        with pytest.raises(DimensionError):
            transform(P, np.zeros(shape))


def _panel_sequences(n: int) -> list[AlgorithmSeq]:
    rng = random.Random(n)
    return [
        pease(n),
        iterative_ct(n),
        sample_member(n, rng.randrange(1 << 30)),
        random_sequence(n, rng),
        random_sequence(n, rng),
    ]


@pytest.mark.parametrize("n", [9, 10])
def test_identity_panels_match_int64_array_path(n):
    """The identity fits one panel at n=9 and takes four at n=10."""
    eye = np.eye(1 << n, dtype=np.int64)
    for P in _panel_sequences(n):
        pairs = [(evaluate(P), transform(P, eye))]
        pairs += [(evaluate_partial(P, k), _run(P, k, eye, final_perm=False)) for k in (1, 2, n, n + 1)]
        for got, want in pairs:
            assert got.dtype == np.int32 and got.flags.c_contiguous
            assert want.dtype == np.int64
            assert (got == want).all()


def test_working_dtype_holds_every_entry():
    for n in range(1, 31):
        dtype = _working_dtype(n)
        assert np.iinfo(dtype).max >= 1 << n
        assert dtype == (np.int16 if n <= 14 else np.int32)


def test_evaluate_never_forms_the_identity():
    P = pease(10)
    tracemalloc.start()
    try:
        w = evaluate(P)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= w.nbytes + 2 * 2**20


def _use_cpus(monkeypatch, count: int) -> None:
    """Make ``oracle`` see ``count`` usable CPUs, whatever the host has."""
    monkeypatch.setattr(oracle.os, "sched_getaffinity", lambda pid: set(range(count)), raising=False)


def test_evaluate_holds_no_panel_buffer_per_thread(monkeypatch):
    """Each int16 identity panel runs inside the output rows it becomes,
    and its rows are written back a few tiles at a time, so four threads
    together hold less than one 512 KiB panel beside the result."""
    _use_cpus(monkeypatch, 4)
    P = pease(10)
    tracemalloc.start()
    try:
        w = evaluate(P)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= w.nbytes + _PANEL_BYTES


def test_transform_holds_n_plus_2_tables():
    """Beside its output and two panel buffers, ``transform`` holds the
    n+1 tables of one ``perm_indices`` call and less than one more."""
    n = 16
    size = 1 << n
    x = np.random.default_rng(0).standard_normal(size)
    P = sample_member(n, 3)
    width = max(1, _PANEL_BYTES // (size * 8))
    tracemalloc.start()
    try:
        y = transform(P, x)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= y.nbytes + 2 * size * width * 8 + (n + 2) * size * 8


def _scatter_reference(P: AlgorithmSeq, k: int, final_perm: bool) -> np.ndarray:
    """The int64 forward program with its final row scatter, run on the
    identity 512 columns at a time."""
    size = 1 << P.n
    return np.hstack([
        _run(P, k, np.eye(size, min(size, 512), -c0, dtype=np.int64), final_perm)
        for c0 in range(0, size, 512)
    ])


@pytest.mark.parametrize("n", range(1, 13))
def test_row_blocks_match_references_on_any_thread_count(n, monkeypatch):
    """``evaluate`` and ``evaluate_partial`` run the transposed program in
    row blocks of E.  With 1, 2 and 3 usable CPUs (uneven panel ranges
    on 3 from n=10 on) they equal the naive product up to n=6, and the
    int64 scatter path of data x above it."""
    P = _sequence("random", n, 0)
    ks = sorted({1, 2, n, n + 1})
    _use_cpus(monkeypatch, 1)
    if n <= 6:
        want = {0: naive_evaluate(P)} | {k: naive_evaluate(P, k, final_perm=False) for k in ks}
    else:
        want = {0: _scatter_reference(P, 1, True)} | {k: _scatter_reference(P, k, False) for k in ks}
    for cpus in (1, 2, 3):
        _use_cpus(monkeypatch, cpus)
        for k, w in want.items():
            got = evaluate(P) if k == 0 else evaluate_partial(P, k)
            assert got.dtype == np.int32 and got.flags.c_contiguous
            assert (got == w).all(), (cpus, k)


@pytest.mark.parametrize(
    "dtype,panel_bytes",
    [(np.int32, _PANEL_BYTES), (np.int32, 16 * 1024), (np.int16, 16 * 1024)],
    ids=["int32", "int32-one-tile", "int16-one-tile"],
)
def test_row_blocks_in_other_panel_shapes(dtype, panel_bytes, monkeypatch):
    """Stages in int32, as above n=14, leave no room for a second buffer
    in the output rows, so each thread holds two of its own; panels of
    one tile write their rows over the tile they read.  Both are forced
    here at n=10, on 1 and 3 threads."""
    P = _sequence("random", 10, 2)
    _use_cpus(monkeypatch, 1)
    want = _scatter_reference(P, 1, True)
    monkeypatch.setattr(oracle, "_working_dtype", lambda n: np.dtype(dtype))
    monkeypatch.setattr(oracle, "_PANEL_BYTES", panel_bytes)
    for cpus in (1, 3):
        _use_cpus(monkeypatch, cpus)
        assert (evaluate(P) == want).all(), cpus


def _member_path_sequences(n: int) -> list[AlgorithmSeq]:
    """``pease``, ``ict``, a sampled member and members twisted by P_n R and
    by A P_0, which keep the inverse condition, then a near-member and a
    random sequence, which mostly do not."""
    kinds = ["member", "twisted P_n"] + ["twisted P_0"] * (n > 1) + ["near", "random"]
    return [pease(n), iterative_ct(n)] + [_plan_sequence(kind, n, 0) for kind in kinds]


def _assert_data_path(got: np.ndarray, P: AlgorithmSeq, k: int, final_perm: bool) -> None:
    """``got`` equals the int64 data path on the identity, which writes no
    run, 512 columns at a time."""
    size = 1 << P.n
    for c0 in range(0, size, 512):
        want = _run(P, k, np.eye(size, min(size, 512), -c0, dtype=np.int64), final_perm)
        assert (got[:, c0 : c0 + 512] == want).all(), (k, c0)


def _spy_plans(monkeypatch) -> list:
    """The (runs, maps) of every ``_plan`` call from here on."""
    plans = []

    def spy(*args):
        plans.append(_plan(*args))
        return plans[-1]

    monkeypatch.setattr(oracle, "_plan", spy)
    return plans


def _writes_a_member_run(runs: list[int]) -> bool:
    return len(runs) <= 2 and runs[0] > 1


@pytest.mark.parametrize("n", range(1, 13))
def test_written_first_runs_match_the_data_path_on_any_thread_count(n, monkeypatch):
    """From ``_PLAN_ENTRIES`` entries on (n >= 7), the identity program of a
    sequence with the inverse condition writes a first run of n - K
    butterflies from the Sylvester signs and runs the K long index bits in
    place; every other program writes one butterfly.  On 1, 2 and 3 usable
    CPUs ``evaluate`` and ``evaluate_partial(P, 1)`` (D_0 = I) equal the
    data path.  Above n=10 only the first five sequences and ``evaluate``
    are run, for time."""
    plans = _spy_plans(monkeypatch)
    seqs = _member_path_sequences(n)
    members = len(seqs) - 2
    for i, P in enumerate(seqs[:members] if n > 10 else seqs):
        for k in (0,) if n > 10 else (0, 1):
            _use_cpus(monkeypatch, 1)
            plans.clear()
            got = evaluate(P) if k == 0 else evaluate_partial(P, k)
            if k == 0 and n > 1:
                want = check_membership(P).cond_inverse and 4**n >= oracle._PLAN_ENTRIES
                assert _writes_a_member_run(plans[0][0]) == want, plans[0][0]
            _assert_data_path(got, P, max(k, 1), k == 0)
            for cpus in (2, 3):
                _use_cpus(monkeypatch, cpus)
                again = evaluate(P) if k == 0 else evaluate_partial(P, k)
                assert again.tobytes() == got.tobytes(), (i, k, cpus)


@pytest.mark.parametrize(
    "dtype,panel_bytes",
    [(np.int32, _PANEL_BYTES), (np.int32, 16 * 1024), (np.int16, 16 * 1024)],
    ids=["int32", "int32-one-tile", "int16-one-tile"],
)
def test_written_first_runs_in_other_panel_shapes(dtype, panel_bytes, monkeypatch):
    """The panel shapes above, on the sequences of the test above at n=10:
    those with the inverse condition write their long first run in each
    shape, on 1 and 3 threads."""
    seqs = _member_path_sequences(10)
    _use_cpus(monkeypatch, 1)
    want = [_scatter_reference(P, 1, True) for P in seqs]
    monkeypatch.setattr(oracle, "_working_dtype", lambda n: np.dtype(dtype))
    monkeypatch.setattr(oracle, "_PANEL_BYTES", panel_bytes)
    plans = _spy_plans(monkeypatch)
    for cpus in (1, 3):
        _use_cpus(monkeypatch, cpus)
        for i, (P, w) in enumerate(zip(seqs, want)):
            plans.clear()
            assert (evaluate(P) == w).all(), (i, cpus)
            assert _writes_a_member_run(plans[0][0]) == check_membership(P).cond_inverse, plans[0][0]


def test_transform_bits_do_not_depend_on_thread_count(monkeypatch):
    """A float64 transform of many columns, split into panel ranges of
    unequal length, gives the same bits on 1, 2 and 3 threads."""
    n = 10
    P = _sequence("random", n, 1)
    width = _PANEL_BYTES // ((1 << n) * 8)
    x = np.random.default_rng(9).standard_normal((1 << n, 5 * width + 3))
    results = []
    for cpus in (1, 2, 3):
        _use_cpus(monkeypatch, cpus)
        results.append(transform(P, x))
    assert all(r.tobytes() == results[0].tobytes() for r in results[1:])
    assert np.allclose(results[0], naive_transform(P, x))


def test_concurrent_callers_get_their_own_matrices(monkeypatch):
    """Two Python threads evaluating different sequences at once, each on
    three panel threads (more than a 2-CPU host has cores) and with a
    short switch interval, get their own results."""
    seqs = [_sequence("random", 11, seed) for seed in range(2)]
    _use_cpus(monkeypatch, 1)
    want = [evaluate(P) for P in seqs]
    _use_cpus(monkeypatch, 3)
    got: dict[int, list[bool]] = {0: [], 1: []}

    def call(i):
        for _ in range(3):
            got[i].append(bool((evaluate(seqs[i]) == want[i]).all()))

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        callers = [threading.Thread(target=call, args=(i,)) for i in range(2)]
        for t in callers:
            t.start()
        for t in callers:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(old)
    assert not any(t.is_alive() for t in callers)
    assert got == {0: [True] * 3, 1: [True] * 3}


def test_worker_error_raises_in_the_caller(monkeypatch):
    _use_cpus(monkeypatch, 2)
    monkeypatch.setattr(oracle, "np", SubtractFailsInWorkers())
    with pytest.raises(MemoryError, match="in a worker thread"):
        evaluate(pease(10))
    assert (evaluate(pease(9)) == hadamard(9)).all()  # one panel: no worker thread


def _plan_sequence(kind: str, n: int, seed: int) -> AlgorithmSeq:
    """A member, a member with one stage replaced, a member with P_n
    replaced by P_n R or P_0 by A P_0, or a random sequence."""
    rng = random.Random(f"plan/{kind}/{n}/{seed}")
    if kind == "random":
        return random_sequence(n, rng)
    if kind == "twisted P_0":
        return twisted_member(n, rng)
    mats = list(sample_member(n, rng.randrange(1 << 30)).matrices)
    if kind == "near":
        mats[rng.randrange(n + 1)] = random_invertible(n, rng)
    elif kind == "twisted P_n":
        mats[n] = mats[n] @ random_invertible(n, rng)
    return AlgorithmSeq(tuple(mats))


def _checked_plan(stages, last, n: int, cap: int, head: int = 0) -> list[int]:
    """``_plan``'s runs, after checking on words that its maps give every
    run a frame F (F_1 = G_1, then F_i = E_{i-1} G_i with E = S^-1 F, S
    the run's product) whose column j is S_j e and whose inverse has row j
    e^T S_j^-1 (S_j = D_0 ... D_j over the run), and that the last map is
    E^-1 last.  Only a first run of ``head`` may be longer than ``cap``."""
    runs, maps = _plan(stages, last, n, cap, head)
    mats = [BitMatrix(n, n, tuple(q)) for q in stages]
    in_place = runs[1:] if runs[0] == head else runs
    assert sum(runs) == len(mats) and all(1 <= r <= cap for r in in_place) and len(maps) == len(runs) + 1
    e, t = identity(n), 0
    for i, (r, g) in enumerate(zip(runs, maps)):
        f = e @ BitMatrix(n, n, tuple(g))
        f_inv = f.inverse()
        s = [mats[t]]
        for d in mats[t + 1 : t + r + 1]:
            s.append(s[-1] @ d)
        v = [naive_apply(p, 1) for p in s]  # the pair directions S_j e ...
        w = [p.inverse().words[n - 1] for p in s]  # ... and first-functionals e^T S_j^-1
        for j in range(r):
            assert naive_apply(f, 1 << (n - 1 - j)) == v[j] and f_inv.words[j] == w[j], (i, j)
        e, t = s[r - 1].inverse() @ f, t + r
    assert list(maps[-1]) == list((e.inverse() @ BitMatrix(n, n, tuple(last))).words)
    return runs


_PLAN_KINDS = ("member", "near", "twisted P_n", "twisted P_0", "random")


@settings(max_examples=80, deadline=None)
@given(st.sampled_from(_PLAN_KINDS), st.integers(2, 10), st.integers(1, 10), st.integers(0, 2**30))
def test_plan_runs_follow_the_corner_condition(kind, n, cap, seed):
    """On the program of E^T (stages P_0..P_(n-1), last P_n), one run holds
    every butterfly exactly when the inverse condition holds, and a member
    runs in ceil(n / cap) runs; partial programs (I, P_k..P_(n-1)) and the
    data program (P_n^-1, ..., P_1^-1, last P_0^-1) plan valid frames too."""
    P = _plan_sequence(kind, n, seed)
    words = P.stack.tolist()
    cap = min(cap, n)
    assert (len(_checked_plan(words[:n], words[n], n, n)) == 1) == check_membership(P).cond_inverse
    runs = _checked_plan(words[:n], words[n], n, cap)
    if kind != "near" and kind != "random":
        assert runs == [min(cap, n - t) for t in range(0, n, cap)]
    k = seed % n + 1
    _checked_plan([identity(n).words] + words[k:n], words[n], n, cap)
    inv = [q.inverse().words for q in P.matrices]
    _checked_plan(inv[n:0:-1], inv[0], n, cap)


@settings(max_examples=80, deadline=None)
@given(st.sampled_from(_PLAN_KINDS), st.integers(2, 12), st.integers(0, 11), st.integers(0, 2**30))
def test_plan_writes_a_members_first_run(kind, n, long, seed):
    """The identity program of a member, or of a member twisted at either
    end, runs in two frames: n - K butterflies written, then K in place
    (K < n the long index bits), or in one written frame when K = 0.
    Every other program runs one butterfly to a frame."""
    P = _plan_sequence(kind, n, seed)
    words = P.stack.tolist()
    long = min(long, n - 1)
    runs = _checked_plan(words[:n], words[n], n, max(1, long), n - long)
    if check_membership(P).cond_inverse:
        assert runs == [n - long] + [long] * (long > 0)
    else:
        assert kind in ("near", "random") and runs == [1] * n


@pytest.mark.parametrize("n", range(1, 7))
def test_written_run_is_butterflies_on_staged_ones(n):
    """By brute force: the first ``h`` butterflies (index bits n-1, ...,
    n-h) on e_r, r = (hi, lo) split at bit n-h, leave row hi of the
    Sylvester block at rows (v, lo) and zeros elsewhere."""
    size = 1 << n
    for h in range(1, n + 1):
        signs = oracle._signs(h, np.dtype(np.int16))
        for r in range(size):
            x = np.zeros(size, dtype=np.int64)
            x[r] = 1
            for b in range(n - 1, n - 1 - h, -1):
                y = x.copy()
                for i in range(size):
                    if not i >> b & 1:
                        y[i], y[i | 1 << b] = x[i] + x[i | 1 << b], x[i] - x[i | 1 << b]
                x = y
            want = np.zeros(size, dtype=np.int64)
            want[(np.arange(1 << h) << (n - h)) | (r & ((1 << (n - h)) - 1))] = signs[r >> (n - h)]
            assert (x == want).all(), (h, r)


@pytest.mark.parametrize("n", range(1, 17))
def test_float_transform_is_bitwise_naive(n):
    """The runs move rows between butterflies but add and subtract the same
    pairs in the same order as the stage-by-stage reference, so float64
    results are the same bytes."""
    rng = random.Random(n)
    seqs = [pease(n), iterative_ct(n), sample_member(n, rng.randrange(1 << 30)), random_sequence(n, rng)]
    data = np.random.default_rng(n)
    xs = [data.standard_normal(1 << n)] + ([data.standard_normal((1 << n, 3))] if n <= 12 else [])
    for P in seqs:
        for x in xs:
            assert transform(P, x).tobytes() == naive_transform(P, x).tobytes()
