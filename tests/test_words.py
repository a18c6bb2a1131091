import itertools
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from covcat import linalg as la
from covcat.catalysis import rank_condition_counterexample
from covcat import words
from covcat.words import (
    CLUSTER_TOL,
    RANK_TOL,
    Word,
    WordSyntaxError,
    conjugation_residual,
    find_simultaneous_unitary,
    fractional_word_trace,
    parse_word,
    wiegmann_equivalent,
    word_trace,
)


def random_psd(d, rng, rank=None):
    rank = rank if rank is not None else d
    g = rng.standard_normal((d, rank)) + 1j * rng.standard_normal((d, rank))
    return g @ g.conj().T


# ---------------------------------------------------------------------------
# parsing and canonical form
# ---------------------------------------------------------------------------

def test_parse_reference_example():
    w = parse_word("x0^2 x1^3 x0^4", 3)
    assert w.letters == ((0, 2), (1, 3), (0, 4))
    assert w.length == 3


def test_parse_single_variable():
    assert parse_word("x1", 2).letters == ((1, 1),)


def test_parse_merges_adjacent():
    assert parse_word("x0 x0", 1).letters == ((0, 2),)


def test_zero_exponents_are_kept():
    w = parse_word("x0^0 x2^2 x1 x0^4", 3)
    assert w.length == 4
    assert w.letters[0] == (0, 0)
    assert str(w) == "x0^0 x2^2 x1 x0^4"


def test_parse_errors():
    with pytest.raises(WordSyntaxError):
        parse_word("", 2)
    with pytest.raises(WordSyntaxError):
        parse_word("x2", 2)
    with pytest.raises(WordSyntaxError):
        parse_word("y0", 2)
    with pytest.raises(WordSyntaxError):
        parse_word("x0^-1", 2)


@st.composite
def canonical_words(draw):
    n_vars = draw(st.integers(2, 4))
    length = draw(st.integers(1, 6))
    letters = []
    last = -1
    for _ in range(length):
        var = draw(st.integers(0, n_vars - 1).filter(lambda v: v != last))
        exp = draw(st.integers(0, 5))
        letters.append((var, exp))
        last = var
    return Word(tuple(letters), n_vars)


@given(canonical_words())
@settings(max_examples=200, deadline=None)
def test_parse_print_round_trip(word):
    assert parse_word(str(word), word.num_variables) == word


# ---------------------------------------------------------------------------
# traces
# ---------------------------------------------------------------------------

def test_trace_of_identity_tuple():
    w = parse_word("x0", 1)
    assert abs(word_trace(w, [np.eye(5)]) - 5.0) < 1e-12


def test_trace_cyclic_invariance(rng):
    mats = [random_psd(3, rng) for _ in range(3)]
    u = la.random_unitary(3, rng)
    rotated = [u @ m @ u.conj().T for m in mats]
    for text in ("x0 x1 x2", "x2^2 x0^3", "x1 x0 x1^2"):
        w = parse_word(text, 3)
        ta, tb = word_trace(w, mats), word_trace(w, rotated)
        assert abs(ta - tb) < 1e-9 * max(1.0, abs(ta))


def test_counterexample_word_gap():
    fx = rank_condition_counterexample()
    w = parse_word("x0 x1 x2", 3)
    gap = abs(word_trace(w, list(fx.b)) - word_trace(w, list(fx.a)))
    assert abs(gap - 2 * np.sqrt(3)) < 1e-9


def test_fractional_at_zero_counts_rank(rng):
    # participating first variable: all-zero exponents give its rank
    a0 = random_psd(4, rng, rank=2)
    a1 = random_psd(4, rng)  # full rank
    w = parse_word("x0 x1 x0", 2)
    value = fractional_word_trace(w, [0.0, 0.0, 0.0], [a0, a1])
    assert abs(value - 2.0) < 1e-8
    # non-participating first variable with full-rank participants: dimension
    w2 = parse_word("x1^2", 2)
    value2 = fractional_word_trace(w2, [0.0], [a0, a1])
    assert abs(value2 - 4.0) < 1e-8


def test_fractional_factorizes_over_products(rng):
    a = [random_psd(2, rng) for _ in range(2)]
    c = [random_psd(3, rng) for _ in range(2)]
    prod = [la.tensor(ai, ci) for ai, ci in zip(a, c)]
    w = parse_word("x0 x1^2 x0", 2)
    s = [0.7, 1.3, 0.4]
    lhs = fractional_word_trace(w, s, prod)
    rhs = fractional_word_trace(w, s, a) * fractional_word_trace(w, s, c)
    assert abs(lhs - rhs) < 1e-9 * max(1.0, abs(lhs))


def test_fractional_matches_integer_powers(rng):
    mats = [random_psd(3, rng) for _ in range(2)]
    w = parse_word("x0^2 x1^3 x0", 2)
    s = [2.0, 3.0, 1.0]
    lhs = fractional_word_trace(w, s, mats)
    rhs = word_trace(w, mats)
    assert abs(lhs - rhs) < 1e-9 * max(1.0, abs(lhs))


def test_fractional_gradient_matches_finite_differences(rng):
    # analytic s-gradient (insert ln(A) A^s at the differentiated letter)
    # against central differences: smoothness proxy for the exponent map
    mats = [random_psd(3, rng) + 0.1 * np.eye(3) for _ in range(2)]
    w = parse_word("x0 x1 x0^2", 2)
    s0 = np.array([0.8, 1.4, 0.6])

    def power(var, s):
        return la.hermitian_power(mats[var], s)

    def log_power(var, s):
        lam, vec = np.linalg.eigh(mats[var])
        vals = np.where(lam > 1e-12, np.log(np.maximum(lam, 1e-300)) * lam ** s, 0.0)
        return (vec * vals) @ vec.conj().T

    h = 1e-5
    for k in range(3):
        factors = [log_power(var, s0[i]) if i == k else power(var, s0[i])
                   for i, (var, _) in enumerate(w.letters)]
        acc = np.eye(3, dtype=complex)
        for f in factors:
            acc = acc @ f
        grad_analytic = complex(np.trace(acc))
        plus, minus = s0.copy(), s0.copy()
        plus[k] += h
        minus[k] -= h
        grad_numeric = (fractional_word_trace(w, plus, mats)
                        - fractional_word_trace(w, minus, mats)) / (2 * h)
        assert abs(grad_analytic - grad_numeric) <= 1e-4 * max(1.0, abs(grad_analytic))


def test_fractional_requires_psd():
    w = parse_word("x0^0", 1)
    with pytest.raises(la.DomainError):
        fractional_word_trace(w, [0.0], [np.diag([1.0, -1.0])])


# ---------------------------------------------------------------------------
# fingerprint comparison
# ---------------------------------------------------------------------------

def test_conjugated_tuples_pass(rng):
    mats = [random_psd(3, rng) for _ in range(2)]
    u = la.random_unitary(3, rng)
    rotated = [u @ m @ u.conj().T for m in mats]
    verdict = wiegmann_equivalent(mats, rotated)
    assert verdict.verdict == "equivalent"
    assert verdict.witness is None
    assert verdict.span <= 9 and verdict.words_checked == 2 * verdict.span
    assert verdict.certificate.residual <= 1e-8
    # the certificate, found on the normalised tuples, conjugates the raw ones
    assert conjugation_residual(verdict.certificate.unitary, mats, rotated) <= 1e-8 * max(
        verdict.scale)


def _raw_trace(verdict, trace, unit=1.0):
    """A reported trace of the normalised tuples, multiplied back by the
    scales, for the input tuples divided by ``unit``."""
    return trace * np.prod([(verdict.scale[var] / unit) ** exp
                            for var, exp in verdict.witness.letters])


def test_counterexample_triple_distinguished():
    fx = rank_condition_counterexample()
    verdict = wiegmann_equivalent(list(fx.a), list(fx.b))
    assert verdict.verdict == "distinguished"
    assert str(verdict.witness) == "x0 x1 x2"
    gap = abs(_raw_trace(verdict, verdict.trace_a) - _raw_trace(verdict, verdict.trace_b))
    assert abs(gap - 2 * np.sqrt(3)) < 1e-9
    payload = verdict.to_json()
    assert payload["verdict"] == "distinguished"
    assert payload["word"] == "x0 x1 x2"
    assert payload["scale"] == list(verdict.scale) and "certificate" not in payload


def test_counterexample_pairs_equivalent():
    fx = rank_condition_counterexample()
    for i, j in ((0, 1), (1, 2), (2, 0)):
        verdict = wiegmann_equivalent([fx.a[i], fx.a[j]], [fx.b[i], fx.b[j]])
        assert verdict.verdict == "equivalent"
        match = find_simultaneous_unitary([fx.a[i], fx.a[j]], [fx.b[i], fx.b[j]])
        assert match.success and match.residual < 1e-6


def _normalised(tuple_a, tuple_b):
    scale = [max(np.linalg.norm(a, 2), np.linalg.norm(b, 2)) or 1.0
             for a, b in zip(tuple_a, tuple_b)]
    return ([a / s for a, s in zip(tuple_a, scale)], [b / s for b, s in zip(tuple_b, scale)])


def _first_mismatch_by_enumeration(tuple_a, tuple_b, tol=1e-9, max_length=6):
    """Oracle: every word in single letters up to ``max_length``, in length-lex
    order, on the normalised tuples; the first whose traces differ by more than
    ``tol * d``, as text, or None."""
    norm_a, norm_b = _normalised(tuple_a, tuple_b)
    d = norm_a[0].shape[0]
    for length in range(1, max_length + 1):
        for letters in itertools.product(range(len(norm_a)), repeat=length):
            acc_a, acc_b = np.eye(d), np.eye(d)
            for var in letters:
                acc_a, acc_b = acc_a @ norm_a[var], acc_b @ norm_b[var]
            if abs(np.trace(acc_a) - np.trace(acc_b)) > tol * d:
                return str(Word.from_letters([(var, 1) for var in letters], len(norm_a)))
    return None


def _span_oracle_cases(rng):
    # exactly Hermitian, so that the 1e100 multiples stay Hermitian within the
    # absolute tolerance of the tuple check
    def herm(x):
        return (x + x.conj().T) / 2

    cases = []
    for d, m in itertools.product((2, 3, 4), (1, 2, 3)):
        a = [herm(la.random_hermitian(d, rng)) for _ in range(m)]
        u = la.random_unitary(d, rng)
        b = [herm(u @ x @ u.conj().T) for x in a]
        cases.append((f"planted-d{d}-m{m}", a, b))
        kick = la.random_hermitian(d, rng)
        kick -= np.trace(kick) / d * np.eye(d)
        cases.append((f"kicked-d{d}-m{m}", a, [herm(b[0] + 1e-3 * kick)] + b[1:]))
        if m > 1:  # the last variable keeps its spectrum: only mixed words can differ
            w = la.random_unitary(d, rng)
            cases.append((f"rotated-d{d}-m{m}", a, b[:-1] + [herm(w @ b[-1] @ w.conj().T)]))
    for d in (3, 4):  # spectra with equal power sums up to d - 1: the witness is x0^d
        coeff = np.poly(np.arange(1.0, d + 1))
        coeff[-1] -= 0.05
        u, w = la.random_unitary(d, rng), la.random_unitary(d, rng)
        a0 = herm(u @ np.diag(np.arange(1.0, d + 1)) @ u.conj().T)
        b0 = herm(w @ np.diag(np.roots(coeff).real) @ w.conj().T)
        cases.append((f"moments-d{d}", [a0], [b0]))
        # a scalar second variable makes every mixed word dependent on powers of x0
        cases.append((f"moments-scalar-d{d}", [a0, 2 * np.eye(d)], [b0, 2 * np.eye(d)]))
    fx = rank_condition_counterexample()
    cases.append(("counterexample-triple", list(fx.a), list(fx.b)))
    return cases


def test_span_walk_agrees_with_enumeration_and_nullspace_solver():
    rng = np.random.default_rng(17)
    for name, a, b in _span_oracle_cases(rng):
        expected = _first_mismatch_by_enumeration(a, b)
        exact = find_simultaneous_unitary(*_normalised(a, b), seed=1).verdict
        assert exact == ("inequivalent" if expected else "equivalent"), name
        for scale in (1.0, 1e100, 1e-100):
            verdict = wiegmann_equivalent([scale * x for x in a], [scale * x for x in b])
            if expected is None:
                assert verdict.verdict == "equivalent", (name, scale)
                assert verdict.certificate.residual <= 1e-8, (name, scale)
            else:
                assert verdict.verdict == "distinguished", (name, scale)
                assert str(verdict.witness) == expected, (name, scale, str(verdict.witness))
            assert verdict.words_checked <= len(a) * 2 * a[0].shape[0] ** 2, name


def test_span_walk_fills_the_whole_pair_space_at_d16():
    # a planted random triple: word pairs (W, U W U^dag) span all d^2 of
    # their dimensions, and every basis word is extended by each of 3 letters
    rng = np.random.default_rng(16)
    a = [la.random_hermitian(16, rng) for _ in range(3)]
    u = la.random_unitary(16, rng)
    verdict = wiegmann_equivalent(a, [u @ x @ u.conj().T for x in a])
    assert verdict.verdict == "equivalent" and verdict.witness is None
    assert (verdict.words_checked, verdict.span) == (768, 256)
    assert verdict.certificate.residual <= 1e-8


def test_span_walk_decided_by_its_first_word_stays_small_at_d128():
    # the whole basis at d = 128 would be 2 d^2 x 2 d^2 complex, 16 GiB;
    # one trace decides this pair, so the walk holds one basis row
    rng = np.random.default_rng(128)
    a = [la.random_hermitian(128, rng), la.random_hermitian(128, rng)]
    b = [a[0] + 1e-3 * np.eye(128), a[1]]
    tracemalloc.start()
    try:
        verdict = wiegmann_equivalent(a, b)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert verdict.verdict == "distinguished" and str(verdict.witness) == "x0"
    assert (verdict.words_checked, verdict.span) == (1, 1)
    assert peak < 32 * 2 ** 20


def test_near_tolerance_pair_is_distinguished_though_a_unitary_fits_within_tol():
    # a conjugated pair of qubit states, one entry moved by 1e-9 traceless: the
    # x0^2 trace gap just exceeds tol * d, while find_simultaneous_unitary on
    # the normalised tuples fits a unitary within tol; deciding by the
    # certificate first would call this pair equivalent
    rng = np.random.default_rng(9)
    a = [la.random_density(2, rng) for _ in range(2)]
    u = la.random_unitary(2, rng)
    b = [u @ x @ u.conj().T for x in a]
    h = la.random_hermitian(2, rng)
    h -= np.trace(h) / 2 * np.eye(2)
    b[0] = b[0] + 1e-9 * h / np.abs(h).max()
    tol = 1e-9  # the default of wiegmann_equivalent
    verdict = wiegmann_equivalent(a, b)
    assert verdict.verdict == "distinguished" and str(verdict.witness) == "x0^2"
    assert 2 * tol < abs(verdict.trace_a - verdict.trace_b) < 2.2 * tol
    match = find_simultaneous_unitary(*_normalised(a, b), tol=tol)
    assert match.verdict == "equivalent" and match.residual <= tol


# ---------------------------------------------------------------------------
# simultaneous unitary construction
# ---------------------------------------------------------------------------

def test_identical_tuples_give_zero_residual(rng):
    mats = [la.random_hermitian(3, rng) for _ in range(2)]
    match = find_simultaneous_unitary(mats, mats)
    assert match.success and match.residual < 1e-10


def test_planted_unitary_recovered(rng):
    for d, m in ((2, 1), (3, 2), (5, 3)):
        mats = [la.random_hermitian(d, rng) for _ in range(m + 1)]
        u = la.random_unitary(d, rng)
        rotated = [u @ a @ u.conj().T for a in mats]
        match = find_simultaneous_unitary(mats, rotated, seed=2)
        assert match.success, (d, m, match.residual)
        assert match.residual < 1e-8
        # only the conjugation property is promised, not uniqueness of U
        assert conjugation_residual(match.unitary, mats, rotated) < 1e-8


def test_tensored_counterexample_instance():
    fx = rank_condition_counterexample()
    match = find_simultaneous_unitary(list(fx.tensored_a()), list(fx.tensored_b()))
    assert match.success and match.residual < 1e-6


def test_factor_level_planted_instances(rng):
    # full-rank companion factors, planted system factor: the factor-level
    # solver must succeed whenever the joint problem is solvable
    for trial in range(5):
        d = 3
        v = la.random_unitary(d, rng)
        a_factors = [random_psd(d, rng, rank=2)] + [random_psd(d, rng) for _ in range(2)]
        b_factors = [v @ a @ v.conj().T for a in a_factors]
        match = find_simultaneous_unitary(a_factors, b_factors, seed=trial)
        assert match.success and match.residual < 1e-7


def test_failure_reported_for_inequivalent_tuples():
    fx = rank_condition_counterexample()
    match = find_simultaneous_unitary(list(fx.a), list(fx.b))
    assert not match.success
    assert match.verdict == "inequivalent"
    # the fingerprints refute it too
    assert wiegmann_equivalent(list(fx.a), list(fx.b)).verdict == "distinguished"


def _dense_commutant_decision(tuple_a, tuple_b, rng):
    """Oracle: nullity of the unrestricted stacked (1 (x) A_i^T - B_i (x) 1)
    on row-major vec(X), at the solver's rank threshold, whether a generic
    element of that nullspace is invertible, and whether the smallest
    singular value above the threshold also clears `CLUSTER_TOL` (or none
    is left)."""
    d = tuple_a[0].shape[0]
    stacked = np.concatenate([np.kron(np.eye(d), a.T) - np.kron(b, np.eye(d))
                              for a, b in zip(tuple_a, tuple_b)])
    unit = d * max(np.linalg.norm(m, 2) for m in (*tuple_a, *tuple_b))
    _, sv, vh = np.linalg.svd(stacked)
    sv /= unit
    null, nonzero = vh[sv <= RANK_TOL], sv[sv > RANK_TOL]
    clear = not len(nonzero) or nonzero.min() > CLUSTER_TOL
    if not len(null):
        return 0, False, clear
    weights = rng.standard_normal(len(null)) + 1j * rng.standard_normal(len(null))
    sx = np.linalg.svd((weights @ null.conj()).reshape(d, d), compute_uv=False)
    return len(null), sx[-1] > 1e-6 * sx[0], clear


def _oracle_cases(rng):
    cases = []
    for d in range(2, 7):
        k = 1 + d % 3
        a = [la.random_hermitian(d, rng) for _ in range(k)]
        u = la.random_unitary(d, rng)
        b = [u @ x @ u.conj().T for x in a]
        cases.append((f"planted-{d}", a, b))
        kicked = list(b)
        kicked[0] = kicked[0] + 1e-3 * la.random_hermitian(d, rng)
        cases.append((f"perturbed-{d}", a, kicked))
    for d_half in (2, 3):  # every combination has two-fold degenerate spectrum
        a = [la.tensor(la.random_hermitian(d_half, rng), np.eye(2)) for _ in range(2)]
        u = la.random_unitary(2 * d_half, rng)
        cases.append((f"degenerate-{2 * d_half}", a, [u @ x @ u.conj().T for x in a]))
        other = [la.tensor(la.random_hermitian(d_half, rng), np.eye(2)) for _ in range(2)]
        cases.append((f"degenerate-mismatch-{2 * d_half}", a, other))
    single = np.diag([0.1, 0.1, 0.3, 0.5, 0.5]).astype(complex)
    u = la.random_unitary(5, rng)
    cases.append(("degenerate-single", [single], [u @ single @ u.conj().T]))
    cases.append(("spectra-differ", [np.diag([1.0, 2.0, 3.0])], [np.diag([1.0, 2.0, 4.0])]))
    scalars = [2.0 * np.eye(4), -0.5 * np.eye(4)]
    cases.append(("scalar", scalars, scalars))
    cases.append(("scalar-mismatch", scalars, [2.0 * np.eye(4), 0.5 * np.eye(4)]))
    fx = rank_condition_counterexample()
    cases.append(("counterexample-triple", list(fx.a), list(fx.b)))
    return cases


def test_solver_agrees_with_dense_commutant_oracle():
    rng = np.random.default_rng(5)
    for name, a, b in _oracle_cases(rng):
        nullity, invertible, _ = _dense_commutant_decision(a, b, rng)
        match = find_simultaneous_unitary(a, b, seed=3)
        assert match.nullity == nullity, (name, match.nullity, nullity)
        assert match.verdict == ("equivalent" if invertible else "inequivalent"), name
        if match.success:
            assert match.residual <= 1e-12, name


def _dense_constraints(rep_a, rep_b, rows, cols):
    """Oracle: the constraint matrix of the solver, built column by column
    from explicit unit matrices E_j at (rows[j], cols[j])."""
    d = rep_a.shape[1]
    columns = []
    for r, c in zip(rows, cols):
        e = np.zeros((d, d))
        e[r, c] = 1.0
        columns.append(np.concatenate([(e @ a - b @ e).ravel() for a, b in zip(rep_a, rep_b)]))
    return np.array(columns).T


def test_constraint_norm_matches_dense_build():
    rng = np.random.default_rng(8)
    for trial in range(60):
        d, k = 2 + trial % 7, 1 + trial % 3
        q = la.random_unitary(d, rng)
        if trial % 3 == 0:  # commuting: diagonal up to the round-off of a basis change
            diag = rng.standard_normal((k, d))
            rep_a = rep_b = np.array([q.conj().T @ ((q * w) @ q.conj().T) @ q for w in diag])
        else:
            rep_a = np.array([la.random_hermitian(d, rng) for _ in range(k)])
            rep_b = np.array([q @ a @ q.conj().T for a in rep_a])
        # cluster labels as the solver draws them; one cluster leaves all d^2 unknowns
        clusters = 1 if trial % 5 == 0 else 1 + trial % d
        label_a, label_b = rng.integers(0, clusters, d), rng.integers(0, clusters, d)
        rows, cols = np.nonzero(label_b[:, None] == label_a)
        dense = np.linalg.norm(_dense_constraints(rep_a, rep_b, rows, cols))
        fast = words._constraint_norm(rep_a, rep_b, rows, cols)
        assert abs(fast - dense) <= 1e-12 * dense, (trial, fast, dense)


def _commuting_tuple(d, k, rng):
    q = la.random_unitary(d, rng)
    return [(q * rng.standard_normal(d)) @ q.conj().T for _ in range(k)]


def test_frobenius_shortcut_agrees_with_dense_svd(monkeypatch):
    rng = np.random.default_rng(13)
    qr_calls = []
    qr = np.linalg.qr
    monkeypatch.setattr(np.linalg, "qr", lambda *a, **kw: qr_calls.append(1) or qr(*a, **kw))
    # (name, tuple_a, tuple_b, whether the Frobenius bound decides); None when
    # the spectra of the combinations may share no cluster, so neither runs
    cases = []
    for d in (2, 5, 8):
        a = _commuting_tuple(d, 2, rng)
        u = la.random_unitary(d, rng)
        cases.append((f"commuting-{d}", a, [u @ x @ u.conj().T for x in a], True))
        b = [u @ x @ u.conj().T for x in a]
        v = np.linalg.eigh(b[0])[1][:, :1]  # a shared eigenvector: b stays commuting
        b[1] = b[1] + 1e-2 * (v @ v.conj().T)
        cases.append((f"commuting-mismatch-{d}", a, b, None))
        a = [la.random_hermitian(d, rng) for _ in range(2)]
        cases.append((f"non-commuting-{d}", a, [u @ x @ u.conj().T for x in a], False))
    scalars = [2.0 * np.eye(4), -0.5 * np.eye(4)]
    cases.append(("scalar", scalars, list(scalars), True))  # n = d^2 = 16
    cases.append(("scalar-mismatch", scalars, [2.0 * np.eye(4), 0.5 * np.eye(4)], None))
    for name, a, b, decided in cases:
        nullity, invertible, clear = _dense_commutant_decision(a, b, rng)
        qr_calls.clear()
        match = find_simultaneous_unitary(a, b, seed=4)
        assert decided is None or (not qr_calls) == decided, name
        assert match.nullity == nullity, (name, match.nullity, nullity)
        assert match.verdict == ("equivalent" if invertible else "inequivalent"), name
        assert (match.gap[1] is None or match.gap[1] > CLUSTER_TOL) == clear, name
        if decided:
            assert match.gap[0] <= RANK_TOL and match.gap[1] is None, name
        if match.success:
            assert match.residual <= 1e-12, name


def test_gap_reports_the_largest_singular_value_counted_as_zero(rng):
    # Eigenvalues 1 and 1 + 1e-8 share a cluster. Each defect 1e-8 / (d * 3)
    # is below RANK_TOL, but the Frobenius norm of two of them is not, so
    # the QR fold decides a nullity of 8 with two non-zero singular values.
    a = np.diag([1.0, 1.0 + 1e-8, 3.0, 3.0]).astype(complex)
    u = la.random_unitary(4, rng)
    match = find_simultaneous_unitary([a], [u @ a @ u.conj().T])
    assert match.nullity == 8
    stacked = np.kron(np.eye(4), a.T) - np.kron(u @ a @ u.conj().T, np.eye(4))
    sv = np.linalg.svd(stacked, compute_uv=False) / (4 * 3.0)
    largest_zero = sv[sv <= RANK_TOL].max()
    assert largest_zero > 0.5 * RANK_TOL
    assert abs(match.gap[0] - largest_zero) <= 1e-6 * largest_zero
    assert match.gap[1] is None


def test_counterexample_triple_has_empty_nullspace():
    fx = rank_condition_counterexample()
    match = find_simultaneous_unitary(list(fx.a), list(fx.b))
    assert match.verdict == "inequivalent" and match.nullity == 0
    assert match.unitary is None
    assert match.gap[0] is None and match.gap[1] > 1e-2  # far above the threshold
    assert match.to_json()["gap"] == [None, match.gap[1]]


def test_scaled_counterexample_overflow_is_inconclusive():
    # Normalising each variable keeps every word at norm <= 1, so nothing
    # overflows and the appendix witness is found again. Unnormalised at 1e100,
    # the traces of x2^3 (exactly 0) round to +-2.4e284 i: a false mismatch.
    fx = rank_condition_counterexample()
    for scale in (1e100, 1e110, 1e-110):
        verdict = wiegmann_equivalent([scale * m for m in fx.a], [scale * m for m in fx.b])
        assert verdict.verdict == "distinguished" and str(verdict.witness) == "x0 x1 x2"
        gap = abs(_raw_trace(verdict, verdict.trace_a, scale)
                  - _raw_trace(verdict, verdict.trace_b, scale))
        assert abs(gap - 2 * np.sqrt(3)) < 1e-9
    # At 1e308 every entry is finite but the norm of x2 is not, and a division
    # by that scale would zero the tuple and make every trace agree.
    verdict = wiegmann_equivalent([1e308 * m for m in fx.a], [1e308 * m for m in fx.b])
    assert verdict.verdict == "inconclusive"
    assert verdict.words_checked == 0 and verdict.certificate is None
    payload = verdict.to_json()
    assert payload["verdict"] == "inconclusive" and "trace_a" not in payload
    assert None in payload["scale"]


def test_solver_is_deterministic_for_fixed_seed(rng):
    mats = [la.random_hermitian(4, rng) for _ in range(2)]
    u = la.random_unitary(4, rng)
    rotated = [u @ a @ u.conj().T for a in mats]
    first = find_simultaneous_unitary(mats, rotated, seed=11)
    second = find_simultaneous_unitary(mats, rotated, seed=11)
    np.testing.assert_array_equal(first.unitary, second.unitary)
    assert first.residual == second.residual


def test_solver_success_implies_fingerprint_agreement(rng):
    mats = [random_psd(3, rng) for _ in range(2)]
    u = la.random_unitary(3, rng)
    rotated = [u @ m @ u.conj().T for m in mats]
    match = find_simultaneous_unitary(mats, rotated)
    assert match.success
    assert wiegmann_equivalent(mats, rotated, seed=3).verdict == "equivalent"
