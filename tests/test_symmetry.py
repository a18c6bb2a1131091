import itertools
import re

import numpy as np
import pytest

from covcat import linalg as la
from covcat import symmetry as sym
from covcat.refframe import phase_ladder_unitary

from conftest import s3_standard_images

SZ = np.diag([1.0, -1.0]).astype(complex)
SX = np.array([[0, 1], [1, 0]], dtype=complex)


# ---------------------------------------------------------------------------
# symmetric states
# ---------------------------------------------------------------------------

def test_symmetric_state_checks(rng):
    ok, dev = sym.is_symmetric_state(np.eye(3) / 3, [la.random_hermitian(3, rng)])
    assert ok and dev < 1e-12
    plus = np.ones((2, 2)) / 2
    ok, dev = sym.is_symmetric_state(plus, [SZ])
    assert not ok and abs(dev - 1.0) < 1e-12


@pytest.mark.parametrize("scale", [1e-6, 1.0, 1e6, 1e9])
def test_symmetric_state_judged_relative_to_the_generators(scale):
    # off the eigenbasis the commutator carries round-off of the generator's
    # size; divided by max(1, ||X - t 1||_max) it stays at machine precision
    q = la.random_unitary(2, np.random.default_rng(3))
    omega = q @ np.diag([0.7, 0.3]) @ q.conj().T
    gen = scale * (q @ np.diag([0.0, 1.0]) @ q.conj().T)
    ok, dev = sym.is_symmetric_state(omega, [gen], 1e-9)
    assert ok and dev <= 1e-15
    plus = np.ones((2, 2)) / 2
    ok, dev = sym.is_symmetric_state(plus, [scale * SZ], 1e-9)
    assert not ok and abs(dev - min(scale, 1.0)) <= 1e-12 * min(scale, 1.0)


# ---------------------------------------------------------------------------
# conservation residuals
# ---------------------------------------------------------------------------

def _unfolded_residuals(u, legs_in, legs_out=None):
    """`conservation_residuals` with every leg tensored, those of dimension 1 too."""
    legs_out = legs_in if legs_out is None else legs_out
    residuals = []
    for gens_in, gens_out in zip(zip(*legs_in), zip(*legs_out)):
        centres = [np.trace(g).real / len(g) for g in gens_in]
        x, y = (sum(la.tensor(*[g - t * np.eye(len(g)) if j == leg else np.eye(len(h))
                                for j, h in enumerate(gens)])
                    for leg, (g, t) in enumerate(zip(gens, centres)))
                for gens in (gens_in, gens_out))
        residuals.append(la.max_norm(u @ x - y @ u) / max(1.0, la.max_norm(x), la.max_norm(y)))
    return residuals


@pytest.mark.parametrize("n", [4, 16, 64])
def test_one_dimensional_legs_drop_out_bit_identically(n):
    # the ladder of a frame without an environment, kicked so that its
    # residual is far above round-off, with a 1 x 1 leg last, in the middle
    # and first; a 1 x 1 generator is 0 once centred, whatever it holds
    u = phase_ladder_unitary(n, 1.1) + 1e-8 * la.random_hermitian(2 * n, np.random.default_rng(n))
    s, c = [np.diag([0.0, 1.0])], [np.diag(np.arange(n, dtype=float))]
    for e in ([np.zeros((1, 1))], [np.full((1, 1), 2.5)]):
        for legs in ([s, c, e], [s, e, c], [e, s, c]):
            got = sym.conservation_residuals(u, legs)
            assert got == _unfolded_residuals(u, legs) and got[0] > 1e-10


def test_moved_one_dimensional_leg_still_counts():
    # Y = X + 1 on a 1 x 1 system leg: U X - Y U = -U, relative to ||Y||_max = 2
    u = np.eye(3, dtype=complex)
    c = [np.diag([0.0, 1.0, 2.0])]
    legs_in, legs_out = [[np.zeros((1, 1))], c], [[np.ones((1, 1))], c]
    got = sym.conservation_residuals(u, legs_in, legs_out)
    assert got == _unfolded_residuals(u, legs_in, legs_out) == [0.5]
    # every leg one-dimensional
    assert sym.conservation_residuals(np.ones((1, 1)), [[np.zeros((1, 1))], [np.eye(1)]]) == [0.0]


# ---------------------------------------------------------------------------
# finite groups
# ---------------------------------------------------------------------------

def test_trivial_group_regular_rep():
    g = sym.FiniteGroup.cyclic(1)
    rep = sym.left_regular_representation(g)
    np.testing.assert_allclose(rep.images[0], np.eye(1), atol=0)


def test_z2_regular_rep_is_swap():
    rep = sym.left_regular_representation(sym.FiniteGroup.cyclic(2))
    np.testing.assert_allclose(rep.images[0], np.eye(2), atol=0)
    np.testing.assert_allclose(rep.images[1], SX, atol=0)


def test_s3_regular_rep_homomorphism():
    g = sym.FiniteGroup.symmetric(3)
    rep = sym.left_regular_representation(g)
    for x in range(6):
        w = rep.images[x]
        assert set(np.unique(np.abs(w))) <= {0.0, 1.0}
        np.testing.assert_allclose(w.sum(axis=0), np.ones(6), atol=0)
        np.testing.assert_allclose(w.sum(axis=1), np.ones(6), atol=0)
        for y in range(6):
            np.testing.assert_allclose(rep.images[x] @ rep.images[y],
                                       rep.images[g.mul(x, y)], atol=0)


def test_group_table_validation():
    with pytest.raises(la.DomainError):
        sym.FiniteGroup(np.array([[0, 0], [1, 1]]))  # not a Latin square
    # Latin square with identity that fails associativity needs order >= 5;
    # easier: valid tables pass, tampered entries out of range fail
    with pytest.raises(la.DomainError):
        sym.FiniteGroup(np.array([[0, 1], [1, 2]]))


def test_non_associative_table_names_first_failing_triple():
    # order-5 Latin square with identity 0 whose elements all square to 0:
    # no group of order 5 has that, so associativity must fail
    table = np.array([[0, 1, 2, 3, 4], [1, 0, 3, 4, 2], [2, 4, 0, 1, 3],
                      [3, 2, 4, 0, 1], [4, 3, 1, 2, 0]])
    # Light's test: the first failing (x, y) at the first failing generator a
    first = next((x, a, y) for a in _loop_generators(table)
                 for x, y in itertools.product(range(5), repeat=2)
                 if table[table[x, a], y] != table[x, table[a, y]])
    expected = rf"not associative at \({first[0]},{first[1]},{first[2]}\)"
    with pytest.raises(la.DomainError, match=expected):
        sym.FiniteGroup(table)


# Element-by-element constructions: slow oracles for the whole-array group layer.

def _loop_group(table):
    """Validate a table with one Python loop per law; return (identity, inverse)
    or raise what the first failing law raises."""
    table = np.asarray(table, dtype=int)
    n = table.shape[0]
    if table.min() < 0 or table.max() >= n:
        raise la.DomainError("table entries must be element indices in [0, order)")
    for i in range(n):
        if len(set(table[i, :])) != n or len(set(table[:, i])) != n:
            raise la.DomainError(f"multiplication table is not a Latin square at index {i}")
    identity = next((e for e in range(n) if np.array_equal(table[e, :], np.arange(n))
                     and np.array_equal(table[:, e], np.arange(n))), None)
    if identity is None:
        raise la.DomainError("multiplication table has no identity element")
    for x in range(n):
        bad = np.argwhere(table[table[x]] != table[x][table])
        if bad.size:
            y, z = bad[0]
            raise la.DomainError(f"multiplication table is not associative at ({x},{y},{z})")
    inverse = np.full(n, -1, dtype=int)
    for x in range(n):
        hits = np.where(table[x, :] == identity)[0]
        if len(hits) != 1 or table[hits[0], x] != identity:
            raise la.DomainError(f"element {x} has no two-sided inverse")
        inverse[x] = hits[0]
    return identity, inverse


def _loop_generators(table):
    """Greedy generators of a table with a two-sided identity, by Python sets:
    each is the first element that right products of the earlier ones,
    starting from the identity, do not reach."""
    n = len(table)
    identity = next(e for e in range(n)
                    if all(table[e][y] == y and table[y][e] == y for y in range(n)))
    generators, reached = [], {identity}
    while len(reached) < n:
        generators.append(min(set(range(n)) - reached))
        frontier = set(reached)
        while frontier:
            frontier = {int(table[x][a]) for x in frontier for a in generators} - reached
            reached |= frontier
    return tuple(generators)


def _word_lengths(table, identity, generators):
    """Breadth-first: the least number of generators whose right products
    from the identity reach each element."""
    lengths, frontier = {identity: 0}, {identity}
    for length in itertools.count(1):
        frontier = {int(table[x][a]) for x in frontier for a in generators} - lengths.keys()
        if not frontier:
            return lengths
        lengths.update(dict.fromkeys(frontier, length))


def _loop_symmetric(n):
    """Table and labels of S_n from a dict of the lexicographic permutations."""
    perms = list(itertools.permutations(range(n)))
    index = {p: i for i, p in enumerate(perms)}
    table = np.zeros((len(perms), len(perms)), dtype=int)
    for i, p in enumerate(perms):
        for j, q in enumerate(perms):
            table[i, j] = index[tuple(p[q[k]] for k in range(n))]
    return table, tuple("".join(map(str, p)) for p in perms)


def _relabelled(table, perm):
    """The same group with element i renamed perm[i]."""
    out = np.empty_like(table)
    out[np.ix_(perm, perm)] = perm[table]
    return out


def _intercalate_swapped(table, rng):
    """Swap a 2x2 sub-square ``a b / b a`` off the identity's row and column:
    still a Latin square with the same identity."""
    n = table.shape[0]
    e = int(np.flatnonzero((table == np.arange(n)).all(axis=1))[0])
    inv = np.argmax(table == e, axis=1)
    for _ in range(10_000):  # r1 r2^-1 is an involution for about one draw in five
        r1, r2, c1 = rng.integers(n, size=3)
        c2 = table[inv[r2], table[r1, c1]]  # r2 c2 = r1 c1
        if (table[r1, c2] == table[r2, c1] and len({r1, r2, e}) == 3
                and len({c1, c2, e}) == 3):
            out = table.copy()
            out[[r1, r1, r2, r2], [c1, c2, c1, c2]] = table[[r1, r1, r2, r2], [c2, c1, c2, c1]]
            return out
    raise AssertionError("no intercalate off the identity")


def _corrupted(table, kind, rng):
    n = table.shape[0]
    out = table.copy()
    i, j, k = rng.choice(n, size=3, replace=False)
    if kind == "entry":
        out[i, j] = (out[i, j] + 1 + rng.integers(n - 1)) % n
    elif kind == "entry-swap":  # swaps two entries of one row: columns repeat
        out[i, [j, k]] = out[i, [k, j]]
    elif kind in ("column-swap", "row-swap"):  # a Latin square with a one-sided identity
        e = int(np.flatnonzero((table == np.arange(n)).all(axis=1))[0])
        j, k = [c for c in (i, j, k) if c != e][:2]
        if kind == "column-swap":
            out[:, [j, k]] = out[:, [k, j]]
        else:
            out[[j, k]] = out[[k, j]]
    else:
        out = _intercalate_swapped(table, rng)
    return out


def _raised(build, table):
    try:
        build(table)
    except Exception as exc:  # the class and message are what is compared
        return type(exc), str(exc)
    return None


NON_ASSOCIATIVE = re.compile(r"not associative at \((\d+),(\d+),(\d+)\)$")


def _assert_fails_like_the_loops(table):
    """`FiniteGroup` violates the law `_loop_group` violates, with its message.
    For associativity the triple may differ: Light's test names a triple
    (x, a, y) with a a generator, which must fail in the table."""
    table = np.asarray(table)
    want = _raised(_loop_group, table)
    assert want is not None
    got = _raised(sym.FiniteGroup, table)
    assert got is not None and got[0] == want[0]
    named = NON_ASSOCIATIVE.search(got[1])
    assert NON_ASSOCIATIVE.sub("", got[1]) == NON_ASSOCIATIVE.sub("", want[1])
    if named:
        x, a, y = map(int, named.groups())
        assert table[table[x, a], y] != table[x, table[a, y]]
        assert a in _loop_generators(table)


@pytest.mark.parametrize("kind", ["entry", "entry-swap", "column-swap", "row-swap",
                                  "intercalate"])
@pytest.mark.parametrize("n", [4, 5])
def test_corrupted_relabelled_tables_fail_like_the_loops(n, kind, rng):
    good = sym.FiniteGroup.symmetric(n).table
    for _ in range(3):
        _assert_fails_like_the_loops(
            _corrupted(_relabelled(good, rng.permutation(len(good))), kind, rng))


@pytest.mark.parametrize("table", [
    # order-5 Latin square with identity 0 whose elements all square to 0
    [[0, 1, 2, 3, 4], [1, 0, 3, 4, 2], [2, 4, 0, 1, 3], [3, 2, 4, 0, 1], [4, 3, 1, 2, 0]],
    # order-6 loop with generators (1, 2) that passes Light's test at 1, fails it at 2
    [[0, 1, 2, 3, 4, 5], [1, 0, 3, 2, 5, 4], [2, 3, 4, 5, 0, 1], [3, 2, 5, 4, 1, 0],
     [4, 5, 0, 1, 3, 2], [5, 4, 1, 0, 2, 3]],
    [[0, 2, 1], [2, 1, 0], [1, 0, 2]],  # x*y = -x-y mod 3: Latin, no identity
    [[0, 1, 2], [2, 0, 1], [1, 2, 0]],  # x*y = y-x mod 3: a left identity only
    [[0, 1, 2], [1, 2, 0], [2, 0, 0]],
    [[0, 1], [1, 2]],
], ids=["non-associative-5", "non-associative-6", "no-identity", "left-identity", "not-latin",
        "out-of-range"])
def test_small_bad_tables_fail_like_the_loops(table):
    _assert_fails_like_the_loops(table)


@pytest.mark.parametrize("n", range(1, 6))
def test_symmetric_group_matches_the_dict_built_table(n):
    table, labels = _loop_symmetric(n)
    g = sym.FiniteGroup.symmetric(n)
    np.testing.assert_array_equal(g.table, table)
    assert g.labels == labels


def _groups():
    rng = np.random.default_rng(17)
    s4 = sym.FiniteGroup.symmetric(4).table
    return [sym.FiniteGroup.cyclic(1), sym.FiniteGroup.cyclic(6), sym.FiniteGroup.symmetric(3),
            sym.FiniteGroup(_relabelled(s4, rng.permutation(24))), sym.FiniteGroup.symmetric(5)]


GROUP_IDS = ["C1", "C6", "S3", "S4-relabelled", "S5"]


@pytest.mark.parametrize("g", _groups(), ids=GROUP_IDS)
def test_group_data_match_the_loops(g):
    identity, inverse = _loop_group(g.table)
    assert g.identity == identity
    np.testing.assert_array_equal(g.inverse, inverse)
    x = np.arange(g.order)
    assert (g.table[x, g.inverse] == g.identity).all()
    assert (g.table[g.inverse, x] == g.identity).all()


@pytest.mark.parametrize("g, longest", zip(_groups(), [0, 5, 3, 4, 10]), ids=GROUP_IDS)
def test_generators_are_greedy_and_reach_the_group(g, longest):
    assert g.generators == _loop_generators(g.table)
    assert len(g.generators) <= np.log2(g.order)
    lengths = _word_lengths(g.table, g.identity, g.generators)
    assert len(lengths) == g.order and max(lengths.values()) == longest


@pytest.mark.parametrize("g", _groups(), ids=GROUP_IDS)
def test_regular_representation_matches_the_double_loop(g):
    images = []
    for a in range(g.order):
        w = np.zeros((g.order, g.order), dtype=complex)
        for b in range(g.order):
            w[g.mul(a, b), b] = 1.0
        images.append(w)
    got = sym.left_regular_representation(g).images
    assert len(got) == len(images)
    for w_got, w_loop in zip(got, images):
        np.testing.assert_array_equal(w_got, w_loop)


def test_projective_rep_rejected():
    # order-4 group (Z2 x Z2) represented by Paulis is projective, not linear
    g = sym.FiniteGroup(np.array([[0, 1, 2, 3], [1, 0, 3, 2], [2, 3, 0, 1], [3, 2, 1, 0]]))
    pauli = [np.eye(2, dtype=complex), SX, 1j * SX @ SZ, SZ]
    with pytest.raises(la.DomainError, match="projective"):
        sym.FiniteGroupRep(g, pauli)


def _first_homomorphism_failure(table, images, tol=la.STRUCT_TOL):
    """Double-loop oracle: the first failing (x, y) in row-major order and
    whether it is a cocycle phase."""
    d = images[0].shape[0]
    for x, y in itertools.product(range(len(images)), repeat=2):
        lhs, rhs = images[x] @ images[y], images[table[x, y]]
        if la.max_norm(lhs - rhs) > tol:
            phase = np.trace(rhs.conj().T @ lhs) / d
            return x, y, abs(abs(phase) - 1.0) < 1e-6 and la.max_norm(lhs - phase * rhs) < tol
    return None


@pytest.mark.parametrize("build", [lambda: sym.standard_representation(4),
                                   lambda: sym.left_regular_representation(
                                       sym.FiniteGroup.symmetric(4))],
                         ids=["standard", "regular"])
def test_every_single_image_corruption_of_s4_is_refused(build, rng):
    # only the identity's and the generators' rows are checked, yet every image
    # is compared as some y; with the identity 0 and the first generator 1 the
    # first failure is the one the double loop finds first
    good = build()
    n, table = good.group.order, good.group.table
    for k in range(n):
        for wrong in (good.images[(k + 1) % n], -good.images[k],
                      la.random_unitary(good.dim, rng)):
            images = list(good.images)
            images[k] = wrong
            x, y, projective = _first_homomorphism_failure(table, images)
            kind = "projective representation" if projective else "violate the homomorphism law"
            with pytest.raises(la.DomainError, match=rf"{kind}.* at \({x},{y}\)"):
                sym.FiniteGroupRep(good.group, images)


@pytest.mark.parametrize("corrupt", ["random", "sign"])
def test_corrupted_s5_image_reports_first_failing_pair(corrupt, rng):
    good = sym.standard_representation(5)
    images = list(good.images)
    k = 37
    images[k] = la.random_unitary(4, rng) if corrupt == "random" else -images[k]
    x, y, projective = _first_homomorphism_failure(good.group.table, images)
    assert projective == (corrupt == "sign")
    kind = "projective representation" if projective else "violate the homomorphism law"
    with pytest.raises(la.DomainError, match=rf"{kind}.* at \({x},{y}\)"):
        sym.FiniteGroupRep(good.group, images)


@pytest.mark.parametrize("fault", ["scaled", "nan"])
def test_non_unitary_image_is_refused_at_its_index(fault):
    # the stacked unitarity check names the first failing image with the
    # message of the per-image check; a NaN is refused before any product
    good = sym.standard_representation(5)
    images = list(good.images)
    for k in (17, 40):
        images[k] = 1.01 * images[k]
    if fault == "nan":
        images[17] = images[17].copy()
        images[17][0, 1] = np.nan
    with pytest.raises(la.DomainError) as oracle:
        la.require_unitary(images[17])
    want = str(oracle.value) if fault == "nan" else f"image 17: {oracle.value}"
    with pytest.raises(la.DomainError, match=re.escape(want)):
        sym.FiniteGroupRep(good.group, images)


def test_s3_standard_rep_is_valid():
    g = sym.FiniteGroup.symmetric(3)
    rep = sym.FiniteGroupRep(g, s3_standard_images())
    assert rep.dim == 2

