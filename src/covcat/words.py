"""Words in non-commuting matrix variables and trace-fingerprint equivalence.

A word is a monomial ``x_{i1}^{n1} x_{i2}^{n2} ...`` in m+1 non-commuting
variables. Its canonical form merges adjacent letters with equal variable
index by adding exponents; letters with exponent zero are kept, because under
the 0**0 = 0 functional-calculus convention ``A^0`` is the support projector
of A, not the identity, so ``x^0`` carries information for singular matrices.

Two Hermitian tuples are simultaneously unitarily equivalent exactly when
all word traces agree (Specht's criterion; Wiegmann for tuples): each entry
equals its adjoint, so words in the entries themselves suffice. Traces are
linear, so only words that enlarge the span of the word pairs
(W(A), W(B)) in C^(2 d^2) need checking, and that span has at most 2 d^2
dimensions. `wiegmann_equivalent` walks exactly those words on the tuples
normalised to norm 1: a trace mismatch is a conclusive witness, and an
exhausted walk is ``equivalent``, certified by the unitary of
`find_simultaneous_unitary`. Fractional and zeroth powers additionally
require positive semi-definite entries.

`find_simultaneous_unitary` decides the same question by linear algebra,
under a stated rank threshold, and constructs the unitary.
"""

from __future__ import annotations

import re
from collections import deque
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .linalg import (
    DimensionError,
    DomainError,
    hermitian_power,
    max_norm,
    require_hermitian,
    support_projector,
)
from .serialize import matrix_to_json


class WordSyntaxError(ValueError):
    """Malformed word text."""


@dataclass(frozen=True)
class Word:
    """Canonical word: letters are (variable index, non-negative exponent) pairs."""

    letters: tuple[tuple[int, int], ...]
    num_variables: int

    def __post_init__(self):
        if self.num_variables <= 0:
            raise ValueError("a word needs at least one variable")
        for idx, (var, exp) in enumerate(self.letters):
            if not (0 <= var < self.num_variables):
                raise ValueError(f"letter {idx}: variable x{var} out of range "
                                 f"(have {self.num_variables} variables)")
            if exp < 0:
                raise ValueError(f"letter {idx}: negative exponent {exp}")
            if idx > 0 and self.letters[idx - 1][0] == var:
                raise ValueError(f"letter {idx}: adjacent letters share variable x{var}; "
                                 "use Word.from_letters for canonicalization")

    @classmethod
    def from_letters(cls, letters: Sequence[tuple[int, int]], num_variables: int) -> "Word":
        merged: list[list[int]] = []
        for var, exp in letters:
            if merged and merged[-1][0] == int(var):
                merged[-1][1] += int(exp)
            else:
                merged.append([int(var), int(exp)])
        return cls(tuple((v, e) for v, e in merged), num_variables)

    @property
    def length(self) -> int:
        return len(self.letters)

    @property
    def participating(self) -> frozenset[int]:
        return frozenset(var for var, _ in self.letters)

    def __str__(self) -> str:
        parts = []
        for var, exp in self.letters:
            parts.append(f"x{var}" if exp == 1 else f"x{var}^{exp}")
        return " ".join(parts)


_TERM_RE = re.compile(r"^x(\d+)(?:\^(\d+))?$")


def parse_word(text: str, num_variables: int) -> Word:
    """Parse ``"x0^2 x1^3 x0^4"`` style text into a canonical word.

    Terms are whitespace separated; an omitted exponent means 1. Adjacent
    terms with the same variable merge by adding exponents.
    """
    tokens = text.split()
    if not tokens:
        raise WordSyntaxError("empty word")
    letters = []
    for tok in tokens:
        m = _TERM_RE.match(tok)
        if m is None:
            raise WordSyntaxError(f"malformed term {tok!r} (expected e.g. 'x0' or 'x1^3')")
        var = int(m.group(1))
        if var >= num_variables:
            raise WordSyntaxError(f"variable x{var} out of range: only {num_variables} variables")
        exp = int(m.group(2)) if m.group(2) is not None else 1
        letters.append((var, exp))
    return Word.from_letters(letters, num_variables)


# ---------------------------------------------------------------------------
# evaluation
# ---------------------------------------------------------------------------

PSD_TOL = 1e-10  # most negative eigenvalue a zeroth or real power accepts


def _check_tuple(word: Word, matrices: Sequence[np.ndarray],
                 psd_vars: frozenset[int]) -> list[np.ndarray]:
    if len(matrices) != word.num_variables:
        raise DimensionError(f"word has {word.num_variables} variables, tuple has {len(matrices)}")
    mats = [require_hermitian(m) for m in matrices]
    d = mats[0].shape[0]
    for i, m in enumerate(mats):
        if m.shape[0] != d:
            raise DimensionError("tuple matrices have mixed dimensions")
        if i in psd_vars:
            low = np.linalg.eigvalsh(m)[0]
            if low < -PSD_TOL:
                raise DomainError(
                    f"variable x{i} has eigenvalue {low:.3e}: real or zeroth powers "
                    "need a positive semi-definite matrix")
    return mats


def word_trace(word: Word, matrices: Sequence[np.ndarray]) -> complex:
    """Trace of the word evaluated on a Hermitian tuple with integer powers.

    An exponent of zero contributes the support projector of its matrix and
    is only defined for PSD entries (the 0**0 = 0 convention); strictly
    positive exponents work for any Hermitian tuple.
    """
    psd_vars = frozenset(var for var, exp in word.letters if exp == 0)
    mats = _check_tuple(word, matrices, psd_vars)
    d = mats[0].shape[0]
    acc = np.eye(d, dtype=complex)
    for var, exp in word.letters:
        if exp == 0:
            acc = acc @ support_projector(mats[var])
        else:
            acc = acc @ np.linalg.matrix_power(mats[var], exp)
    return complex(np.trace(acc))


def fractional_word_trace(word: Word, exponents: Sequence[float],
                          matrices: Sequence[np.ndarray]) -> complex:
    """Word trace with each letter's exponent replaced by a real number.

    Matrix powers use PSD functional calculus with 0**s = 0, so the all-zero
    exponent vector yields the product of support projectors; at the word's
    own integer exponents this reproduces `word_trace`. Participating
    variables must be PSD for real powers to make sense.
    """
    mats = _check_tuple(word, matrices, word.participating)
    s = [float(x) for x in exponents]
    if len(s) != word.length:
        raise DimensionError(f"word length {word.length} != exponent vector length {len(s)}")
    if not all(np.isfinite(s)):
        raise DomainError("exponents must be finite")
    d = mats[0].shape[0]
    acc = np.eye(d, dtype=complex)
    for (var, _), sj in zip(word.letters, s):
        acc = acc @ hermitian_power(mats[var], sj)
    return complex(np.trace(acc))


# ---------------------------------------------------------------------------
# exact trace-fingerprint decision
# ---------------------------------------------------------------------------

# A word's stacked pair [vec W(A), vec W(B)] enlarges the span when its part
# orthogonal to the basis has Frobenius norm above SPAN_TOL. The tuples are
# normalised first, so every word pair has Frobenius norm at most sqrt(2 d)
# and the threshold needs no further scale.
SPAN_TOL = 1e-9


@dataclass(frozen=True)
class EquivalenceVerdict:
    """Outcome of the span walk over word traces.

    ``distinguished`` (conclusive) names the first word, in length-lex order,
    whose traces differ; ``trace_a`` and ``trace_b`` are those of the
    normalised tuples, so the raw traces are these times the product of
    ``scale[var] ** exp`` over the word's letters. ``equivalent`` carries the
    unitary of `find_simultaneous_unitary` as ``certificate``.
    ``inconclusive`` means a non-finite scale or trace, or a certificate the
    solver could not give. ``span`` is the number of basis words.
    """

    verdict: str
    witness: Word | None
    trace_a: complex | None
    trace_b: complex | None
    words_checked: int
    span: int
    scale: tuple[float, ...]
    certificate: UnitaryMatchResult | None

    @property
    def outcome(self) -> str:
        """``"inconclusive"`` with the verdict, else ``"passed"``: either decision passes."""
        return "inconclusive" if self.verdict == "inconclusive" else "passed"

    def to_json(self) -> dict:
        out = {"verdict": self.verdict, "words_checked": self.words_checked,
               "span": self.span,
               "scale": [s if np.isfinite(s) else None for s in self.scale]}
        if self.witness is not None:
            out["word"] = str(self.witness)
        if self.trace_a is not None:
            out["trace_a"] = [self.trace_a.real, self.trace_a.imag]
            out["trace_b"] = [self.trace_b.real, self.trace_b.imag]
        if self.certificate is not None:
            out["certificate"] = self.certificate.to_json()
        return out


def _hermitian_pair(tuple_a, tuple_b) -> tuple[list[np.ndarray], list[np.ndarray]]:
    if len(tuple_a) != len(tuple_b) or not tuple_a:
        raise DimensionError("tuples must be non-empty and of equal length")
    mats_a = [require_hermitian(m) for m in tuple_a]
    mats_b = [require_hermitian(m) for m in tuple_b]
    if any(m.shape != mats_a[0].shape for m in mats_a + mats_b):
        raise DimensionError("all matrices must share one dimension")
    return mats_a, mats_b


def _spectral_norm(m: np.ndarray) -> float:
    return float(np.linalg.norm(m, 2)) if np.isfinite(m).all() else np.inf


def wiegmann_equivalent(tuple_a: Sequence[np.ndarray], tuple_b: Sequence[np.ndarray],
                        seed: int = 0, tol: float = 1e-9) -> EquivalenceVerdict:
    """Decide whether two Hermitian tuples have the same trace for every word.

    Variable i of both tuples is divided by ``s_i = max(||A_i||_2, ||B_i||_2)``
    (1 for two zero matrices). That preserves equivalence and bounds every
    word by norm 1, so no trace overflows and ``tol * d`` is an absolute
    tolerance on the traces. Words in single letters are walked
    breadth-first in length-lex order from the empty word, which starts the
    basis of the span of word pairs in C^(2 d^2). Each extension's traces are
    compared; the first pair differing by more than the tolerance is the
    ``distinguished`` witness, and it is also the first mismatch of the full
    length-lex enumeration, because a word in the span of earlier words has a
    trace difference combined from theirs. Only words that enlarge the span
    (by more than `SPAN_TOL`) are extended, so the walk ends after at most
    ``2 d^2`` basis words. Exhausting it proves equal traces for all words,
    hence unitary equivalence (Specht's criterion); the verdict is then
    ``equivalent`` if `find_simultaneous_unitary` on the normalised tuples,
    with ``seed``, supplies the unitary, and ``inconclusive`` otherwise. A non-finite
    ``s_i`` or trace is ``inconclusive`` as well.
    """
    with np.errstate(over="ignore", invalid="ignore"):  # huge entries give a non-finite scale
        mats_a, mats_b = _hermitian_pair(tuple_a, tuple_b)
        scale = tuple(max(_spectral_norm(a), _spectral_norm(b)) or 1.0
                      for a, b in zip(mats_a, mats_b))
    n_vars, d = len(mats_a), mats_a[0].shape[0]
    if not np.isfinite(scale).all():
        return EquivalenceVerdict("inconclusive", None, None, None, 0, 0, scale, None)
    gens = np.array([(a / s, b / s) for a, b, s in zip(mats_a, mats_b, scale)])
    empty = np.array([np.eye(d, dtype=complex)] * 2)
    # rows [:span] hold the orthonormal basis, at most 2 d^2 vectors of C^(2 d^2)
    basis = np.empty((1, 2 * d * d), dtype=complex)
    basis[0] = empty.reshape(-1) / np.sqrt(2 * d)
    span = 1
    queue = deque([((), empty)])
    checked = 0

    def verdict(kind, letters=None, traces=(None, None), certificate=None):
        witness = None if letters is None else Word.from_letters(
            [(var, 1) for var in letters], n_vars)
        return EquivalenceVerdict(kind, witness, *traces, checked, span, scale, certificate)

    while queue:
        letters, pair = queue.popleft()
        for var in range(n_vars):
            word, ext = letters + (var,), pair @ gens[var]
            checked += 1
            ta, tb = (complex(t) for t in np.trace(ext, axis1=1, axis2=2))
            if not (np.isfinite(ta) and np.isfinite(tb)):
                return verdict("inconclusive", word)
            if abs(ta - tb) > tol * d:
                return verdict("distinguished", word, (ta, tb))
            r, filled = ext.reshape(-1), basis[:span]
            for _ in range(2):
                r = r - (filled @ r.conj()).conj() @ filled
            norm = np.linalg.norm(r)
            if norm > SPAN_TOL:
                if span == len(basis):  # the new rows stay untouched until written
                    basis, full = np.empty((2 * span, 2 * d * d), dtype=complex), basis
                    basis[:span] = full
                basis[span] = r / norm
                span += 1
                queue.append((word, ext))
    match = find_simultaneous_unitary(list(gens[:, 0]), list(gens[:, 1]), seed=seed)
    return verdict("equivalent" if match.success else "inconclusive", certificate=match)


# ---------------------------------------------------------------------------
# exact simultaneous unitary equivalence
# ---------------------------------------------------------------------------

# Thresholds relative to d * max_i ||A_i||_2 over both tuples. A singular value
# of the constraint matrix at most RANK_TOL counts as zero. Eigenvalues closer
# than CLUSTER_TOL share a block, and only a defect above CLUSTER_TOL refutes
# equivalence: a singular value between the two makes the verdict inconclusive.
RANK_TOL = 1e-9
CLUSTER_TOL = 1e-6


@dataclass(frozen=True)
class UnitaryMatchResult:
    """``verdict``: "equivalent" (``unitary`` has max-norm ``residual <= tol``),
    "inequivalent" (conclusive) or "inconclusive". ``nullity`` is the dimension
    of the intertwiner space; ``gap`` is (largest singular value counted as
    zero, smallest counted as non-zero) relative to the scale above, None
    where that side is empty. When the Frobenius bound of
    `find_simultaneous_unitary` decides, no singular value is computed and
    ``gap[0]`` is that bound, which is at least the largest one. ``unitary``
    is the polar factor of the generic intertwiner, None when the space is
    empty."""

    verdict: str
    unitary: np.ndarray | None
    residual: float | None
    nullity: int
    gap: tuple[float | None, float | None]

    @property
    def success(self) -> bool:
        return self.verdict == "equivalent"

    def to_json(self) -> dict:
        out = {"success": self.success, "verdict": self.verdict, "residual": self.residual,
               "nullity": self.nullity, "gap": list(self.gap)}
        if self.unitary is not None:
            out["unitary"] = matrix_to_json(self.unitary)
        return out


def conjugation_residual(u: np.ndarray, tuple_a, tuple_b) -> float:
    return max(max_norm(u @ a @ u.conj().T - b) for a, b in zip(tuple_a, tuple_b))


def _constraint_norm(rep_a: np.ndarray, rep_b: np.ndarray,
                     rows: np.ndarray, cols: np.ndarray) -> float:
    """Frobenius norm of the constraint matrix whose column j stacks
    ``E_j A_i - B_i E_j`` over i, for E_j the unit matrix at (rows[j], cols[j]),
    without building it. That column holds row cols[j] of each A_i in row
    rows[j], column rows[j] of each B_i in column cols[j], and their shared
    entry ``A_i[cols[j], cols[j]] - B_i[rows[j], rows[j]]``."""
    j = np.arange(len(rows))
    a_sq, b_sq = np.abs(rep_a[:, cols]) ** 2, np.abs(rep_b[:, :, rows]) ** 2
    a_sq[:, j, cols] = b_sq[:, rows, j] = 0.0  # counted once, in the shared entry
    shared = rep_a[:, cols, cols] - rep_b[:, rows, rows]
    return float(np.sqrt(a_sq.sum() + b_sq.sum() + (np.abs(shared) ** 2).sum()))


def find_simultaneous_unitary(tuple_a: Sequence[np.ndarray], tuple_b: Sequence[np.ndarray],
                              seed: int = 0, tol: float = 1e-8) -> UnitaryMatchResult:
    """Decide whether a unitary U with ``U A_i U^dag = B_i`` exists for
    Hermitian tuples, and construct one when it does.

    They are equivalent exactly when {X : X A_i = B_i X for all i} holds an
    invertible element. A generic element then is one, and its polar factor
    intertwines exactly because X^dag X commutes with every A_i. Diagonalising
    one seeded random combination of each tuple confines X to blocks between
    equal-eigenvalue clusters, and one SVD of the stacked block constraints
    gives the nullspace; an empty one or a singular generic element is a
    conclusive inequivalence. Generic tuples leave d unknowns; the worst case,
    a combination that is a multiple of the identity, leaves all d^2.

    Every singular value is at most the Frobenius norm of the constraint
    matrix C, which costs O(k n d) for n unknowns. When ``||C||_F``, taken on
    the tuples divided by the scale of the thresholds below (so no entry is
    squared unscaled), is at most `RANK_TOL`, as for
    tuples of commuting matrices, every singular value counts as zero: the
    nullity is n, the QR and SVD are skipped, and ``gap[0]`` is that bound.
    """
    mats_a, mats_b = map(np.array, _hermitian_pair(tuple_a, tuple_b))
    d = mats_a.shape[1]
    unit = d * max(np.linalg.norm(m, 2) for m in (*mats_a, *mats_b)) or 1.0
    rng = np.random.default_rng(seed)
    coeff = rng.standard_normal(len(mats_a))
    coeff /= np.abs(coeff).sum()
    (wa, qa), (wb, qb) = (np.linalg.eigh(np.tensordot(coeff, m, axes=1)) for m in (mats_a, mats_b))
    # cluster both spectra together, cutting only at clear gaps: merging two
    # clusters is always safe, splitting a true one is not. X may map an
    # eigenvector of A only onto eigenvectors of B in the same cluster, so
    # differing spectra leave every generic X singular.
    w = np.concatenate([wa, wb])
    order = np.argsort(w)
    label = np.cumsum(np.r_[0, np.diff(w[order]) > CLUSTER_TOL * unit])[np.argsort(order)]
    rows, cols = np.nonzero(label[d:, None] == label[:d])  # the unknown entries of X
    n = len(rows)
    if not n:  # no eigenvalue of the combination for A matches one for B
        return UnitaryMatchResult("inequivalent", None, None, 0, (None, None))
    rep_a, rep_b = qa.conj().T @ mats_a @ qa, qb.conj().T @ mats_b @ qb
    bound = _constraint_norm(rep_a / unit, rep_b / unit, rows, cols)
    if bound <= RANK_TOL:  # sigma_max <= ||C||_F: the identity is a nullspace basis
        nullity, gap, null = n, (bound, None), None
    else:
        # Column j of the constraint matrix stacks E A'_i - B'_i E over i, for E
        # the unit matrix at (rows[j], cols[j]). Its rows are folded, about n at
        # a time, into the triangular factor of a QR, which has the same singular
        # values and right singular vectors: memory stays O(n^2), not O(k d^2 n).
        e_rows, e_cols, a_rows = np.eye(d)[:, rows], np.eye(d)[:, cols], rep_a[:, cols]
        r = np.zeros((0, n), dtype=complex)
        step = max(1, n // d)
        for lo in range(0, d, step):
            block = (np.einsum("an,inb->iabn", e_rows[lo:lo + step], a_rows)
                     - np.einsum("ian,bn->iabn", rep_b[:, lo:lo + step][..., rows], e_cols))
            r = np.linalg.qr(np.vstack([r, block.reshape(-1, n)]), mode="r")
        _, sv, vh = np.linalg.svd(r)
        sv /= unit
        nullity = int(np.count_nonzero(sv <= RANK_TOL))
        gap = (float(sv[-nullity]) if nullity else None,
               float(sv[-nullity - 1]) if nullity < len(sv) else None)
        null = vh[len(sv) - nullity:].conj()
    clear = gap[1] is None or gap[1] > CLUSTER_TOL
    if nullity == 0:
        return UnitaryMatchResult("inequivalent" if clear else "inconclusive", None, None, 0, gap)

    weights = rng.standard_normal(nullity) + 1j * rng.standard_normal(nullity)
    x = np.zeros((d, d), dtype=complex)
    x[rows, cols] = weights if null is None else weights @ null
    left, sx, right = np.linalg.svd(x)
    u = qb @ left @ right @ qa.conj().T
    res = conjugation_residual(u, mats_a, mats_b)
    singular = clear and sx[-1] <= RANK_TOL * d * sx[0]
    verdict = "equivalent" if res <= tol else "inequivalent" if singular else "inconclusive"
    return UnitaryMatchResult(verdict, u, res, nullity, gap)
