"""Words in non-commuting matrix variables and trace-fingerprint equivalence.

A word is a monomial ``x_{i1}^{n1} x_{i2}^{n2} ...`` in m+1 non-commuting
variables. Its canonical form merges adjacent letters with equal variable
index by adding exponents; letters with exponent zero are kept, because under
the 0**0 = 0 functional-calculus convention ``A^0`` is the support projector
of A, not the identity, so ``x^0`` carries information for singular matrices.

Two tuples of matrices are simultaneously unitarily equivalent exactly when
all word traces agree (the Specht/Wiegmann trace criterion; for Hermitian
tuples, words in the entries themselves suffice because each entry equals its
adjoint). Enumerating all words is impossible, so `wiegmann_equivalent`
checks a bounded family plus random long words: a trace mismatch refutes
equivalence conclusively, while agreement is reported as evidence
("equivalent up to the bound"), not proof, and a non-finite trace makes the
verdict inconclusive. Fractional and zeroth powers additionally require
positive semi-definite entries.

For Hermitian tuples `find_simultaneous_unitary` instead decides equivalence
exactly, by linear algebra under a stated rank threshold.
"""

from __future__ import annotations

import itertools
import re
from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from .linalg import (
    DimensionError,
    DomainError,
    hermitian_power,
    max_norm,
    require_hermitian,
    support_projector,
)


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

def _check_tuple(word: Word, matrices: Sequence[np.ndarray],
                 psd_vars: frozenset[int], psd_tol: float) -> list[np.ndarray]:
    if len(matrices) != word.num_variables:
        raise DimensionError(f"word has {word.num_variables} variables, tuple has {len(matrices)}")
    mats = [require_hermitian(m) for m in matrices]
    d = mats[0].shape[0]
    for i, m in enumerate(mats):
        if m.shape[0] != d:
            raise DimensionError("tuple matrices have mixed dimensions")
        if i in psd_vars:
            low = np.linalg.eigvalsh(m)[0]
            if low < -psd_tol:
                raise DomainError(
                    f"variable x{i} has eigenvalue {low:.3e}: real or zeroth powers "
                    "need a positive semi-definite matrix")
    return mats


def word_trace(word: Word, matrices: Sequence[np.ndarray], psd_tol: float = 1e-10) -> complex:
    """Trace of the word evaluated on a Hermitian tuple with integer powers.

    An exponent of zero contributes the support projector of its matrix and
    is only defined for PSD entries (the 0**0 = 0 convention); strictly
    positive exponents work for any Hermitian tuple.
    """
    psd_vars = frozenset(var for var, exp in word.letters if exp == 0)
    mats = _check_tuple(word, matrices, psd_vars, psd_tol)
    d = mats[0].shape[0]
    acc = np.eye(d, dtype=complex)
    for var, exp in word.letters:
        if exp == 0:
            acc = acc @ support_projector(mats[var])
        else:
            acc = acc @ np.linalg.matrix_power(mats[var], exp)
    return complex(np.trace(acc))


def fractional_word_trace(word: Word, exponents: Sequence[float],
                          matrices: Sequence[np.ndarray], psd_tol: float = 1e-10) -> complex:
    """Word trace with each letter's exponent replaced by a real number.

    Matrix powers use PSD functional calculus with 0**s = 0, so the all-zero
    exponent vector yields the product of support projectors; at the word's
    own integer exponents this reproduces `word_trace`. Participating
    variables must be PSD for real powers to make sense.
    """
    mats = _check_tuple(word, matrices, word.participating, psd_tol)
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
# bounded word enumeration
# ---------------------------------------------------------------------------

# Largest word family `wiegmann_equivalent` accepts (enumerated plus random
# words). The default 3-tuple family is 84 979 words.
MAX_WORDS = 1_000_000


def enumerate_words(num_variables: int, max_length: int, max_exponent: int) -> Iterator[Word]:
    """All canonical words up to the given length with exponents in 1..max_exponent,
    ordered by length so that short distinguishers are found first."""
    def of_length(prefix: list[tuple[int, int]], remaining: int, last_var: int) -> Iterator[tuple]:
        if remaining == 0:
            yield tuple(prefix)
            return
        for var in range(num_variables):
            if var == last_var:
                continue
            for exp in range(1, max_exponent + 1):
                prefix.append((var, exp))
                yield from of_length(prefix, remaining - 1, var)
                prefix.pop()

    for length in range(1, max_length + 1):
        for letters in of_length([], length, -1):
            yield Word(letters, num_variables)


def _enumerated_count(num_variables: int, max_length: int, max_exponent: int) -> int:
    """Number of words `enumerate_words` yields, counted only until it passes MAX_WORDS.

    Length L contributes ``m E ((m - 1) E)^(L - 1)`` words for m variables
    and exponents up to E.
    """
    total, term = 0, num_variables * max_exponent
    for _ in range(max_length):
        total += term
        term *= (num_variables - 1) * max_exponent
        if total > MAX_WORDS or term == 0:
            break
    return total


def random_word(num_variables: int, length: int, max_exponent: int,
                rng: np.random.Generator) -> Word:
    letters = []
    last = -1
    for _ in range(length):
        if last < 0 or num_variables == 1:
            var = int(rng.integers(num_variables))
        else:
            var = int(rng.integers(num_variables - 1))
            if var >= last:
                var += 1
        letters.append((var, int(rng.integers(1, max_exponent + 1))))
        last = var
    return Word.from_letters(letters, num_variables)


@dataclass(frozen=True)
class EquivalenceConfig:
    max_length: int = 6
    max_exponent: int = 3
    num_random_words: int = 1000
    seed: int = 0
    tol: float = 1e-9

    def to_json(self) -> dict:
        return {"max_length": self.max_length, "max_exponent": self.max_exponent,
                "num_random_words": self.num_random_words, "seed": self.seed,
                "tol": self.tol}


@dataclass(frozen=True)
class EquivalenceVerdict:
    """Outcome of the bounded trace-fingerprint comparison.

    ``distinguished`` verdicts are conclusive non-equivalence; the
    ``equivalent-up-to-bound`` verdict is evidence at the configured
    enumeration depth, not a proof; ``inconclusive`` means that the trace of
    the witness word is not finite.
    """

    verdict: str
    witness: Word | None
    trace_a: complex | None
    trace_b: complex | None
    words_checked: int
    config: EquivalenceConfig

    @property
    def equivalent_up_to_bound(self) -> bool:
        return self.verdict == "equivalent-up-to-bound"

    def to_json(self) -> dict:
        out = {"verdict": self.verdict, "words_checked": self.words_checked,
               "config": self.config.to_json()}
        if self.witness is not None:
            out["word"] = str(self.witness)
        if self.trace_a is not None:
            out["trace_a"] = [self.trace_a.real, self.trace_a.imag]
            out["trace_b"] = [self.trace_b.real, self.trace_b.imag]
        return out


def _hermitian_pair(tuple_a, tuple_b) -> tuple[list[np.ndarray], list[np.ndarray]]:
    if len(tuple_a) != len(tuple_b) or not tuple_a:
        raise DimensionError("tuples must be non-empty and of equal length")
    mats_a = [require_hermitian(m) for m in tuple_a]
    mats_b = [require_hermitian(m) for m in tuple_b]
    if any(m.shape != mats_a[0].shape for m in mats_a + mats_b):
        raise DimensionError("all matrices must share one dimension")
    return mats_a, mats_b


def wiegmann_equivalent(tuple_a: Sequence[np.ndarray], tuple_b: Sequence[np.ndarray],
                        config: EquivalenceConfig = EquivalenceConfig()) -> EquivalenceVerdict:
    """Compare trace fingerprints of two PSD tuples over a bounded word family.

    Enumerates every canonical word up to ``config.max_length`` with
    exponents up to ``config.max_exponent`` and then samples
    ``config.num_random_words`` longer words (lengths up to ``2 d^2``); a
    family of more than ``MAX_WORDS`` words raises `DomainError`. The
    first word whose traces differ by more than ``config.tol`` (scaled by the
    trace magnitude) is returned as a witness; a word with a non-finite trace
    ends the search with an inconclusive verdict.
    """
    mats_a, mats_b = _hermitian_pair(tuple_a, tuple_b)
    n_vars, d = len(mats_a), mats_a[0].shape[0]
    family = (_enumerated_count(n_vars, config.max_length, config.max_exponent)
              + config.num_random_words)
    if family > MAX_WORDS:
        raise DomainError(f"word family has at least {family} words (max_length "
                          f"{config.max_length}, max_exponent {config.max_exponent}, "
                          f"{config.num_random_words} random); at most {MAX_WORDS} are checked")
    rng = np.random.default_rng(config.seed)
    max_len = max(config.max_length + 1, 2 * d * d)
    random_words = (random_word(n_vars, int(rng.integers(config.max_length + 1, max_len + 1)),
                                config.max_exponent, rng) for _ in range(config.num_random_words))
    words = itertools.chain(enumerate_words(n_vars, config.max_length, config.max_exponent),
                            random_words)
    powers: dict = {}  # (var, exp) -> that power of both tuples, reused across words
    checked = 0
    for checked, word in enumerate(words, start=1):
        acc_a = acc_b = np.eye(d, dtype=complex)
        with np.errstate(over="ignore", invalid="ignore"):
            for var, exp in word.letters:
                if (var, exp) not in powers:
                    powers[var, exp] = (np.linalg.matrix_power(mats_a[var], exp),
                                        np.linalg.matrix_power(mats_b[var], exp))
                acc_a, acc_b = acc_a @ powers[var, exp][0], acc_b @ powers[var, exp][1]
            ta, tb = complex(np.trace(acc_a)), complex(np.trace(acc_b))
        if not (np.isfinite(ta) and np.isfinite(tb)):
            return EquivalenceVerdict("inconclusive", word, None, None, checked, config)
        if abs(ta - tb) > config.tol * max(1.0, abs(ta), abs(tb)):
            return EquivalenceVerdict("distinguished", word, ta, tb, checked, config)
    return EquivalenceVerdict("equivalent-up-to-bound", None, None, None, checked, config)


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
    where that side is empty. ``unitary`` is the polar factor of the generic
    intertwiner, None when the space is empty."""

    verdict: str
    unitary: np.ndarray | None
    residual: float | None
    nullity: int
    gap: tuple[float | None, float | None]

    @property
    def success(self) -> bool:
        return self.verdict == "equivalent"

    def to_json(self) -> dict:
        from .serialize import matrix_to_json
        out = {"success": self.success, "verdict": self.verdict, "residual": self.residual,
               "nullity": self.nullity, "gap": list(self.gap)}
        if self.unitary is not None:
            out["unitary"] = matrix_to_json(self.unitary)
        return out


def conjugation_residual(u: np.ndarray, tuple_a, tuple_b) -> float:
    return max(max_norm(u @ a @ u.conj().T - b) for a, b in zip(tuple_a, tuple_b))


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
    # Column j of the constraint matrix stacks E A'_i - B'_i E over i, for E
    # the unit matrix at (rows[j], cols[j]). Its rows are folded, about n at a
    # time, into the triangular factor of a QR, which has the same singular
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
    gap = (float(sv[-1]) if nullity else None,
           float(sv[-nullity - 1]) if nullity < len(sv) else None)
    clear = gap[1] is None or gap[1] > CLUSTER_TOL
    if nullity == 0:
        return UnitaryMatchResult("inequivalent" if clear else "inconclusive", None, None, 0, gap)

    weights = rng.standard_normal(nullity) + 1j * rng.standard_normal(nullity)
    x = np.zeros((d, d), dtype=complex)
    x[rows, cols] = weights @ vh[-nullity:].conj()
    left, sx, right = np.linalg.svd(x)
    u = qb @ left @ right @ qa.conj().T
    res = conjugation_residual(u, mats_a, mats_b)
    singular = clear and sx[-1] <= RANK_TOL * d * sx[0]
    verdict = "equivalent" if res <= tol else "inequivalent" if singular else "inconclusive"
    return UnitaryMatchResult(verdict, u, res, nullity, gap)
