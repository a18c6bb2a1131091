"""Acceptance suite: every criterion at its stated tolerance.

Each test prints one PASS/FAIL line (run pytest with -s to see them all) and
enforces the stated runtime budget where one exists.
"""

import time

import numpy as np

from covcat import linalg as la
from covcat import symmetry as sym
from covcat.catalysis import (
    correlation_balance,
    find_intertwiner,
    generate_admissible_scenario,
    rank_condition_counterexample,
    regular_rep_channel,
    state_swap_channel,
    verify_scenario,
)
from covcat.channels import Channel, is_covariant
from covcat.diamond import diamond_distance, unitary_diamond_distance
from covcat.refframe import catalytic_channel, phase_reference_scenario
from covcat.words import (
    find_simultaneous_unitary,
    fractional_word_trace,
    parse_word,
    wiegmann_equivalent,
    word_trace,
)

from conftest import random_channel, s3_standard_images


def _verdict(num: int, description: str, ok: bool, elapsed: float) -> None:
    print(f"{'PASS' if ok else 'FAIL'}  criterion {num}: {description} "
          f"[{elapsed:.1f}s]")
    assert ok, f"criterion {num} failed: {description}"


def _normalized_psd(d, rng, rank=None):
    rank = rank if rank is not None else d
    g = rng.standard_normal((d, rank)) + 1j * rng.standard_normal((d, rank))
    m = g @ g.conj().T
    return m / np.linalg.eigvalsh(m)[-1]


def test_criterion_1_counterexample_fixture():
    start = time.monotonic()
    fx = rank_condition_counterexample()
    ok = abs(fx.gap - 2 * np.sqrt(3)) <= 1e-9

    verdict = wiegmann_equivalent(list(fx.a), list(fx.b))
    ok &= verdict.verdict == "distinguished" and str(verdict.witness) == "x0 x1 x2"

    for i, j in ((0, 1), (1, 2), (2, 0)):
        match = find_simultaneous_unitary([fx.a[i], fx.a[j]], [fx.b[i], fx.b[j]])
        ok &= match.success and match.residual < 1e-6

    big = find_simultaneous_unitary(list(fx.tensored_a()), list(fx.tensored_b()))
    ok &= big.success and big.residual < 1e-6

    elapsed = time.monotonic() - start
    ok &= elapsed < 30.0
    _verdict(1, "3x3 counterexample: gap 2*sqrt(3), pairwise solvable, "
                "triple distinguished, 9x9 solvable", ok, elapsed)


def test_criterion_2_intertwiner_suite():
    start = time.monotonic()
    configs = [(d_s, d_c, m) for d_s in (2, 3) for d_c in (2, 3, 4) for m in (1, 2)]
    passed = 0
    for seed in range(100):
        d_s, d_c, m = configs[seed % len(configs)]
        sc = generate_admissible_scenario(d_s, d_c, m, seed=seed,
                                          singular_states=seed % 5 == 0)
        report = verify_scenario(sc)
        if not (report.admissible and report.state_residual <= 1e-10
                and max(report.generator_residuals) <= 1e-10):
            continue
        result = find_intertwiner(sc, seed=seed)
        if result.success and result.state_residual <= 1e-7 \
                and result.intertwining_residual <= 1e-7:
            passed += 1
    elapsed = time.monotonic() - start
    ok = passed == 100 and elapsed < 300.0
    _verdict(2, f"intertwiner found in {passed}/100 seeded scenarios "
                "(residuals <= 1e-10 / 1e-7)", ok, elapsed)


def test_criterion_3_fractional_word_properties():
    start = time.monotonic()
    rng = np.random.default_rng(33)
    ok = True

    # factorization over tensor products, 200 random product tuples
    for _ in range(200):
        n_vars = int(rng.integers(2, 4))
        da, dc = int(rng.integers(2, 4)), int(rng.integers(2, 4))
        a = [_normalized_psd(da, rng) for _ in range(n_vars)]
        c = [_normalized_psd(dc, rng) for _ in range(n_vars)]
        prod = [la.tensor(ai, ci) for ai, ci in zip(a, c)]
        length = int(rng.integers(1, 5))
        letters, last = [], -1
        for _ in range(length):
            var = int(rng.integers(n_vars))
            if var == last:
                var = (var + 1) % n_vars
            letters.append(f"x{var}^{int(rng.integers(1, 4))}")
            last = var
        word = parse_word(" ".join(letters), n_vars)
        s = rng.uniform(0.1, 2.5, size=word.length)
        lhs = fractional_word_trace(word, s, prod)
        rhs = fractional_word_trace(word, s, a) * fractional_word_trace(word, s, c)
        ok &= abs(lhs - rhs) <= 1e-9

    # all-zero exponents: rank of the leading matrix vs full dimension
    for _ in range(40):
        d = int(rng.integers(2, 5))
        r = int(rng.integers(1, d + 1))
        a0 = _normalized_psd(d, rng, rank=r)
        rest = [_normalized_psd(d, rng) for _ in range(2)]
        w_in = parse_word("x0 x1 x2 x0", 3)
        val = fractional_word_trace(w_in, [0.0] * 4, [a0] + rest)
        ok &= abs(val - round(val.real)) <= 1e-8 and round(val.real) == r
        w_out = parse_word("x1 x2", 3)
        val2 = fractional_word_trace(w_out, [0.0] * 2, [a0] + rest)
        ok &= abs(val2 - round(val2.real)) <= 1e-8 and round(val2.real) == d

    # integer points reproduce plain word traces
    for _ in range(60):
        d = int(rng.integers(2, 5))
        mats = [_normalized_psd(d, rng) for _ in range(2)]
        word = parse_word("x0^2 x1 x0 x1^3", 2)
        s_int = [float(e) for _, e in word.letters]
        ok &= abs(fractional_word_trace(word, s_int, mats)
                  - word_trace(word, mats)) <= 1e-9

    _verdict(3, "fractional word traces: factorization, zero-exponent rank "
                "law, integer consistency", ok, time.monotonic() - start)


def test_criterion_4_back_action_suite():
    start = time.monotonic()
    ok = True
    eps_values = []
    for n in (2, 4, 8, 16):
        sc = phase_reference_scenario(n, np.pi / 2)
        _, report = catalytic_channel(sc)
        eps_values.append(report.epsilon)
        ok &= report.epsilon_result.status == "converged"
        ok &= report.outcome == "passed"
        ok &= report.worst_distance <= report.bound + 1e-5
        ok &= report.min_fidelity >= 1 - report.epsilon - 1e-6
        root = np.sqrt(2 * report.epsilon)
        ok &= report.worst_output_drift_distance <= root + 1e-6
        ok &= report.recovery_pullback_distance <= root + 1e-6
    ok &= all(eps_values[i + 1] <= eps_values[i] + 1e-9
              for i in range(len(eps_values) - 1))
    elapsed = time.monotonic() - start
    ok &= elapsed < 600.0
    _verdict(4, "phase-reference back-action bound at N in {2,4,8,16}, "
                "100 states each, epsilon non-increasing", ok, elapsed)


def test_criterion_5_diamond_oracle_agreement():
    start = time.monotonic()
    rng = np.random.default_rng(55)
    ok = True
    for d in (2, 3):
        for _ in range(10):
            u, v = la.random_unitary(d, rng), la.random_unitary(d, rng)
            res = diamond_distance(Channel.from_unitary(u), Channel.from_unitary(v))
            ok &= res.status == "converged"
            ok &= abs(res.value - unitary_diamond_distance(u, v)) <= 5e-6
    same = random_channel(3, 2, rng)
    ok &= diamond_distance(same, same).value <= 1e-8
    _verdict(5, "semidefinite solver agrees with the unitary convex-hull "
                "oracle on 20 pairs (<= 5e-6)", ok, time.monotonic() - start)


def test_criterion_6_finite_group_constructions():
    start = time.monotonic()
    rng = np.random.default_rng(66)
    ok = True
    cases = [
        (sym.FiniteGroup.cyclic(2),
         [np.eye(2, dtype=complex), np.diag([1.0, -1.0]).astype(complex)]),
        (sym.FiniteGroup.symmetric(3), s3_standard_images()),
    ]
    for group, images in cases:
        rep_s = sym.FiniteGroupRep(group, images)
        comp = sym.tensor_rep(rep_s, sym.left_regular_representation(group))
        pointer = np.zeros((group.order, group.order), dtype=complex)
        pointer[group.identity, group.identity] = 1.0
        for _ in range(20):
            target = random_channel(rep_s.dim, 2, rng)
            lifted = regular_rep_channel(rep_s, target)
            rho = la.random_density(rep_s.dim, rng)
            defect = la.max_norm(lifted.apply(la.tensor(rho, pointer))
                                 - la.tensor(target.apply(rho), pointer))
            ok &= defect <= 1e-10
            ok &= is_covariant(lifted, comp, comp, tol=1e-9).covariant
        rho, sigma = la.random_density(rep_s.dim, rng), la.random_density(rep_s.dim, rng)
        x = group.order - 1
        swap = state_swap_channel(rep_s, rho, sigma, x=x)
        ptr_x = np.zeros((group.order, group.order), dtype=complex)
        ptr_x[x, x] = 1.0
        ok &= la.max_norm(swap.apply(la.tensor(rho, ptr_x))
                          - la.tensor(sigma, ptr_x)) <= 1e-10
    _verdict(6, "regular-representation lift and pointer state swap for Z2 "
                "and S3 (20 targets each)", ok, time.monotonic() - start)


def test_criterion_7_correlation_balance():
    start = time.monotonic()
    rng = np.random.default_rng(77)
    ok = True

    # controlled-shift unitaries with maximally mixed catalyst: marginal
    # preserved, correlations created, identity I = Delta H at 1e-8
    for d_se, d_c in ((2, 2), (2, 3), (3, 2)):
        shift = np.zeros((d_c, d_c), dtype=complex)
        for y in range(d_c):
            shift[(y + 1) % d_c, y] = 1.0
        u = np.zeros((d_se * d_c, d_se * d_c), dtype=complex)
        for k in range(d_se):
            sel = np.zeros((d_se, d_se), dtype=complex)
            sel[k, k] = 1.0
            u += la.tensor(sel, np.linalg.matrix_power(shift, k))
        rho_se = la.random_pure_state(d_se, rng)
        report = correlation_balance(u, rho_se, np.eye(d_c) / d_c)
        ok &= report.catalyst_preserved
        ok &= report.identity_residual <= 1e-8
        ok &= report.rank_after >= report.rank_before

    # every admissible scenario: no correlations, no entropy change
    for seed in range(100):
        sc = generate_admissible_scenario(2 + seed % 2, 2 + seed % 3, 1 + seed % 2,
                                          seed=seed)
        report = correlation_balance(sc.unitary, sc.rho_s, sc.sigma_c)
        ok &= report.catalyst_preserved
        ok &= abs(report.mutual_information) <= 1e-9
        ok &= abs(report.entropy_change) <= 1e-9
        ok &= report.rank_after >= report.rank_before
    _verdict(7, "mutual information equals entropy change when the catalyst "
                "returns; zero on product-preserving scenarios",
             ok, time.monotonic() - start)


def test_criterion_8_metric_properties():
    start = time.monotonic()
    rng = np.random.default_rng(88)
    ok = True
    for _ in range(500):
        d = int(rng.integers(2, 5))
        rho, sigma = la.random_density(d, rng), la.random_density(d, rng)
        fid = la.fidelity(rho, sigma)
        ok &= la.trace_distance(rho, sigma) <= np.sqrt(max(0.0, 1 - fid * fid)) + 1e-10
    for _ in range(50):
        rho, sigma = la.random_density(6, rng), la.random_density(6, rng)
        ok &= la.fidelity(rho, sigma) <= la.fidelity(
            la.partial_trace(rho, [2, 3], [0]), la.partial_trace(sigma, [2, 3], [0])) + 1e-10
    for _ in range(50):
        d = int(rng.integers(2, 4))
        channel = random_channel(d, int(rng.integers(1, 4)), rng)
        rho, sigma = la.random_density(d, rng), la.random_density(d, rng)
        ok &= la.trace_distance(channel.apply(rho), channel.apply(sigma)) \
            <= la.trace_distance(rho, sigma) + 1e-10
    _verdict(8, "500 state pairs: Fuchs-van de Graaf, fidelity monotonicity, "
                "trace-distance data processing under 50 channels",
             ok, time.monotonic() - start)
