import numpy as np
import pytest

from helpers import (
    random_abi_states, random_bi_states, separable_two_speed_system, three_speed_system,
)
from richwave import (
    AdmissibilityError,
    Family,
    RichSystem,
    augmented_born_infeld,
    born_infeld,
    validate_system,
)


def test_bi_symmetric_state():
    sysm = born_infeld(1.0)
    w = np.array([1.0, -1.0])
    assert sysm.density(w) == 1.0
    assert sysm.flux(w) == 0.0
    assert sysm.eigenvalue(0, w) == -1.0
    assert sysm.eigenvalue(1, w) == 1.0


def test_bi_closed_form_identity():
    sysm = born_infeld(2.0)
    w = np.array([3.0, 1.0])
    assert sysm.density(w) == pytest.approx(2.0)
    assert sysm.flux(w) == pytest.approx(4.0)
    # derived eigenvalues equal the components crosswise
    assert sysm.eigenvalue(0, w) == pytest.approx(1.0, abs=1e-14)
    assert sysm.eigenvalue(1, w) == pytest.approx(3.0, abs=1e-14)


def test_abi_middle_eigenvalue_ignores_passive_component():
    sysm = augmented_born_infeld(1.0)
    w = np.array([2.0, 5.0, 0.0])
    nu = sysm.eigenvalue(1, w)
    assert nu == pytest.approx(1.0, abs=1e-14)
    for q in (-3.0, 0.0, 17.5):
        w2 = np.array([2.0, q, 0.0])
        assert sysm.eigenvalue(1, w2) == pytest.approx(nu, abs=1e-14)


def test_limit_speed_examples():
    bi = born_infeld(1.0)
    assert bi.eigenvalue(0, np.array([1.0, -1.0])) == -1.0
    assert bi.eigenvalue(1, np.array([2.0, 0.0])) == pytest.approx(2.0, abs=1e-14)
    abi = augmented_born_infeld(1.0)
    assert abi.eigenvalue(1, np.array([2.0, 7.0, 0.0])) == pytest.approx(1.0, abs=1e-14)


def test_inadmissible_state_raises_with_predicate():
    sysm = born_infeld(1.0)
    with pytest.raises(AdmissibilityError) as info:
        sysm.eigenvalue(0, np.array([0.0, 1.0]))
    assert "mu > lam" in str(info.value)


def test_parameter_and_structure_validation():
    with pytest.raises(ValueError):
        born_infeld(0.5)
    with pytest.raises(ValueError):
        RichSystem(
            "bad-speeds",
            (Family(1.0, (0,)), Family(0.5, (1,))),
            lambda w: 1.0, lambda w: 0.0, lambda w: np.full(w.shape[:-1], True),
        )
    with pytest.raises(ValueError):
        RichSystem(
            "bad-partition",
            (Family(-1.0, (0,)), Family(1.0, (0,))),
            lambda w: 1.0, lambda w: 0.0, lambda w: np.full(w.shape[:-1], True),
        )


def test_structural_identity_on_random_states():
    rng = np.random.default_rng(0)
    for sysm, states in (
        (born_infeld(1.0), random_bi_states(rng, 2000)),
        (born_infeld(1.7), random_bi_states(rng, 2000)),
        (augmented_born_infeld(1.0), random_abi_states(rng, 2000)),
    ):
        dens = sysm.density(states)
        M = sysm.flux(states)
        for i in range(sysm.n):
            res = np.abs(
                dens * sysm.eigenvalue(i, states) - sysm.lagrangian_speeds[i] - M
            )
            denom = np.maximum(1.0, np.abs(M) + abs(sysm.lagrangian_speeds[i]))
            assert float(np.max(res / denom)) <= 1e-14


def test_bi_eigenvalue_gap_identity():
    # lambda_2 - lambda_1 = mu - lam = 2a / N on every admissible state
    rng = np.random.default_rng(6)
    for a in (1.0, 2.5):
        sysm = born_infeld(a)
        states = random_bi_states(rng, 500)
        gap = sysm.eigenvalue(1, states) - sysm.eigenvalue(0, states)
        want = states[:, 0] - states[:, 1]
        assert np.max(np.abs(gap - want)) < 1e-13
        assert np.max(np.abs(gap - 2.0 * a / sysm.density(states))) < 1e-13


def test_eigenvalue_gaps_share_sign_with_speed_gaps():
    rng = np.random.default_rng(1)
    sysm = augmented_born_infeld(1.3)
    states = random_abi_states(rng, 500)
    lam = sysm.eigenvalues(states)
    for i in range(3):
        for j in range(3):
            if i == j:
                continue
            gap_speed = sysm.lagrangian_speeds[i] - sysm.lagrangian_speeds[j]
            assert np.all(np.sign(lam[:, i] - lam[:, j]) == np.sign(gap_speed))


def test_eigenvalue_invariant_under_own_family_perturbation():
    sysm = augmented_born_infeld(1.0)
    rng = np.random.default_rng(2)
    states = random_abi_states(rng, 200)
    for i in range(3):
        base = sysm.eigenvalue(i, states)
        bumped = states.copy()
        bumped[:, i] += 0.5
        keep = sysm.admissible(bumped)
        rel = np.abs(sysm.eigenvalue(i, bumped[keep]) - base[keep])
        rel /= np.maximum(1.0, np.abs(base[keep]))
        assert float(rel.max()) < 1e-12


def test_validate_system_passes_on_catalog():
    rng = np.random.default_rng(4)
    bi = born_infeld(1.0)
    diag = validate_system(bi, random_bi_states(rng, 500))
    assert diag.passed, [c.detail for c in diag.failures()]

    # 5x5 grid of (mu, lam) with mu > lam plus a passive coordinate
    mu, lam = np.meshgrid(np.linspace(0.5, 2.5, 5), np.linspace(-2.0, 0.0, 5))
    grid = np.column_stack([mu.ravel(), np.zeros(mu.size), lam.ravel()])
    diag = validate_system(augmented_born_infeld(1.0), grid)
    assert diag.passed, [c.detail for c in diag.failures()]


def test_validate_system_records_inadmissible_probe():
    bi = born_infeld(1.0)
    diag = validate_system(bi, np.array([[0.0, 1.0], [1.0, -1.0]]))
    adm = [c for c in diag.checks if c.name == "admissibility"][0]
    assert not adm.passed
    assert not diag.passed
    # remaining checks still ran on the admissible probe
    assert any(c.name == "lagrangian-identity" and c.passed for c in diag.checks)


def test_three_speed_demo_is_a_valid_catalog_entry():
    sysm = three_speed_system()
    rng = np.random.default_rng(5)
    probes = rng.uniform(-0.5, 0.5, size=(400, 3))
    probes = probes[sysm.admissible(probes)]
    diag = validate_system(sysm, probes)
    assert diag.passed, [c.detail for c in diag.failures()]


def test_separable_fixture_is_linearly_degenerate():
    # 7 x 7 states over [-1.5, 1.5]^2; the flux -sum s_i G_i of the primitives
    # G_i failed the degeneracy check by 0.287
    w1, w2 = np.meshgrid(np.linspace(-1.5, 1.5, 7), np.linspace(-1.5, 1.5, 7))
    diag = validate_system(separable_two_speed_system(),
                           np.column_stack([w1.ravel(), w2.ravel()]))
    assert diag.passed, [c.detail for c in diag.failures()]
