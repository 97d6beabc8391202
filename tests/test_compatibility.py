import math
import time

import numpy as np
import pytest

from tvgo import compatibility, projections
from tvgo.compatibility import (HypothesisError, kappa_bound_cycle,
                                kappa_bound_path, kappa_numeric)
from tvgo.graphs import (active_set, cycle_graph, grid_graph, incidence, path_graph,
                         tree_graph)

from _reference import kappa_brute


def test_K_path_two_components():
    a = active_set(path_graph(8), [4])
    kb = kappa_bound_path(a)
    assert kb.K == pytest.approx(0.5)
    assert kb.sqrt_rs_over_kappa_identity == pytest.approx(2.0)
    assert kb.K_prime is None


def test_K_path_interior_halves():
    # sizes 4, 5, 4: K = 1/4 + (1/2 + 1/3) + 1/4
    a = active_set(path_graph(13), [4, 9])
    kb = kappa_bound_path(a)
    assert a.comp_sizes == (4, 5, 4)
    assert kb.K == pytest.approx(0.25 + 0.5 + 1.0 / 3.0 + 0.25)


def test_K_cycle_example():
    a = active_set(cycle_graph(8), [4, 8])
    kb = kappa_bound_cycle(a)
    assert a.comp_sizes == (4, 4) and a.r_S == 2
    assert kb.K_prime == pytest.approx(2.0)
    assert kb.sqrt_rs_over_kappa_identity == pytest.approx(4.0)


def test_cycle_r_S_is_set_size():
    # paths gain one component per cut; cycles do not
    ap = active_set(path_graph(12), [4, 8])
    ac = active_set(cycle_graph(12), [4, 8])
    assert ap.r_S == 3 and ac.r_S == 2
    assert ac.r_S == len(ac.S)


def test_K_equal_sizes_upper_bound():
    # K <= 4 r_S^2 / n when all components share one size
    for r, size in [(2, 4), (3, 6), (4, 8), (5, 4)]:
        n = r * size
        S = [size * k for k in range(1, r)]
        a = active_set(path_graph(n), S)
        assert a.n_min == a.n_max == size
        kb = kappa_bound_path(a)
        assert kb.K <= 4 * r ** 2 / n + 1e-12


def test_hypothesis_errors_name_component():
    with pytest.raises(HypothesisError, match="first component"):
        kappa_bound_path(active_set(path_graph(8), [1]))
    with pytest.raises(HypothesisError, match="interior component 2"):
        kappa_bound_path(active_set(path_graph(9), [2, 5]))  # sizes 2,3,4
    with pytest.raises(HypothesisError, match="nonempty"):
        kappa_bound_cycle(active_set(cycle_graph(8), []))
    with pytest.raises(HypothesisError, match="< 4"):
        kappa_bound_cycle(active_set(cycle_graph(8), [2, 4]))


def test_kappa_bound_dispatches_on_the_family():
    g = path_graph(16)
    a = active_set(g, [8])
    rep = projections.theory_report(incidence(g), a)
    assert compatibility.kappa_bound("path", a, rep.weights, rep.gamma) == \
        kappa_bound_path(a, rep.weights, rep.gamma)
    c = active_set(cycle_graph(16), [4, 12])
    assert compatibility.kappa_bound("cycle", c) == kappa_bound_cycle(c)
    for family in ("grid", "tree", "file"):
        with pytest.raises(HypothesisError, match=f"family '{family}'"):
            compatibility.kappa_bound(family, a)


def test_identity_weights_no_increment():
    a = active_set(path_graph(8), [4])
    kb = kappa_bound_path(a, weights=None)
    assert kb.weight_increment_sq == 0.0
    assert kb.sqrt_rs_over_kappa_weighted == kb.sqrt_rs_over_kappa_identity


def test_weighted_bound_adds_increments():
    g = path_graph(8)
    a = active_set(g, [4])
    rep = projections.theory_report(incidence(g), a)
    kb = kappa_bound_path(a, rep.weights, rep.gamma)
    w = np.concatenate([rep.weights, [1.0]])
    expected = float(np.sum(np.diff(w) ** 2))
    assert kb.weight_increment_sq == pytest.approx(expected, rel=1e-12)
    assert kb.sqrt_rs_over_kappa_weighted == pytest.approx(
        2.0 + math.sqrt(8 * expected), rel=1e-12)
    assert kb.increment_bound_ok is True


def test_cycle_weight_increments_wrap():
    g = cycle_graph(8)
    a = active_set(g, [4, 8])
    rep = projections.theory_report(incidence(g), a)
    kb = kappa_bound_cycle(a, rep.weights, rep.gamma)
    w = rep.weights
    expected = float(np.sum((np.roll(w, -1) - w) ** 2))
    assert kb.weight_increment_sq == pytest.approx(expected, rel=1e-12)


def _compositions(total, parts_min):
    """All ordered compositions of total into parts >= parts_min."""
    if total == 0:
        yield ()
        return
    for first in range(parts_min, total + 1):
        for rest in _compositions(total - first, parts_min):
            yield (first,) + rest


def test_weight_increment_lemma_paths():
    # exhaustive on n=16; deterministic random samples for n in {64, 256}
    def check(n, sizes):
        S = list(np.cumsum(sizes[:-1]))
        g = path_graph(n)
        a = active_set(g, S)
        rep = projections.theory_report(incidence(g), a)
        kb = kappa_bound_path(a, rep.weights, rep.gamma)
        assert kb.increment_bound_ok, f"violation at n={n}, sizes={sizes}"

    for sizes in _compositions(16, 4):
        check(16, sizes)
    rng = np.random.default_rng(17)
    for n in (64, 256):
        for _ in range(150):
            sizes = []
            left = n
            while left >= 8:
                take = int(rng.integers(4, min(left - 4, 3 * n // 4) + 1))
                sizes.append(take)
                left -= take
            sizes.append(left)
            if min(sizes) < 4:
                sizes = [n]
            check(n, tuple(sizes))


def test_numeric_tightness_path8():
    g = path_graph(8)
    a = active_set(g, [4])
    k = kappa_numeric(incidence(g), a)
    sup = math.sqrt(a.r_S) / k
    assert sup == pytest.approx(2.0, rel=0.05)


def test_numeric_closed_form_n2():
    g = path_graph(2)
    a = active_set(g, [1])
    k = kappa_numeric(incidence(g), a)
    assert k ** 2 == pytest.approx(0.5, rel=1e-6)


def test_numeric_cycle_tightness():
    g = cycle_graph(8)
    a = active_set(g, [4, 8])
    k = kappa_numeric(incidence(g), a)
    assert math.sqrt(a.r_S) / k == pytest.approx(4.0, rel=0.05)


CLOSED_FORM_PATHS = [(8, [4]), (12, [4, 8]), (16, [4, 8, 12]), (16, [8])]


def test_numeric_reproduces_closed_forms_small():
    # identity-weight kappa matches sqrt(nK) within 5% for n <= 16
    for n, S in CLOSED_FORM_PATHS:
        g = path_graph(n)
        a = active_set(g, S)
        kb = kappa_bound_path(a)
        k = kappa_numeric(incidence(g), a)
        assert math.sqrt(a.r_S) / k == pytest.approx(
            kb.sqrt_rs_over_kappa_identity, rel=0.05)


@pytest.mark.parametrize("n,S,kappa", [
    *((n, S, None) for n, S in CLOSED_FORM_PATHS),
    (40, [10, 20, 30], 0.316228), (64, [16], 0.612372),
    (400, list(range(50, 351, 50)), 0.196116)])
def test_numeric_equals_the_path_closed_form(n, S, kappa):
    # the closed form sqrt(nK) is tight on these paths: exact kappa meets it
    g = path_graph(n)
    a = active_set(g, S)
    start = time.perf_counter()
    k = kappa_numeric(incidence(g), a)
    assert time.perf_counter() - start < 0.5
    assert math.sqrt(a.r_S) / k == pytest.approx(kappa_bound_path(a).sqrt_rs_over_kappa_identity,
                                                 rel=1e-9)
    if kappa is not None:
        assert k == pytest.approx(kappa, abs=5e-7)


@pytest.mark.parametrize("g,S,kappa", [(cycle_graph(40), [5, 20, 33], 0.342053),
                                       (grid_graph(6, 6), [1, 2], 0.164336)])
def test_numeric_values_without_a_tight_closed_form(g, S, kappa):
    assert kappa_numeric(incidence(g), active_set(g, S)) == pytest.approx(kappa, abs=5e-7)


def _small_instances():
    """Paths, cycles, random trees and grids with n <= 12, each with one to
    four active edges drawn at random."""
    rng = np.random.default_rng(12)
    for k in range(40):
        n = int(rng.integers(3, 13))
        g = [path_graph(n), cycle_graph(n),
             tree_graph([int(rng.integers(1, v)) for v in range(2, n + 1)]),
             grid_graph(int(rng.integers(2, 4)), int(rng.integers(2, 5)))][k % 4]
        yield g, sorted(rng.choice(np.arange(1, g.m + 1), int(rng.integers(1, min(g.m - 1, 4) + 1)),
                                   replace=False).tolist())


def test_numeric_matches_brute_force_enumeration():
    # per component and local sign pattern against every global pattern on
    # the whole graph, with identity and computed weights; the primal
    # objective at the recovered maximiser closes the duality gap
    checked = 0
    for g, S in _small_instances():
        D, a = incidence(g), active_set(g, S)
        for weights in (None, projections.theory_report(D, a).weights):
            kappa, primal = kappa_brute(D, a, weights)
            try:
                k = kappa_numeric(D, a, weights)
            except ValueError as exc:
                # kappa infinite: the brute-force supremum is zero to rounding
                assert "denominator never positive" in str(exc)
                assert math.sqrt(a.r_S) / kappa < 1e-6
                continue
            assert k == pytest.approx(kappa, rel=1e-9)
            assert math.sqrt(a.r_S) / k == pytest.approx(primal, rel=1e-9)
            checked += 1
    assert checked >= 60


def test_numeric_weighted_below_paper_bound():
    g = path_graph(12)
    a = active_set(g, [4, 8])
    rep = projections.theory_report(incidence(g), a)
    kb = kappa_bound_path(a, rep.weights, rep.gamma)
    k = kappa_numeric(incidence(g), a, rep.weights)
    assert math.sqrt(a.r_S) / k <= kb.sqrt_rs_over_kappa_weighted + 1e-9


def test_numeric_objective_homogeneous():
    # kappa is computed without any randomness: two calls agree to the bit
    g = path_graph(8)
    a = active_set(g, [4])
    assert kappa_numeric(incidence(g), a) == kappa_numeric(incidence(g), a)


def test_numeric_requires_active_rows():
    g = path_graph(6)
    with pytest.raises(ValueError, match="positive"):
        kappa_numeric(incidence(g), active_set(g, []))


def test_numeric_infinite_kappa_raises():
    # S = {3, 8, 13} leaves the 6x6 grid connected, and flows of the unit
    # edges route D_S's through it for every s
    g = grid_graph(6, 6)
    with pytest.raises(ValueError, match="denominator never positive"):
        kappa_numeric(incidence(g), active_set(g, [3, 8, 13]))


def test_numeric_names_an_active_set_too_large_to_enumerate():
    g = path_graph(40)
    with pytest.raises(ValueError, match=r"\|S\| = 17"):
        kappa_numeric(incidence(g), active_set(g, range(2, 36, 2)))
