"""Pairing stage: score matrix assembly, greedy and exact matching."""

import gc
import math
import tracemalloc

import numpy as np
import pytest

from conftest import make_scenario
from sscn.matching import (EXACT_MODE_MAX_USERS, UNPAIRED, OmegaMatrix,
                           Pairing, build_omega, matching_weight, solve_dup)
from sscn.pair_opt import PairSolution


def omega_from_matrix(mat) -> OmegaMatrix:
    return OmegaMatrix(scores=np.asarray(mat, dtype=float))


def matrix_from_pairs(m: int, entries: dict) -> np.ndarray:
    mat = np.full((m, m), -math.inf)
    for (i, j), v in entries.items():
        mat[i, j] = mat[j, i] = v
    return mat


def _dummy_solution(i: int, j: int, score: float) -> PairSolution:
    from sscn.metrics import CacheVector
    return PairSolution(i=i, j=j,
                        cache_i=CacheVector(i, [1]), cache_j=CacheVector(j, [1]),
                        power_i=1.0, power_j=1.0, score=score)


# ---------------------------------------------------------------- Pairing

def test_pairing_from_pairs_and_accessors():
    p = Pairing.from_pairs(5, [(1, 3), (0, 4)])
    assert p.matched_pairs() == [(0, 4), (1, 3)]
    assert p.unpaired() == [2]
    assert p.partner.tolist() == [4, 3, UNPAIRED, 1, 0]


def test_pairing_rejects_reused_user():
    with pytest.raises(ValueError):
        Pairing.from_pairs(4, [(0, 1), (1, 2)])


def test_pairing_rejects_asymmetric_partner_array():
    with pytest.raises(ValueError):
        Pairing(np.array([1, 2, 0]))
    with pytest.raises(ValueError):
        Pairing(np.array([0, 1]))  # self-pairing
    with pytest.raises(ValueError):
        Pairing(np.array([5, UNPAIRED]))  # out of range


def test_pairing_validate_checks_eligibility():
    scn = make_scenario(user_ranks=[[1]] * 4, eaves_ranks=[1], sizes=[1],
                        interp_rates=[[200.0]] * 4,
                        neighbors=((1,), (0,), (3,), (2,)))
    Pairing.from_pairs(4, [(0, 1), (2, 3)]).validate(scn)
    with pytest.raises(ValueError):
        Pairing.from_pairs(4, [(0, 2), (1, 3)]).validate(scn)
    with pytest.raises(ValueError):
        Pairing.from_pairs(3, [(0, 1)]).validate(scn)  # wrong size


# ---------------------------------------------------------------- build_omega

def test_build_omega_symmetric_cells():
    sols = {(0, 1): _dummy_solution(0, 1, 4.5)}
    omega = build_omega(sols, 2)
    assert omega.scores[0, 1] == 4.5
    assert omega.scores[1, 0] == 4.5
    assert omega.scores[0, 0] == -math.inf
    assert omega.num_users == 2


def test_build_omega_ineligible_cells_stay_absent():
    sols = {(0, 1): _dummy_solution(0, 1, 1.0)}
    omega = build_omega(sols, 4)
    for i in range(4):
        for j in range(4):
            if {i, j} != {0, 1}:
                assert omega.scores[i, j] == -math.inf


# ---------------------------------------------------------------- solve_dup

def test_hand_three_matching_instance():
    # best total is 20 via (0,1)+(2,3); the alternatives give 18 and 2
    mat = matrix_from_pairs(4, {(0, 1): 10.0, (2, 3): 10.0,
                                (0, 2): 9.0, (1, 3): 9.0,
                                (0, 3): 1.0, (1, 2): 1.0})
    omega = omega_from_matrix(mat)
    for mode in ("greedy", "exact"):
        pairing = solve_dup(omega, mode)
        assert pairing.matched_pairs() == [(0, 1), (2, 3)]
        assert matching_weight(omega, pairing) == 20.0


def test_greedy_can_lose_but_keeps_half():
    # greedy grabs the single 10 and blocks both 9s: 10 vs exact 18
    mat = matrix_from_pairs(4, {(0, 1): 10.0, (0, 2): 9.0, (1, 3): 9.0})
    omega = omega_from_matrix(mat)
    greedy = solve_dup(omega, "greedy")
    exact = solve_dup(omega, "exact")
    w_greedy = matching_weight(omega, greedy)
    w_exact = matching_weight(omega, exact)
    assert w_greedy == 10.0
    assert w_exact == 18.0
    assert w_greedy >= 0.5 * w_exact


def test_nonpositive_scores_are_never_matched():
    mat = matrix_from_pairs(3, {(0, 1): 0.0, (0, 2): -5.0, (1, 2): -1.0})
    for mode in ("greedy", "exact"):
        assert solve_dup(omega_from_matrix(mat), mode).matched_pairs() == []


def test_star_topology_keeps_best_spoke():
    mat = matrix_from_pairs(4, {(0, 1): 3.0, (0, 2): 7.0, (0, 3): 5.0})
    for mode in ("greedy", "exact"):
        pairing = solve_dup(omega_from_matrix(mat), mode)
        assert pairing.matched_pairs() == [(0, 2)]
        assert set(pairing.unpaired()) == {1, 3}


def test_greedy_tie_break_is_lexicographic():
    mat = matrix_from_pairs(4, {(0, 1): 5.0, (2, 3): 5.0, (0, 3): 5.0})
    pairing = solve_dup(omega_from_matrix(mat), "greedy")
    assert pairing.matched_pairs() == [(0, 1), (2, 3)]


def test_exact_mode_refuses_large_instances():
    m = EXACT_MODE_MAX_USERS + 1
    omega = omega_from_matrix(np.zeros((m, m)))
    with pytest.raises(ValueError):
        solve_dup(omega, "exact")


def test_unknown_mode_rejected():
    with pytest.raises(ValueError):
        solve_dup(omega_from_matrix(np.zeros((2, 2))), "radial")


def test_greedy_half_bound_on_random_instances():
    rng = np.random.default_rng(123)
    for _ in range(30):
        m = 10
        upper = np.triu(rng.random((m, m)), k=1)
        mat = upper + upper.T
        np.fill_diagonal(mat, -math.inf)
        omega = omega_from_matrix(mat)
        w_greedy = matching_weight(omega, solve_dup(omega, "greedy"))
        w_exact = matching_weight(omega, solve_dup(omega, "exact"))
        assert w_exact >= w_greedy - 1e-12
        assert w_greedy >= 0.5 * w_exact - 1e-12


def test_matching_weight_sums_selected_cells():
    mat = matrix_from_pairs(4, {(0, 1): 2.5, (2, 3): 4.0})
    omega = omega_from_matrix(mat)
    pairing = Pairing.from_pairs(4, [(0, 1), (2, 3)])
    assert matching_weight(omega, pairing) == 6.5
    assert matching_weight(omega, Pairing.from_pairs(4, [])) == 0.0


def test_modes_are_deterministic():
    rng = np.random.default_rng(7)
    upper = np.triu(rng.random((8, 8)), k=1)
    mat = upper + upper.T
    np.fill_diagonal(mat, -math.inf)
    omega = omega_from_matrix(mat)
    for mode in ("greedy", "exact"):
        first = solve_dup(omega, mode).partner.tolist()
        again = solve_dup(omega, mode).partner.tolist()
        assert first == again


def _reference_exact_pairs(scores: np.ndarray) -> list[tuple[int, int]]:
    """The recursive search exact mode used before its memoised form: users
    in index order, "leave unpaired" first, partners ascending, strict
    improvement only.  Kept as the tie-breaking reference."""
    m = scores.shape[0]
    free = [True] * m

    def dfs(start: int):
        u = start
        while u < m and not free[u]:
            u += 1
        if u >= m:
            return 0.0, []
        best_w, best_p = dfs(u + 1)
        for v in range(u + 1, m):
            if free[v] and scores[u, v] > 0.0:
                free[v] = False
                w, p = dfs(u + 1)
                free[v] = True
                w += scores[u, v]
                if w > best_w:
                    best_w, best_p = w, [(u, v)] + p
        return best_w, best_p

    return dfs(0)[1]


def _random_score_matrix(rng: np.random.Generator, m: int, n: int) -> np.ndarray:
    """Symmetric scores mixing positive, negative and -inf cells.  Every
    other matrix takes small integers, so many matchings tie exactly; the
    rest copy some cells onto others to plant repeated float weights."""
    if n % 2 == 0:
        upper = rng.integers(-2, 4, size=(m, m)).astype(float)
    else:
        upper = rng.random((m, m)) * 10.0 - 2.0
        cells = rng.integers(0, m, size=(m, 2, 2))
        for (a, b), (c, d) in cells:
            upper[c, d] = upper[a, b]
    upper[rng.random((m, m)) < 0.25] = -math.inf
    mat = np.triu(upper, k=1)
    mat = mat + mat.T
    np.fill_diagonal(mat, -math.inf)
    return mat


def test_exact_mode_equals_reference_search_including_ties():
    rng = np.random.default_rng(2024)
    sizes = [int(rng.integers(1, EXACT_MODE_MAX_USERS + 1)) for _ in range(46)]
    sizes += [EXACT_MODE_MAX_USERS] * 4
    for n, m in enumerate(sizes):
        mat = _random_score_matrix(rng, m, n)
        want = Pairing.from_pairs(m, _reference_exact_pairs(mat)).partner
        got = solve_dup(omega_from_matrix(mat), "exact").partner
        assert got.tolist() == want.tolist(), (n, m)


def test_exact_mode_frees_its_memo_on_return():
    # the memoised search and its memo form a reference cycle; with the
    # collector off, only the small closure may outlive a dense 12-user call
    # (about 8 kB), not its several hundred memo entries (about 68 kB).  The
    # first call fills the interpreter's free lists under tracing, so the
    # second one's count is what it keeps.
    m = EXACT_MODE_MAX_USERS
    upper = np.triu(np.random.default_rng(5).random((m, m)) + 1.0, k=1)
    omega = omega_from_matrix(upper + upper.T)
    gc.collect()
    gc.disable()
    tracemalloc.start()
    try:
        solve_dup(omega, "exact")
        before = tracemalloc.get_traced_memory()[0]
        pairing = solve_dup(omega, "exact")
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
        gc.enable()
    assert len(pairing.matched_pairs()) == m // 2
    assert retained < 16 * 1024, retained
