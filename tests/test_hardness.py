import math

import numpy as np
import pytest

from motlab import CnfFormula, KPartiteGraph, UndirectedGraph, hardness
from motlab.corpus import random_ions, random_kpartite, random_twosat
from motlab.costs import DenseCost, build_twosat_cost
from motlab.hardness import (
    check_gap_inequalities,
    lipschitz_experiment,
    report_passed,
    verify_buckingham,
    verify_clique_encoding,
    verify_determinant_min,
    verify_pairwise_equivalence,
    verify_supermodular_dichotomy,
    verify_twosat_dichotomy,
)

TRIANGLE_K3 = KPartiteGraph(
    n=2, k=3, edges=(((0, 0), (1, 0)), ((0, 0), (2, 0)), ((1, 0), (2, 0)))
)


def _schema_ok(report):
    assert set(report) == {"construction", "instance_digest", "checks", "seed"}
    assert isinstance(report["instance_digest"], str) and len(report["instance_digest"]) == 64
    for c in report["checks"]:
        assert set(c) == {"name", "lhs", "rhs", "tol", "pass"}


def test_clique_report_complete_kpartite():
    report = verify_clique_encoding(KPartiteGraph.complete(2, 3))
    _schema_ok(report)
    assert report_passed(report)
    by_name = {c["name"]: c for c in report["checks"]}
    assert by_name["neg_min_bruteforce_equals_max_induced_edges[definitional_count]"]["rhs"] == 3.0
    assert by_name["clique_flag_matches_brute"]["lhs"] is True


def test_clique_report_empty_graph():
    report = verify_clique_encoding(KPartiteGraph(n=2, k=3, edges=()))
    assert report_passed(report)
    by_name = {c["name"]: c for c in report["checks"]}
    assert by_name["clique_flag_matches_brute"]["lhs"] is False


def test_clique_report_random_graphs():
    rng = np.random.default_rng(0)
    for _ in range(10):
        G = random_kpartite(rng, int(rng.integers(2, 4)), int(rng.integers(2, 4)), 0.5)
        assert report_passed(verify_clique_encoding(G, seed=1))


def test_pairwise_equivalence_reports():
    rng = np.random.default_rng(1)
    assert report_passed(verify_pairwise_equivalence(TRIANGLE_K3))
    for _ in range(5):
        G = random_kpartite(rng, 2, 3, 0.6)
        assert report_passed(verify_pairwise_equivalence(G))


def test_determinant_reports():
    report = verify_determinant_min(np.eye(3), "neg_abs_det")
    _schema_ok(report)
    assert report_passed(report)
    # collinear points: every determinant vanishes in both variants
    flat = np.array([[1.0, 1.0], [2.0, 2.0], [3.0, 3.0]])
    assert report_passed(verify_determinant_min(flat, "neg_abs_det"))
    assert report_passed(verify_determinant_min(flat, "capped_neg_log_abs_det"))
    rng = np.random.default_rng(2)
    for _ in range(3):
        pts = rng.integers(-3, 4, size=(3, 3)).astype(float)
        assert report_passed(verify_determinant_min(pts, "neg_abs_det"))


def test_supermodular_dichotomy_reports():
    triangle = UndirectedGraph(3, ((0, 1), (1, 2), (0, 2)))
    report = verify_supermodular_dichotomy(triangle, seed=0)
    _schema_ok(report)
    assert report_passed(report)
    by_name = {c["name"]: c for c in report["checks"]}
    assert by_name["maxcut_via_mot_equals_subset_enumeration"]["rhs"] == 2.0

    single = UndirectedGraph(2, ((0, 1),))
    rep2 = verify_supermodular_dichotomy(single, seed=0)
    assert report_passed(rep2)
    assert {c["name"]: c for c in rep2["checks"]}[
        "maxcut_via_mot_equals_subset_enumeration"
    ]["rhs"] == 1.0


def test_buckingham_reports():
    ions = random_ions(np.random.default_rng(3), n=5, k=2)
    report = verify_buckingham(ions)
    _schema_ok(report)
    assert report_passed(report)


def test_buckingham_all_positive_charges():
    rng = np.random.default_rng(4)
    base = random_ions(rng, n=4, k=2)
    from motlab import IonCost

    ions = IonCost(
        positions=base.positions,
        charges=np.ones(4, dtype=int),
        k=2,
        m_penalty=base.m_penalty,
        a_plus=base.a_plus, a_minus=base.a_minus,
        b_plus=base.b_plus, b_minus=base.b_minus,
        c_plus=base.c_plus, c_minus=base.c_minus,
        variant="buckingham",
    )
    report = verify_buckingham(ions)
    assert report_passed(report)
    by_name = {c["name"]: c for c in report["checks"]}
    # no balanced subset: the optimum is the penalty itself
    assert by_name["min_bruteforce_equals_balanced_subset_enumeration"]["rhs"] == ions.m_penalty


def test_twosat_dichotomy_reports():
    report = verify_twosat_dichotomy(CnfFormula(2, ((1, 2),)))
    _schema_ok(report)
    assert report_passed(report)
    by_name = {c["name"]: c for c in report["checks"]}
    assert by_name["twosat_min_zero_equals_min_bruteforce"]["lhs"] == -1.0
    assert math.isclose(by_name["min_via_mot_exact_equals_weighted_brute"]["rhs"], -0.75)

    unsat = verify_twosat_dichotomy(CnfFormula(1, ((1,), (-1,))))
    assert report_passed(unsat)
    assert {c["name"]: c for c in unsat["checks"]}[
        "weighted_brute_equals_assignment_enumeration"
    ]["rhs"] == 0.0


def test_twosat_dichotomy_refuses_past_the_brute_cap(monkeypatch):
    def enumerated(*args, **kwargs):
        raise AssertionError("enumerated 2^20 assignments past the brute-force cap")

    monkeypatch.setattr(hardness, "twosat_min_zero", enumerated)
    monkeypatch.setattr(hardness, "min_bruteforce", enumerated)
    cnf = CnfFormula(20, tuple((v, -(v % 20 + 1)) for v in range(1, 21)))
    assert 2**20 > hardness._BRUTE_CAP
    with pytest.raises(ValueError, match="too large for brute verification"):
        verify_twosat_dichotomy(cnf)


def test_twosat_dichotomy_random():
    rng = np.random.default_rng(5)
    for _ in range(10):
        k = int(rng.integers(2, 8))
        C = random_twosat(rng, k, int(rng.integers(1, 2 * k)))
        assert report_passed(verify_twosat_dichotomy(C.cnf, seed=0))


def test_lipschitz_experiment_reports():
    const = DenseCost(np.full((2, 2), 4.0))
    report = lipschitz_experiment(const, trials=20, seed=0)
    _schema_ok(report)
    assert report_passed(report)
    assert report["checks"][0]["lhs"] <= 1e-12  # constant cost: ratio ~0 up to LP tolerance

    twosat = build_twosat_cost(CnfFormula(2, ((1, 2),)))
    rep2 = lipschitz_experiment(twosat, trials=40, seed=1)
    assert report_passed(rep2)
    assert rep2["checks"][0]["rhs"] == 2.0

    from motlab import build_clique_tensor

    clique, _ = build_clique_tensor(TRIANGLE_K3)
    rep3 = lipschitz_experiment(clique, trials=30, seed=2)
    assert report_passed(rep3)
    assert rep3["checks"][0]["rhs"] == 2.0 * TRIANGLE_K3.edge_count


@pytest.mark.parametrize("trials", [0, -1])
def test_lipschitz_experiment_rejects_no_trials(trials):
    with pytest.raises(ValueError, match="trials must be at least 1"):
        lipschitz_experiment(DenseCost(np.full((2, 2), 4.0)), trials=trials)


GAP_PARAMS = {
    "A_plus": 2.0, "A_minus": 1.0, "B_plus": 1.0,
    "B_minus": 1.0, "C_plus": 1.0, "C_minus": 1.0,
}


def test_gap_checker_runs_and_reports():
    report = check_gap_inequalities(GAP_PARAMS, [8, 16], grid=200)
    _schema_ok(report)
    names = [c["name"] for c in report["checks"]]
    assert any(n.startswith("ineq1[n=8]") for n in names)
    assert any("r=sqrt(1+n^2)" in n for n in names)
    # out-of-range specials are informational
    assert any("outside_claimed_range" in n for n in names)


def test_gap_checker_monotone_in_slack():
    # passing with slack s implies passing with any smaller slack
    for n in (8, 16, 32):
        strict = check_gap_inequalities(GAP_PARAMS, [n], grid=150, slack=1e-3)
        loose = check_gap_inequalities(GAP_PARAMS, [n], grid=150, slack=0.0)
        for cs, cl in zip(strict["checks"], loose["checks"]):
            assert cs["name"].split("]")[0] == cl["name"].split("]")[0]
            if cs["pass"]:
                assert cl["pass"]


def test_gap_checker_rejects_bad_params():
    with pytest.raises(ValueError):
        check_gap_inequalities({"A_plus": 1.0}, [8])
    with pytest.raises(ValueError):
        check_gap_inequalities({**GAP_PARAMS, "C_plus": -1.0}, [8])
    with pytest.raises(ValueError, match="n_range"):
        check_gap_inequalities(GAP_PARAMS, [])
    with pytest.raises(ValueError, match="n_range"):
        check_gap_inequalities(GAP_PARAMS, [8, 0])
