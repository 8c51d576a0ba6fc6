import csv
import json

import numpy as np
import pytest

from motlab import CnfFormula, KPartiteGraph, MarginalSpec, UndirectedGraph
from motlab.cli import main
from motlab.corpus import random_cost, random_marginals
from motlab.costs import LowRankCost
from motlab.formats import save_instance, write_cnf, write_graph, write_kpartite


@pytest.fixture()
def perm_instance(tmp_path):
    C = random_cost(np.random.default_rng(0), "dense", 2, 2)
    spec = MarginalSpec.fully_fixed([np.array([0.5, 0.5])] * 2)
    path = tmp_path / "inst.json"
    save_instance(path, C, spec, weights=np.zeros((2, 2)))
    return path


def _read(path):
    return json.loads(path.read_text())


def test_solve_mot_lp(perm_instance, tmp_path):
    out = tmp_path / "r.json"
    assert main(["solve-mot", str(perm_instance), "--backend", "lp", "--out", str(out)]) == 0
    report = _read(out)
    assert report["backend"] == "lp"
    assert abs(report["value"] - report["dual_value"]) < 1e-6
    assert report["coupling"]["entries"]
    assert min(e["index"][0] for e in report["coupling"]["entries"]) >= 1  # 1-based


def test_solve_mot_sinkhorn_round(perm_instance, tmp_path):
    out = tmp_path / "r.json"
    code = main([
        "solve-mot", str(perm_instance), "--backend", "sinkhorn",
        "--eta", "10", "--tol", "1e-8", "--round", "--out", str(out),
    ])
    assert code == 0
    report = _read(out)
    assert report["rounded"] is True
    assert report["converged"] is True
    assert report["rounded_value"] == pytest.approx(report["linear_value"], abs=1e-5)


def test_solve_mot_submodular(tmp_path):
    from motlab.corpus import random_coverage_function

    C = random_coverage_function(np.random.default_rng(1), 4)
    x = np.array([0.2, 0.5, 0.9, 0.4])
    spec = MarginalSpec.fully_fixed([np.array([1 - xi, xi]) for xi in x])
    path = tmp_path / "sub.json"
    save_instance(path, C, spec)
    out = tmp_path / "r.json"
    assert main(["solve-mot", str(path), "--backend", "submodular", "--out", str(out)]) == 0
    lp_out = tmp_path / "lp.json"
    assert main(["solve-mot", str(path), "--backend", "lp", "--out", str(lp_out)]) == 0
    assert _read(out)["value"] == pytest.approx(_read(lp_out)["value"], abs=1e-8)


def test_solve_min_vias_agree(perm_instance, tmp_path):
    vals = {}
    for via in ("bruteforce", "mot-exact"):
        out = tmp_path / f"{via}.json"
        assert main(["solve-min", str(perm_instance), "--via", via, "--out", str(out)]) == 0
        vals[via] = _read(out)
    assert vals["bruteforce"]["value"] == vals["mot-exact"]["value"]
    assert vals["bruteforce"]["witness"] == vals["mot-exact"]["witness"]
    assert vals["mot-exact"]["queries"] > 0


def test_solve_min_approx_reports_trials(perm_instance, tmp_path):
    out = tmp_path / "r.json"
    code = main([
        "solve-min", str(perm_instance), "--via", "mot-approx",
        "--eps", "0.01", "--trials", "2", "--budget", "120",
        "--seed", "3", "--out", str(out),
    ])
    assert code == 0
    report = _read(out)
    assert len(report["trial_values"]) == 2
    assert report["queries"] > 0


def test_exit_schema_violation(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{"n": 2, "k": 2}')
    assert main(["solve-mot", str(bad)]) == 2
    bad.write_text("not json")
    assert main(["solve-min", str(bad)]) == 2
    # missing marginals for solve-mot
    C = random_cost(np.random.default_rng(2), "dense", 2, 2)
    path = tmp_path / "nomu.json"
    save_instance(path, C)
    assert main(["solve-mot", str(path)]) == 2


def test_exit_cap_exceeded(tmp_path):
    n, k = 10, 9
    C = LowRankCost(n=n, k=k, terms=(tuple(np.ones(n) for _ in range(k)),))
    spec = MarginalSpec.fully_fixed([np.full(n, 0.1)] * k)
    path = tmp_path / "big.json"
    save_instance(path, C, spec)
    assert main(["solve-mot", str(path), "--backend", "lp"]) == 3


def test_env_cap_override(perm_instance, monkeypatch):
    monkeypatch.setenv("MOTLAB_DENSE_CAP", "2")
    assert main(["solve-mot", str(perm_instance), "--backend", "lp"]) == 3


def test_exit_nonconvergence(tmp_path):
    rng = np.random.default_rng(3)
    C = random_cost(rng, "dense", 3, 3)
    spec = MarginalSpec.fully_fixed(random_marginals(rng, 3, 3))
    path = tmp_path / "i.json"
    save_instance(path, C, spec)
    out = tmp_path / "r.json"
    code = main([
        "solve-mot", str(path), "--backend", "sinkhorn",
        "--eta", "50", "--tol", "1e-15", "--max-iters", "1", "--out", str(out),
    ])
    assert code == 4
    assert _read(out)["converged"] is False  # partial report still written


def test_verify_twosat_cli(tmp_path):
    cnf_path = tmp_path / "f.cnf"
    write_cnf(cnf_path, CnfFormula(2, ((1, 2),)))
    out = tmp_path / "r.json"
    assert main(["verify", "twosat", str(cnf_path), "--out", str(out)]) == 0
    report = _read(out)
    assert report["construction"] == "twosat_dichotomy"
    assert all(c["pass"] for c in report["checks"])


def test_verify_clique_cli(tmp_path):
    G = KPartiteGraph(n=2, k=3, edges=(((0, 0), (1, 0)), ((0, 0), (2, 0)), ((1, 0), (2, 0))))
    gp, sp = tmp_path / "g.dimacs", tmp_path / "g.classes.json"
    write_kpartite(gp, sp, G)
    assert main(["verify", "clique", str(gp), str(sp)]) == 0
    assert main(["verify", "pairwise", str(gp), str(sp)]) == 0


def test_verify_maxcut_cli(tmp_path):
    gp = tmp_path / "g.dimacs"
    write_graph(gp, UndirectedGraph(3, ((0, 1), (1, 2), (0, 2))))
    assert main(["verify", "maxcut", str(gp)]) == 0


def test_verify_instance_based_constructions(tmp_path):
    from motlab.corpus import random_ions
    from motlab.costs import DeterminantCost

    det = DeterminantCost(points=np.eye(3), variant="neg_abs_det")
    dpath = tmp_path / "det.json"
    save_instance(dpath, det)
    out = tmp_path / "det.report.json"
    assert main(["verify", "determinant", str(dpath), "--out", str(out)]) == 0
    assert _read(out)["construction"] == "determinant[neg_abs_det]"

    ions = random_ions(np.random.default_rng(8), n=4, k=2)
    ipath = tmp_path / "ions.json"
    save_instance(ipath, ions)
    assert main(["verify", "buckingham", str(ipath)]) == 0

    lpath = tmp_path / "lip.json"
    save_instance(lpath, random_cost(np.random.default_rng(9), "pairwise", 2, 2))
    assert main(["verify", "lipschitz", str(lpath), "--trials", "15"]) == 0

    # family mismatches are schema violations
    assert main(["verify", "determinant", str(ipath)]) == 2
    assert main(["verify", "buckingham", str(dpath)]) == 2


def test_verify_gap_cli_and_failure_exit(tmp_path):
    params = tmp_path / "params.json"
    params.write_text(json.dumps({
        "A_plus": "2.0", "A_minus": "1.0", "B_plus": "1.0",
        "B_minus": "1.0", "C_plus": "1.0", "C_minus": "1.0",
    }))
    out = tmp_path / "r.json"
    code = main(["verify", "gap", str(params), "--n", "8,16", "--out", str(out)])
    report = _read(out)
    all_pass = all(c["pass"] for c in report["checks"])
    assert code == (0 if all_pass else 1)
    assert main(["verify", "gap", str(params)]) == 2  # missing --n


def test_batch_runs_and_is_deterministic(tmp_path):
    rng = np.random.default_rng(4)
    C = random_cost(rng, "dense", 2, 2)
    spec = MarginalSpec.fully_fixed(random_marginals(rng, 2, 2))
    inst = tmp_path / "a.json"
    save_instance(inst, C, spec, weights=np.zeros((2, 2)))
    cnf_path = tmp_path / "f.cnf"
    write_cnf(cnf_path, CnfFormula(2, ((1, 2),)))

    from motlab import min_bruteforce

    ref = min_bruteforce(C)
    manifest = {
        "seed": 7,
        "jobs": [
            {"command": "solve-min", "instance": "a.json",
             "flags": {"via": "mot-exact"},
             "reference_value": format(ref.value, ".17g"), "tol": 1e-9},
            {"command": "solve-mot", "instance": "a.json", "flags": {"backend": "lp"}},
            {"command": "verify", "construction": "twosat", "inputs": ["f.cnf"]},
        ],
    }
    mpath = tmp_path / "manifest.json"
    mpath.write_text(json.dumps(manifest))

    def run(csv_name):
        out = tmp_path / csv_name
        code = main(["batch", str(mpath), "--csv", str(out), "--out-dir", str(tmp_path / "reports")])
        assert code == 0
        with open(out) as fh:
            rows = list(csv.DictReader(fh))
        return rows

    rows1 = run("s1.csv")
    rows2 = run("s2.csv")
    strip = lambda rows: [{k: v for k, v in r.items() if k != "wall_ms"} for r in rows]
    assert strip(rows1) == strip(rows2)
    assert rows1[0]["pass"] == "true"
    assert rows1[0]["abs_err"] != "" and float(rows1[0]["abs_err"]) <= 1e-9
    assert {r["command"] for r in rows1} == {"solve-min", "solve-mot", "verify"}
    assert (tmp_path / "reports" / "job000.report.json").exists()


def test_batch_parallel_matches_serial(tmp_path):
    rng = np.random.default_rng(5)
    jobs = []
    for idx in range(3):
        C = random_cost(rng, "dense", 2, 2)
        spec = MarginalSpec.fully_fixed(random_marginals(rng, 2, 2))
        save_instance(tmp_path / f"i{idx}.json", C, spec)
        jobs.append({"command": "solve-mot", "instance": f"i{idx}.json", "flags": {"backend": "lp"}})
    mpath = tmp_path / "m.json"
    mpath.write_text(json.dumps({"seed": 1, "jobs": jobs}))

    def run(tag, njobs):
        out = tmp_path / f"{tag}.csv"
        assert main(["batch", str(mpath), "--jobs", str(njobs), "--csv", str(out),
                     "--out-dir", str(tmp_path / tag)]) == 0
        with open(out) as fh:
            return [{k: v for k, v in r.items() if k != "wall_ms"} for r in csv.DictReader(fh)]

    assert run("serial", 1) == run("par", 2)


@pytest.mark.parametrize("njobs", [1, 2])
def test_batch_worker_errors_fail_their_rows(tmp_path, monkeypatch, njobs):
    monkeypatch.setenv("MOTLAB_DENSE_CAP", "8")
    rng = np.random.default_rng(8)
    save_instance(tmp_path / "ok.json", random_cost(rng, "dense", 2, 2),
                  MarginalSpec.fully_fixed(random_marginals(rng, 2, 2)))
    save_instance(tmp_path / "big.json", random_cost(rng, "dense", 3, 2),
                  MarginalSpec.fully_fixed(random_marginals(rng, 3, 2)))
    mpath = tmp_path / "m.json"
    mpath.write_text(json.dumps({"jobs": [
        {"command": "solve-mot", "instance": "ok.json", "flags": {"backend": "lp"}},
        {"command": "solve-mot", "instance": "big.json", "flags": {"backend": "lp"}},
        {"command": "solve-mot", "instance": "ok.json", "flags": {"no-such-flag": 1}},
    ]}))
    out = tmp_path / "s.csv"
    code = main(["batch", str(mpath), "--jobs", str(njobs), "--csv", str(out),
                 "--out-dir", str(tmp_path / "reports")])
    assert code == 1
    with open(out) as fh:
        rows = list(csv.DictReader(fh))
    assert [r["pass"] for r in rows] == ["true", "false", "false"]
    # over the dense cap (3) and rejected by argparse (2) stay distinguishable
    assert [r["exit_code"] for r in rows] == ["0", "3", "2"]


def test_batch_reference_failure_sets_exit(tmp_path):
    C = random_cost(np.random.default_rng(6), "dense", 2, 2)
    save_instance(tmp_path / "i.json", C, MarginalSpec.fully_fixed(random_marginals(np.random.default_rng(7), 2, 2)))
    mpath = tmp_path / "m.json"
    mpath.write_text(json.dumps({
        "jobs": [{"command": "solve-mot", "instance": "i.json",
                  "flags": {"backend": "lp"}, "reference_value": "1000.0", "tol": 1e-6}],
    }))
    assert main(["batch", str(mpath)]) == 1
