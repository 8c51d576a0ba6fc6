import json

import numpy as np
import pytest

from motlab import CnfFormula, KPartiteGraph, MarginalSpec, UndirectedGraph
from motlab.corpus import random_cost, random_marginals
from motlab.formats import (
    SchemaError,
    digest,
    encode_instance,
    float_str,
    instance_digest,
    load_instance,
    parse_float,
    parse_instance,
    parse_int,
    read_cnf,
    read_graph,
    read_kpartite,
    save_instance,
    write_cnf,
    write_graph,
    write_kpartite,
)

FAMILIES = [
    "dense", "low_rank", "pairwise", "determinant", "log_determinant",
    "set_function", "coulomb", "coulomb_buckingham", "two_sat",
]


def test_float_strings_round_trip_doubles():
    rng = np.random.default_rng(0)
    for _ in range(200):
        x = float(rng.normal() * 10.0 ** float(rng.integers(-8, 9)))
        assert parse_float(float_str(x)) == x
    assert float_str(0.5) == "0.5"


def test_parse_float_rejects_junk():
    for bad in ("nan", "inf", "abc", True, None, [1]):
        with pytest.raises(SchemaError):
            parse_float(bad)


@pytest.mark.parametrize("family", FAMILIES)
def test_instance_round_trip_all_families(family, tmp_path):
    rng = np.random.default_rng(hash(family) % 2**32)
    n = 2 if family in ("set_function", "two_sat") else 3
    k = 3
    C = random_cost(rng, family, n, k)
    spec = MarginalSpec.fully_fixed(random_marginals(rng, n, k))
    weights = rng.normal(size=(k, n))
    path = tmp_path / "inst.json"
    save_instance(path, C, spec, weights)
    inst = load_instance(path)
    assert (inst.n, inst.k) == (n, k)
    assert inst.cost.family == family
    assert np.array_equal(inst.cost.materialize(), C.materialize())
    assert inst.spec.constrained == spec.constrained
    for a, b in zip(inst.spec.marginals, spec.marginals):
        assert np.array_equal(a, b)
    assert np.array_equal(inst.weights, weights)


def test_instance_floats_are_strings(tmp_path):
    rng = np.random.default_rng(1)
    C = random_cost(rng, "dense", 2, 2)
    path = tmp_path / "inst.json"
    save_instance(path, C, MarginalSpec.fully_fixed(random_marginals(rng, 2, 2)))
    doc = json.loads(path.read_text())
    assert all(isinstance(v, str) for row in doc["cost"]["entries"] for v in row)
    assert all(isinstance(v, str) for vec in doc["marginals"]["values"] for v in vec)
    # modes are 1-based on disk
    assert doc["marginals"]["constrained"] == [1, 2]


def test_partial_marginals_round_trip(tmp_path):
    rng = np.random.default_rng(2)
    C = random_cost(rng, "dense", 3, 3)
    spec = MarginalSpec.partial(3, 3, {1: random_marginals(rng, 3, 1)[0]})
    path = tmp_path / "inst.json"
    save_instance(path, C, spec)
    inst = load_instance(path)
    assert inst.spec.constrained == (1,)


def test_schema_errors():
    with pytest.raises(SchemaError):
        parse_instance({"n": 2, "k": 2})  # no cost
    with pytest.raises(SchemaError):
        parse_instance({"n": 2, "k": 2, "cost": {"family": "no_such"}})
    with pytest.raises(SchemaError):
        parse_instance({"n": 0, "k": 2, "cost": {"family": "dense", "entries": []}})
    with pytest.raises(SchemaError):
        parse_instance(
            {"n": 2, "k": 2, "cost": {"family": "dense", "entries": [["x", "1"], ["1", "0"]]}}
        )
    # a marginal off the simplex is refused where the instance enters
    with pytest.raises(SchemaError, match="bad marginals block.*sums to"):
        parse_instance(
            {"n": 2, "k": 2, "cost": {"family": "dense", "entries": [["0", "1"], ["1", "0"]]},
             "marginals": {"constrained": [1, 2], "values": [["0.45", "0.45"], ["0.5", "0.5"]]}}
        )
    # two_sat clause too wide
    with pytest.raises(SchemaError):
        parse_instance(
            {"n": 2, "k": 3, "cost": {"family": "two_sat", "clauses": [[1, 2, 3]]}}
        )


def test_digest_stable_and_sensitive():
    doc_a = {"n": 2, "k": 2, "cost": {"family": "dense", "entries": [["0", "1"], ["1", "0"]]}}
    doc_b = json.loads(json.dumps(doc_a))
    assert digest(doc_a) == digest(doc_b)
    doc_b["cost"]["entries"][0][0] = "2"
    assert digest(doc_a) != digest(doc_b)


def test_dimacs_graph_round_trip(tmp_path):
    G = UndirectedGraph(4, ((0, 1), (2, 3), (0, 3)))
    path = tmp_path / "g.dimacs"
    write_graph(path, G)
    back = read_graph(path)
    assert back == G
    text = path.read_text()
    assert text.splitlines()[0] == "p edge 4 3"


def test_dimacs_kpartite_round_trip(tmp_path):
    G = KPartiteGraph(n=2, k=3, edges=(((0, 0), (1, 1)), ((1, 0), (2, 1))))
    gp, sp = tmp_path / "g.dimacs", tmp_path / "g.classes.json"
    write_kpartite(gp, sp, G)
    back = read_kpartite(gp, sp)
    assert back == G
    assert instance_digest(back) == instance_digest(G)


def test_dimacs_rejects_malformed(tmp_path):
    path = tmp_path / "bad.dimacs"
    path.write_text("p edge 2 1\nq 1 2\n")
    with pytest.raises(SchemaError):
        read_graph(path)
    path.write_text("e 1 2\n")
    with pytest.raises(SchemaError):
        read_graph(path)
    path.write_text("p edge 2 5\ne 1 2\n")
    with pytest.raises(SchemaError):
        read_graph(path)
    path.write_text("p edge 2.5 1\ne 1 2\n")
    with pytest.raises(SchemaError, match="integer"):
        read_graph(path)


def test_dimacs_cnf_round_trip(tmp_path):
    cnf = CnfFormula(3, ((1, -2), (3,), (-1, -3)))
    path = tmp_path / "f.cnf"
    write_cnf(path, cnf)
    back = read_cnf(path)
    assert back == cnf
    assert path.read_text().splitlines()[0] == "p cnf 3 3"


def test_cnf_rejects_malformed(tmp_path):
    path = tmp_path / "f.cnf"
    path.write_text("p cnf 2 1\n1 2\n")  # missing terminating 0
    with pytest.raises(SchemaError):
        read_cnf(path)
    path.write_text("p cnf 2 1\n1 5 0\n")  # variable out of range
    with pytest.raises(SchemaError):
        read_cnf(path)


def test_encode_instance_digest_matches_file(tmp_path):
    rng = np.random.default_rng(3)
    C = random_cost(rng, "low_rank", 2, 2)
    path = tmp_path / "i.json"
    doc = save_instance(path, C)
    assert digest(doc) == digest(json.loads(path.read_text()))
    assert digest(encode_instance(C)) == instance_digest(C)


def test_parse_int_accepts_whole_numbers_only():
    assert [parse_int(v) for v in (3, 3.0, "3", "-2", np.int64(4))] == [3, 3, 3, -2, 4]
    for bad in (True, False, 2.9, -1.5, "2.5", "abc", None, [1], float("nan"), float("inf")):
        with pytest.raises(SchemaError):
            parse_int(bad)


_SWAP = {"family": "dense", "entries": [["0", "1"], ["1", "0"]]}
_UNIFORM = ["0.5", "0.5"]


@pytest.mark.parametrize("key", ["n", "k"])
def test_instance_size_must_be_whole(key):
    doc = {"n": 2, "k": 2, "cost": _SWAP}
    inst = parse_instance(dict(doc, **{key: 2.0}))  # a whole float is accepted
    assert (inst.n, inst.k) == (2, 2)
    with pytest.raises(SchemaError, match="integer"):
        parse_instance(dict(doc, **{key: 2.9}))  # used to be read as 2


@pytest.mark.parametrize("constrained, values", [
    ([1.7], [_UNIFORM]),  # used to be read as mode 1
    ([True], [_UNIFORM]),  # likewise
    ([1, 1], [["1", "0"], ["0", "1"]]),  # used to keep only the second marginal
])
def test_constrained_modes_must_be_whole_and_distinct(constrained, values):
    doc = {"n": 2, "k": 2, "cost": _SWAP, "marginals": {"constrained": constrained, "values": values}}
    with pytest.raises(SchemaError, match="integer|repeated"):
        parse_instance(doc)


@pytest.mark.parametrize("key, bad", [("i", 1.5), ("j", 2.7), ("i", True)])
def test_pairwise_modes_must_be_whole(key, bad):
    table = {"i": 1, "j": 2, "g": [["0", "1"], ["1", "0"]]}
    doc = {"n": 2, "k": 2, "cost": {"family": "pairwise", "tables": [table]}}
    assert parse_instance(doc).cost.family == "pairwise"
    with pytest.raises(SchemaError, match="integer"):
        parse_instance({**doc, "cost": {"family": "pairwise", "tables": [dict(table, **{key: bad})]}})


def test_two_sat_literals_must_be_whole():
    doc = {"n": 2, "k": 2, "cost": {"family": "two_sat", "clauses": [[1, -2]]}}
    assert parse_instance(doc).cost.cnf.clauses == ((1, -2),)
    with pytest.raises(SchemaError, match="integer"):
        parse_instance({**doc, "cost": {"family": "two_sat", "clauses": [[1.5, -2.2]]}})  # was (1, -2)


def test_ion_charges_must_be_whole():
    cost = {"family": "coulomb", "positions": [["0", "0", "0"], ["1", "0", "0"]], "M": "10"}
    doc = {"n": 2, "k": 2, "cost": dict(cost, charges=[1, -1])}
    assert parse_instance(doc).cost.charges.tolist() == [1, -1]
    with pytest.raises(SchemaError, match="integer"):
        parse_instance({**doc, "cost": dict(cost, charges=[1.9, -1.2])})  # was [1, -1]


@pytest.mark.parametrize("field", ["n", "k", "classes"])
def test_kpartite_sidecar_integers_must_be_whole(tmp_path, field):
    G = KPartiteGraph(n=2, k=3, edges=(((0, 0), (1, 1)),))
    gp, sp = tmp_path / "g.dimacs", tmp_path / "g.classes.json"
    write_kpartite(gp, sp, G)
    side = json.loads(sp.read_text())
    if field == "classes":
        side["classes"][0][0] = 1.5  # was read as class 1
    else:
        side[field] += 0.5  # was truncated back
    sp.write_text(json.dumps(side))
    with pytest.raises(SchemaError, match="integer"):
        read_kpartite(gp, sp)
