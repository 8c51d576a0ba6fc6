"""File formats: instance JSON, DIMACS graphs and CNFs, report serialization.

Instance documents serialize every float as a decimal string with 17
significant digits so files round-trip doubles exactly.  All indices in files
(modes, vertices, variables, witness tuples) are 1-based; the Python API is
0-based throughout.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .costs import (
    CostOracle,
    DenseCost,
    DeterminantCost,
    IonCost,
    LowRankCost,
    PairwiseCost,
    SetFunctionCost,
    TwoSatCost,
)
from .graphs import CnfFormula, KPartiteGraph, UndirectedGraph
from .tensors import MarginalSpec


class SchemaError(ValueError):
    """An input document does not match the instance/graph/CNF schema."""


def float_str(x) -> str:
    return format(float(x), ".17g")


def _floats(arr) -> list:
    arr = np.asarray(arr, dtype=float)
    if arr.ndim == 1:
        return [float_str(v) for v in arr]
    return [_floats(row) for row in arr]


def parse_float(v) -> float:
    if isinstance(v, bool):
        raise SchemaError(f"expected a number, got {v!r}")
    if isinstance(v, (int, float)):
        x = float(v)
    elif isinstance(v, str):
        try:
            x = float(v)
        except ValueError as exc:
            raise SchemaError(f"bad float literal {v!r}") from exc
    else:
        raise SchemaError(f"expected a number, got {type(v).__name__}")
    if not np.isfinite(x):
        raise SchemaError(f"non-finite float {v!r}")
    return x


def parse_int(v) -> int:
    """An integer field: an int, an integral float or a decimal integer
    string; bools, fractions and anything else raise SchemaError."""
    if isinstance(v, str):
        try:
            return int(v)
        except ValueError as exc:
            raise SchemaError(f"bad integer literal {v!r}") from exc
    if isinstance(v, (int, np.integer)) and not isinstance(v, bool):
        return int(v)
    if isinstance(v, float) and v.is_integer():
        return int(v)
    raise SchemaError(f"expected an integer, got {v!r}")


def parse_float_array(v, shape=None) -> np.ndarray:
    def walk(node):
        if isinstance(node, list):
            return [walk(x) for x in node]
        return parse_float(node)

    arr = np.asarray(walk(v), dtype=float)
    if shape is not None and arr.shape != tuple(shape):
        raise SchemaError(f"array has shape {arr.shape}, want {tuple(shape)}")
    return arr


def digest(doc) -> str:
    """sha256 of the canonical JSON encoding."""
    blob = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


# ---------------------------------------------------------------------------
# cost payloads


def encode_cost(C: CostOracle) -> dict:
    fam = C.family
    if isinstance(C, DenseCost):
        return {"family": "dense", "entries": _floats(C.array)}
    if isinstance(C, LowRankCost):
        return {
            "family": "low_rank",
            "terms": [[_floats(u) for u in term] for term in C.terms],
        }
    if isinstance(C, PairwiseCost):
        tables = [
            {"i": i + 1, "j": i2 + 1, "g": _floats(C.tables[(i, i2)])}
            for (i, i2) in sorted(C.tables)
        ]
        return {"family": "pairwise", "tables": tables}
    if isinstance(C, DeterminantCost):
        return {"family": fam, "points": _floats(C.points)}
    if isinstance(C, SetFunctionCost):
        table = C.with_table().table
        return {"family": "set_function", "table": _floats(table)}
    if isinstance(C, IonCost):
        return {
            "family": fam,
            "positions": _floats(C.positions),
            "charges": [int(q) for q in C.charges],
            "A_plus": float_str(C.a_plus),
            "A_minus": float_str(C.a_minus),
            "B_plus": float_str(C.b_plus),
            "B_minus": float_str(C.b_minus),
            "C_plus": float_str(C.c_plus),
            "C_minus": float_str(C.c_minus),
            "M": float_str(C.m_penalty),
        }
    if isinstance(C, TwoSatCost):
        return {"family": "two_sat", "clauses": [list(cl) for cl in C.cnf.clauses]}
    raise SchemaError(f"cannot encode cost family {fam!r}")


def decode_cost(doc: dict, n: int, k: int) -> CostOracle:
    if not isinstance(doc, dict) or "family" not in doc:
        raise SchemaError("cost must be an object with a 'family' tag")
    fam = doc["family"]
    try:
        if fam == "dense":
            return DenseCost(parse_float_array(doc["entries"], shape=(n,) * k))
        if fam == "low_rank":
            terms = tuple(
                tuple(parse_float_array(u, shape=(n,)) for u in term)
                for term in doc["terms"]
            )
            if any(len(t) != k for t in doc["terms"]):
                raise SchemaError("each low-rank term needs k factor vectors")
            return LowRankCost(n=n, k=k, terms=terms)
        if fam == "pairwise":
            tables = {}
            for entry in doc["tables"]:
                i, i2 = parse_int(entry["i"]) - 1, parse_int(entry["j"]) - 1
                tables[(i, i2)] = parse_float_array(entry["g"], shape=(n, n))
            return PairwiseCost(n=n, k=k, tables=tables)
        if fam in ("determinant", "log_determinant"):
            pts = parse_float_array(doc["points"], shape=(n, k))
            variant = "neg_abs_det" if fam == "determinant" else "capped_neg_log_abs_det"
            return DeterminantCost(points=pts, variant=variant)
        if fam == "set_function":
            if n != 2:
                raise SchemaError("set_function costs require n = 2")
            return SetFunctionCost(k=k, table=parse_float_array(doc["table"], shape=(2**k,)))
        if fam in ("coulomb", "coulomb_buckingham"):
            return IonCost(
                positions=parse_float_array(doc["positions"], shape=(n, 3)),
                charges=np.array([parse_int(q) for q in doc.get("charges", [1] * n)], dtype=int),
                k=k,
                m_penalty=parse_float(doc["M"]),
                a_plus=parse_float(doc.get("A_plus", 1.0)),
                a_minus=parse_float(doc.get("A_minus", 1.0)),
                b_plus=parse_float(doc.get("B_plus", 1.0)),
                b_minus=parse_float(doc.get("B_minus", 1.0)),
                c_plus=parse_float(doc.get("C_plus", 1.0)),
                c_minus=parse_float(doc.get("C_minus", 1.0)),
                variant="coulomb" if fam == "coulomb" else "buckingham",
            )
        if fam == "two_sat":
            if n != 2:
                raise SchemaError("two_sat costs require n = 2")
            clauses = tuple(tuple(parse_int(l) for l in cl) for cl in doc["clauses"])
            cnf = CnfFormula(num_vars=k, clauses=clauses)
            if cnf.max_width > 2:
                raise SchemaError("two_sat clauses must have width at most 2")
            return TwoSatCost(cnf=cnf)
    except SchemaError:
        raise
    except (KeyError, TypeError, ValueError) as exc:
        raise SchemaError(f"bad payload for family {fam!r}: {exc}") from exc
    raise SchemaError(f"unknown cost family {fam!r}")


# ---------------------------------------------------------------------------
# instance documents


@dataclass(frozen=True)
class Instance:
    n: int
    k: int
    cost: CostOracle
    spec: MarginalSpec | None
    weights: np.ndarray | None
    doc: dict


def encode_instance(C: CostOracle, spec: MarginalSpec | None = None, weights=None) -> dict:
    doc = {"n": C.n, "k": C.k, "cost": encode_cost(C)}
    if spec is not None:
        doc["marginals"] = {
            "constrained": [i + 1 for i in spec.constrained],
            "values": [_floats(mu) for mu in spec.marginals],
        }
    if weights is not None:
        doc["weights_p"] = _floats(np.asarray(weights, dtype=float))
    return doc


def parse_instance(doc: dict) -> Instance:
    if not isinstance(doc, dict):
        raise SchemaError("instance must be a JSON object")
    for key in ("n", "k", "cost"):
        if key not in doc:
            raise SchemaError(f"instance missing required key {key!r}")
    n, k = parse_int(doc["n"]), parse_int(doc["k"])
    if n < 1 or k < 1:
        raise SchemaError("n and k must be positive")
    cost = decode_cost(doc["cost"], n, k)

    spec = None
    if "marginals" in doc and doc["marginals"] is not None:
        m = doc["marginals"]
        try:
            modes = [parse_int(i) - 1 for i in m["constrained"]]
            values = m["values"]
            if len(set(modes)) < len(modes):
                raise SchemaError(f"repeated constrained mode in {m['constrained']}")
            if len(values) != len(modes):
                raise SchemaError("one marginal vector required per constrained mode")
            fixed = {
                mode: parse_float_array(vec, shape=(n,))
                for mode, vec in zip(modes, values)
            }
            spec = MarginalSpec.partial(n, k, fixed)
        except SchemaError:
            raise
        except (KeyError, TypeError, ValueError) as exc:
            raise SchemaError(f"bad marginals block: {exc}") from exc

    weights = None
    if "weights_p" in doc and doc["weights_p"] is not None:
        weights = parse_float_array(doc["weights_p"], shape=(k, n))

    return Instance(n=n, k=k, cost=cost, spec=spec, weights=weights, doc=doc)


def save_instance(path, C: CostOracle, spec=None, weights=None) -> dict:
    doc = encode_instance(C, spec, weights)
    Path(path).write_text(json.dumps(doc, indent=1) + "\n")
    return doc


def load_instance(path) -> Instance:
    try:
        doc = json.loads(Path(path).read_text())
    except json.JSONDecodeError as exc:
        raise SchemaError(f"invalid JSON in {path}: {exc}") from exc
    return parse_instance(doc)


def instance_digest(obj) -> str:
    """Digest of a cost/instance/graph/CNF via its canonical document."""
    if isinstance(obj, dict):
        return digest(obj)
    if isinstance(obj, CostOracle):
        return digest(encode_instance(obj))
    if isinstance(obj, KPartiteGraph):
        return digest(encode_kpartite(obj))
    if isinstance(obj, UndirectedGraph):
        return digest(encode_graph(obj))
    if isinstance(obj, CnfFormula):
        return digest(encode_cnf(obj))
    raise TypeError(f"cannot digest {type(obj).__name__}")


# ---------------------------------------------------------------------------
# DIMACS graphs and CNFs


def encode_graph(G: UndirectedGraph) -> dict:
    return {"vertices": G.num_vertices, "edges": [[u + 1, v + 1] for u, v in G.edges]}


def encode_kpartite(G: KPartiteGraph) -> dict:
    return {
        "n": G.n,
        "k": G.k,
        "edges": [[[i + 1, a + 1], [i2 + 1, b + 1]] for (i, a), (i2, b) in G.edges],
    }


def encode_cnf(cnf: CnfFormula) -> dict:
    return {"vars": cnf.num_vars, "clauses": [list(cl) for cl in cnf.clauses]}


def _dimacs_lines(path):
    for raw in Path(path).read_text().splitlines():
        line = raw.strip()
        if not line or line.startswith("c"):
            continue
        yield line.split()


def read_dimacs_graph(path) -> tuple[int, list[tuple[int, int]]]:
    """Parse 'p edge N M' / 'e u v' lines into (N, 0-based edge list)."""
    num = None
    declared = None
    edges = []
    for fields in _dimacs_lines(path):
        if fields[0] == "p":
            if len(fields) != 4 or fields[1] not in ("edge", "edges"):
                raise SchemaError(f"bad DIMACS problem line: {' '.join(fields)}")
            num, declared = parse_int(fields[2]), parse_int(fields[3])
        elif fields[0] == "e":
            if len(fields) != 3:
                raise SchemaError(f"bad edge line: {' '.join(fields)}")
            edges.append((parse_int(fields[1]) - 1, parse_int(fields[2]) - 1))
        else:
            raise SchemaError(f"unexpected DIMACS line: {' '.join(fields)}")
    if num is None:
        raise SchemaError("missing 'p edge' line")
    if declared is not None and declared != len(edges):
        raise SchemaError(f"declared {declared} edges, found {len(edges)}")
    return num, edges


def read_graph(path) -> UndirectedGraph:
    num, edges = read_dimacs_graph(path)
    try:
        return UndirectedGraph(num_vertices=num, edges=tuple(edges))
    except ValueError as exc:
        raise SchemaError(str(exc)) from exc


def read_kpartite(path, sidecar_path) -> KPartiteGraph:
    """DIMACS edges plus a JSON sidecar mapping vertices to (class, index).

    Sidecar schema: {"n": ..., "k": ..., "classes": [[class, index], ...]}
    with one 1-based [class, index] pair per DIMACS vertex, in vertex order.
    """
    num, edges = read_dimacs_graph(path)
    try:
        side = json.loads(Path(sidecar_path).read_text())
        n, k = parse_int(side["n"]), parse_int(side["k"])
        classes = side["classes"]
        if len(classes) != num:
            raise SchemaError(f"sidecar maps {len(classes)} vertices, graph has {num}")
        vmap = [(parse_int(c) - 1, parse_int(i) - 1) for c, i in classes]
        pedges = tuple((vmap[u], vmap[v]) for u, v in edges)
        return KPartiteGraph(n=n, k=k, edges=pedges)
    except SchemaError:
        raise
    except (KeyError, TypeError, ValueError, json.JSONDecodeError) as exc:
        raise SchemaError(f"bad k-partite sidecar: {exc}") from exc


def write_graph(path, G: UndirectedGraph):
    lines = [f"p edge {G.num_vertices} {G.edge_count}"]
    lines += [f"e {u + 1} {v + 1}" for u, v in G.edges]
    Path(path).write_text("\n".join(lines) + "\n")


def write_kpartite(path, sidecar_path, G: KPartiteGraph):
    vid = {}
    for i in range(G.k):
        for a in range(G.n):
            vid[(i, a)] = len(vid) + 1
    lines = [f"p edge {G.n * G.k} {G.edge_count}"]
    lines += [f"e {vid[u]} {vid[v]}" for u, v in G.edges]
    Path(path).write_text("\n".join(lines) + "\n")
    side = {
        "n": G.n,
        "k": G.k,
        "classes": [[i + 1, a + 1] for i in range(G.k) for a in range(G.n)],
    }
    Path(sidecar_path).write_text(json.dumps(side, indent=1) + "\n")


def read_cnf(path) -> CnfFormula:
    num_vars = None
    clauses = []
    for fields in _dimacs_lines(path):
        if fields[0] == "p":
            if len(fields) != 4 or fields[1] != "cnf":
                raise SchemaError(f"bad DIMACS problem line: {' '.join(fields)}")
            num_vars = parse_int(fields[2])
        else:
            lits = [parse_int(x) for x in fields]
            if lits[-1] != 0:
                raise SchemaError("clause line must end with 0")
            clause = tuple(lits[:-1])
            if not clause:
                raise SchemaError("empty clause")
            clauses.append(clause)
    if num_vars is None:
        raise SchemaError("missing 'p cnf' line")
    try:
        return CnfFormula(num_vars=num_vars, clauses=tuple(clauses))
    except ValueError as exc:
        raise SchemaError(str(exc)) from exc


def write_cnf(path, cnf: CnfFormula):
    lines = [f"p cnf {cnf.num_vars} {len(cnf.clauses)}"]
    lines += [" ".join(str(l) for l in cl) + " 0" for cl in cnf.clauses]
    Path(path).write_text("\n".join(lines) + "\n")


def write_report(path, report: dict):
    Path(path).write_text(json.dumps(report, indent=1, default=_json_default) + "\n")


def _json_default(obj):
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    raise TypeError(f"not JSON serializable: {type(obj).__name__}")
