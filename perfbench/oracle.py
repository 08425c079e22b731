"""Independent verdict oracle for the benchmark's CLI cases (numpy only).

Nothing here imports ``nlwe``: factors are rendered from the JSON files with
this module's own DFT matrix, spectra come from LAPACK (``eigvalsh``), and
orthogonality of symbolic sets is decided by the exact rule

    two product states of computational (CB) and dual-basis (DFT) kets are
    orthogonal iff some party holds two kets of the same basis with
    different labels,

which holds because CB-CB and DFT-DFT overlaps are Kronecker deltas and
CB-DFT overlaps have modulus 1/sqrt(d), never 0.

Every check returns a list of problems; an empty list means the output is
correct.
"""

from __future__ import annotations

import json
import math
import re

import numpy as np

EIG_TOL = 1e-9
ANNIHILATION_TOL = 1e-9


def load_json(path):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def dft_ket(k, d):
    """F|k> with F[l, k] = exp(+2 pi i l k / d) / sqrt(d)."""
    return np.exp(2j * np.pi * k * np.arange(d) / d) / math.sqrt(d)


def render(factor, d):
    kind = factor["kind"]
    if kind == "cb":
        v = np.zeros(d, dtype=complex)
        v[int(factor["index"])] = 1.0
        return v
    if kind == "dft":
        return dft_ket(int(factor["index"]), d)
    if kind == "dense":
        return np.array([complex(re_, im) for re_, im in factor["entries"]])
    raise ValueError(f"unknown factor kind {kind!r}")


def state_vector(state, dims):
    out = np.ones(1, dtype=complex)
    for factor, d in zip(state["factors"], dims):
        out = np.kron(out, render(factor, d))
    return out


def preset_dims(preset):
    """Local dimensions of a CLI preset, parsed here rather than by nlwe."""
    if preset == "shift":
        return (2, 2, 2)
    if preset == "fig4":
        return (3, 3, 3, 3)
    m = re.fullmatch(r"canonical:n=(\d+),d=([\d,]+)", preset)
    if not m:
        raise ValueError(f"unknown preset {preset!r}")
    n = int(m.group(1))
    dims = tuple(int(t) for t in m.group(2).split(","))
    return dims * n if len(dims) == 1 else dims


def symbolic_table(states, n):
    """(kinds, labels) integer arrays of shape (m, n); kinds 0 = CB, 1 = DFT.
    Raises ValueError on a dense factor."""
    kinds = np.empty((len(states), n), dtype=np.int64)
    labels = np.empty((len(states), n), dtype=np.int64)
    for i, state in enumerate(states):
        for p, factor in enumerate(state["factors"]):
            if factor["kind"] not in ("cb", "dft"):
                raise ValueError(f"state {i} has a {factor['kind']} factor")
            kinds[i, p] = factor["kind"] == "dft"
            labels[i, p] = int(factor["index"])
    return kinds, labels


def exact_orthogonality_problems(states, dims):
    """Pairwise orthogonality of symbolic product states by the exact rule.

    States are grouped by their pattern of kets' bases.  Within a group every
    party compares like with like, so the label tuples must be distinct; for
    two groups only the parties where the patterns agree can separate a
    pair, so the label tuples projected onto those parties must be disjoint.
    """
    n = len(dims)
    try:
        kinds, labels = symbolic_table(states, n)
    except (KeyError, ValueError) as exc:
        return [f"not a symbolic set: {exc}"]
    radix = np.cumprod((1,) + tuple(dims[:-1]), dtype=np.int64)
    patterns, group_of = np.unique(kinds, axis=0, return_inverse=True)
    group_of = group_of.reshape(-1)
    problems = []
    for g in range(len(patterns)):
        for h in range(g, len(patterns)):
            common = patterns[g] == patterns[h]
            codes_g = labels[group_of == g][:, common] @ radix[common]
            codes_h = labels[group_of == h][:, common] @ radix[common]
            if g == h:
                if len(np.unique(codes_g)) != len(codes_g):
                    problems.append(f"two states with the same kets in pattern {patterns[g]}")
            elif not common.any() or np.intersect1d(codes_g, codes_h).size:
                problems.append(
                    f"a state of pattern {patterns[g]} meets one of {patterns[h]}"
                )
    return problems


def census(states, party):
    return {(f["kind"], f["index"]) for f in (s["factors"][party] for s in states)}


def check_basis(path, preset):
    """A generated basis: dims of the preset, D states, exactly orthogonal,
    census <= 2d on every party."""
    obj = load_json(path)
    dims = preset_dims(preset)
    problems = []
    if tuple(obj["dims"]) != dims:
        return [f"dims {obj['dims']} differ from {dims}"]
    states = obj["states"]
    if len(states) != math.prod(dims):
        problems.append(f"{len(states)} states, expected D = {math.prod(dims)}")
    problems += exact_orthogonality_problems(states, dims)
    for p, d in enumerate(dims):
        size = len(census(states, p))
        if size > 2 * d:
            problems.append(f"party {p} census {size} > 2d = {2 * d}")
    return problems


def non_exclusive_pairs(circuit):
    """Gate pairs (i, j) that share no control party with differing values."""
    gates = [{int(p): int(v) for p, v in g["controls"].items()} for g in circuit["gates"]]
    return [
        (i, j)
        for i in range(len(gates))
        for j in range(i + 1, len(gates))
        if not any(gates[i][p] != gates[j][p] for p in gates[i].keys() & gates[j].keys())
    ]


def expected_rows(basis_obj, checks):
    """Row name -> expected pass flag, derived from the basis file alone.

    Orthogonality and product form follow from the exact rule and the unit
    norms of CB/DFT kets; commutation follows from exclusivity.  Census rows
    also carry the census size, compared against the report's residual.
    """
    dims = tuple(basis_obj["dims"])
    states = basis_obj["states"]
    circuit = basis_obj.get("circuit")
    rows = {}
    if "orth" in checks:
        rows["orthogonality"] = (not exact_orthogonality_problems(states, dims), None)
    if "product" in checks:
        rows["product-form"] = (True, None)
    n_gates = len(circuit["gates"]) if circuit else 0
    bad_pairs = set(non_exclusive_pairs(circuit)) if circuit else set()
    for i in range(n_gates):
        for j in range(i + 1, n_gates):
            if "exclusivity" in checks:
                rows[f"exclusive[{i},{j}]"] = ((i, j) not in bad_pairs, None)
            if "commutation" in checks and not bad_pairs:
                rows[f"commute[{i},{j}]"] = (True, None)
    if "census" in checks:
        for p, d in enumerate(dims):
            size = len(census(states, p))
            rows[f"census[{party_name(p)}]"] = (size <= 2 * d, float(size))
    return rows


def party_name(p):
    return chr(ord("A") + p) if p < 26 else f"P{p + 1}"


def parse_table(text):
    """Rows of a report table: name -> (passed, residual or None)."""
    lines = [ln for ln in text.splitlines() if ln.strip()]
    try:
        start = next(i for i, ln in enumerate(lines) if ln.split()[:2] == ["check", "pass"])
    except StopIteration:
        return {}
    rows = {}
    for ln in lines[start + 1:]:
        parts = ln.split()
        if len(parts) < 3 or parts[1] not in ("ok", "FAIL"):
            continue
        residual = None if parts[2] == "-" else float(parts[2])
        rows[parts[0]] = (parts[1] == "ok", residual)
    return rows


def compare_rows(got, want):
    problems = []
    if set(got) != set(want):
        missing = sorted(set(want) - set(got))
        extra = sorted(set(got) - set(want))
        problems.append(f"report rows differ: missing {missing[:4]}, extra {extra[:4]}")
    for name, (ok, residual) in want.items():
        if name not in got:
            continue
        if got[name][0] != ok:
            problems.append(f"row {name}: pass={got[name][0]}, expected {ok}")
        if residual is not None and got[name][1] != residual:
            problems.append(f"row {name}: residual {got[name][1]}, expected {residual}")
    return problems


def check_verify(rc, stdout, basis_path, checks, json_path=None):
    """A ``verify`` verdict: every row the oracle expects, with the expected
    pass flag, and exit code 0 exactly when all rows pass."""
    want = expected_rows(load_json(basis_path), checks)
    if json_path is None:
        got = parse_table(stdout)
    else:
        got = {
            c["name"]: (bool(c["pass"]), c["residual"])
            for c in load_json(json_path)["checks"]
        }
    problems = compare_rows(got, want)
    expected_rc = 0 if all(ok for ok, _ in want.values()) else 1
    if rc != expected_rc:
        problems.append(f"exit code {rc}, expected {expected_rc}")
    return problems


def check_extraction(path, preset, excluded):
    """A stopper-completed extraction: sum(d_j - 1) + 1 members, exactly
    orthogonal, the last member the stopper of excluded DFT kets."""
    obj = load_json(path)
    dims = preset_dims(preset)
    states = obj["states"]
    problems = []
    size = sum(d - 1 for d in dims) + 1
    if tuple(obj["dims"]) != dims:
        return [f"dims {obj['dims']} differ from {dims}"]
    if len(states) != size:
        problems.append(f"{len(states)} members, expected {size}")
    stopper_index = obj["stopper_index"]
    if not 0 <= stopper_index < len(states):
        return problems + [f"stopper index {stopper_index} out of range"]
    want = [{"kind": "dft", "index": excluded.get(p, d - 1)} for p, d in enumerate(dims)]
    if states[stopper_index]["factors"] != want:
        problems.append(f"stopper {states[stopper_index]['factors']} is not {want}")
    problems += exact_orthogonality_problems(states, dims)
    return problems


_VERDICT = re.compile(
    r"^(extendible|unextendible), (\d+) assignments examined"
    r"(?:; witness assignment \(([\d, ]*)\))?"
)


def witness_problems(upb_obj, assignment):
    """An assignment proves extendibility iff, at every party, the factors
    of the members assigned there span less than the local dimension."""
    dims = upb_obj["dims"]
    states = upb_obj["states"]
    if len(assignment) != len(states) or any(not 0 <= j < len(dims) for j in assignment):
        return [f"witness assignment {assignment} does not fit {len(states)} members"]
    problems = []
    for j, d in enumerate(dims):
        assigned = [render(s["factors"][j], d) for s, a in zip(states, assignment) if a == j]
        if assigned and np.linalg.matrix_rank(np.array(assigned)) >= d:
            problems.append(f"witness assigns party {j} factors of full rank {d}")
    return problems


def check_upb_decision(rc, stdout, upb_path, expect_extendible):
    """An ``upb check`` verdict against the expected one.  "extendible"
    must come with a witness assignment the oracle confirms; "unextendible"
    must report the full n^m assignments covered."""
    upb_obj = load_json(upb_path)
    first = stdout.splitlines()[0] if stdout else ""
    m = _VERDICT.match(first)
    if not m:
        return [f"no verdict line in output: {first!r}"]
    extendible = m.group(1) == "extendible"
    problems = []
    if extendible != expect_extendible:
        problems.append(f"verdict {m.group(1)}, expected the other")
    if rc != (1 if extendible else 0):
        problems.append(f"exit code {rc} for verdict {m.group(1)}")
    if extendible:
        if m.group(3) is None:
            return problems + ["extendible verdict without a witness assignment"]
        assignment = [int(t) for t in m.group(3).split(",") if t.strip()]
        problems += witness_problems(upb_obj, assignment)
    else:
        bound = len(upb_obj["dims"]) ** len(upb_obj["states"])
        if int(m.group(2)) != bound:
            problems.append(f"{m.group(2)} assignments covered, expected n^m = {bound}")
    return problems


def bipartitions(n):
    """Every cut as the set of parties on party 0's side: 2^(n-1) - 1."""
    return [
        [p for p in range(n) if mask >> p & 1]
        for mask in range(1, 2**n - 1)
        if mask & 1
    ]


def partial_transpose(rho, dims, subset):
    n = len(dims)
    t = rho.reshape(tuple(dims) * 2)
    axes = list(range(2 * n))
    for p in subset:
        axes[p], axes[n + p] = axes[n + p], axes[p]
    return t.transpose(axes).reshape(rho.shape)


def spectrum_problems(matrix, m, label):
    """Eigenvalues 0 (m times) and 1/(D - m) (D - m times), within 1e-9."""
    total = matrix.shape[0]
    want = np.concatenate([np.zeros(m), np.full(total - m, 1.0 / (total - m))])
    got = np.linalg.eigvalsh((matrix + matrix.conj().T) / 2)
    dev = float(np.max(np.abs(got - want)))
    return [] if dev <= EIG_TOL else [f"{label} spectrum off by {dev:.2e}"]


def density_problems(rho_path, upb_obj):
    """The exported complement mixture rho = (I - P)/(D - m), through its
    spectrum, the members it annihilates, and its partial transposes: on
    cut S, rho^{T_S} = (I - P_S)/(D - m) with P_S the projector onto the
    members conjugated on S, so it has the same spectrum."""
    obj = load_json(rho_path)
    dims = tuple(upb_obj["dims"])
    total = math.prod(dims)
    if tuple(obj["dims"]) != dims or (obj["rows"], obj["cols"]) != (total, total):
        return [f"density matrix shape/dims do not match {dims}"]
    rho = np.array([complex(re_, im) for re_, im in obj["entries"]]).reshape(total, total)
    m = len(upb_obj["states"])
    problems = spectrum_problems(rho, m, "rho")
    worst = max(
        abs(complex(np.vdot(v, rho @ v)))
        for v in (state_vector(s, dims) for s in upb_obj["states"])
    )
    if worst > ANNIHILATION_TOL:
        problems.append(f"rho does not annihilate the members ({worst:.2e})")
    for subset in bipartitions(len(dims)):
        problems += spectrum_problems(
            partial_transpose(rho, dims, subset), m, f"partial transpose on {subset}"
        )
    return problems


def check_bestate(rc, stdout, upb_path, rho_path, separability):
    """A ``bestate --ppt [--separability] --out`` run: the exported matrix,
    and a report with trace, rank, annihilation, 2^(n-1)-1 ppt rows and, if
    asked, n completion rows, all passing."""
    upb_obj = load_json(upb_path)
    n = len(upb_obj["dims"])
    rows = parse_table(stdout)
    problems = []
    if rc != 0:
        problems.append(f"exit code {rc}, expected 0")
    for name in ("trace", "rank", "annihilation"):
        if rows.get(name, (False,))[0] is not True:
            problems.append(f"row {name} missing or failing")
    expected_rank = math.prod(upb_obj["dims"]) - len(upb_obj["states"])
    if rows.get("rank", (None, None))[1] != float(expected_rank):
        problems.append(f"rank row does not report {expected_rank}")
    for prefix, count in (("ppt[", 2 ** (n - 1) - 1), ("completion[", n if separability else 0)):
        found = [ok for name, (ok, _) in rows.items() if name.startswith(prefix)]
        if len(found) != count or not all(found):
            problems.append(f"{len(found)} {prefix[:-1]} rows ({sum(found)} passing), expected {count}")
    return problems + density_problems(rho_path, upb_obj)
