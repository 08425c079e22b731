"""Tests of the benchmark's own input builders and oracle, apart from nlwe.

    python3 -m pytest -q perfbench/test_perfbench.py
"""

import json
import math

import numpy as np
import pytest

import inputs
import oracle


def vectors(upb):
    obj = inputs.upb_obj(upb)
    return np.array([oracle.state_vector(s, upb["dims"]) for s in obj["states"]])


def relabels(name):
    _, (_, d) = inputs.PRODUCTS[name]
    rng = np.random.default_rng(5)
    return [None, list(range(d))[::-1], inputs.seeded_relabel(name, rng)]


@pytest.mark.parametrize("name", sorted(inputs.PRODUCTS))
def test_product_sets_are_orthonormal_minimal_and_have_a_stopper(name):
    for relabel in relabels(name):
        upb = inputs.product_upb(name, relabel)
        v = vectors(upb)
        assert np.allclose(v.conj() @ v.T, np.eye(len(v)), atol=1e-12)
        assert len(v) >= sum(d - 1 for d in upb["dims"]) + 1
        assert len(v) < math.prod(upb["dims"])
        assert 0 <= upb["stopper"] < len(v)


@pytest.mark.parametrize("name", sorted(inputs.PRODUCTS))
def test_relabel_permutes_members_and_the_stopper_follows(name):
    plain = inputs.product_upb(name)
    for relabel in relabels(name)[1:]:
        moved = inputs.product_upb(name, relabel)
        assert sorted(map(repr, moved["members"])) == sorted(map(repr, plain["members"]))
        assert moved["members"][moved["stopper"]] == plain["members"][plain["stopper"]]


def test_relabel_rejects_a_non_permutation():
    with pytest.raises(ValueError):
        inputs.product_upb("shift-x-cb3", [0, 0, 1])


@pytest.mark.parametrize("name", ["shift-x-cb3", "tiles-x-cb3"])
def test_leave_one_out_is_extended_by_the_member_removed(name):
    upb = inputs.product_upb(name)
    v = vectors(upb)
    for r in range(len(v)):
        rest = inputs.leave_one_out(upb, r)
        assert len(rest["members"]) == len(v) - 1
        assert 0 <= rest["stopper"] < len(rest["members"])
        assert np.max(np.abs(vectors(rest).conj() @ v[r])) < 1e-12


def test_upb_file_round_trips_through_json(tmp_path):
    path = tmp_path / "tiles.json"
    inputs.write_upb(path, inputs.product_upb("tiles-x-cb2"))
    obj = json.loads(path.read_text())
    assert obj["dims"] == [3, 3, 2]
    assert obj["states"][0]["factors"][1]["kind"] == "dense"
    assert obj["states"][8]["factors"][0] == {"kind": "dft", "index": 0}


def shift_basis_states():
    """The eight SHIFT basis states as JSON states: |abc> with F on the
    party after a gate's controls."""
    def st(*fs):
        return {"factors": [{"kind": k, "index": i} for k, i in fs]}
    cb, ft = "cb", "dft"
    return [
        st((cb, 0), (cb, 0), (cb, 0)), st((cb, 1), (cb, 1), (cb, 1)),
        st((cb, 0), (cb, 1), (ft, 0)), st((cb, 0), (cb, 1), (ft, 1)),
        st((cb, 1), (ft, 0), (cb, 0)), st((cb, 1), (ft, 1), (cb, 0)),
        st((ft, 0), (cb, 0), (cb, 1)), st((ft, 1), (cb, 0), (cb, 1)),
    ]


def test_exact_rule_accepts_a_basis_and_rejects_overlaps():
    states = shift_basis_states()
    vecs = np.array([oracle.state_vector(s, (2, 2, 2)) for s in states])
    assert np.allclose(vecs.conj() @ vecs.T, np.eye(8), atol=1e-12)
    assert oracle.exact_orthogonality_problems(states, (2, 2, 2)) == []
    assert oracle.exact_orthogonality_problems(states + states[:1], (2, 2, 2))
    # |0>|1>|0> meets |0>|1>F|0> only through a CB-DFT overlap of 1/sqrt(2)
    clash = {"factors": [{"kind": "cb", "index": 0}, {"kind": "cb", "index": 1},
                         {"kind": "cb", "index": 0}]}
    assert oracle.exact_orthogonality_problems(states[2:3] + [clash], (2, 2, 2))


def valid_assignment(upb, removed):
    """Assign each member to a party where it is orthogonal to ``removed``."""
    out = []
    for member in upb["members"]:
        for j, (a, b) in enumerate(zip(member, removed)):
            if a[0] == b[0] != "dense" and a[1] != b[1]:
                out.append(j)
                break
        else:
            raise AssertionError("member not orthogonal to the removed one")
    return out


def test_oracle_accepts_a_witness_and_rejects_a_corrupted_one(tmp_path):
    upb = inputs.product_upb("shift-x-cb3")
    rest = inputs.leave_one_out(upb, 5)
    path = tmp_path / "rest.json"
    inputs.write_upb(path, rest)
    good = valid_assignment(rest, upb["members"][5])
    m = len(rest["members"])
    line = "extendible, 7 assignments examined; witness assignment ({})"
    out = line.format(", ".join(map(str, good))) + "\n"
    assert oracle.check_upb_decision(1, out, str(path), expect_extendible=True) == []
    bad = line.format(", ".join(["0"] * m)) + "\n"
    assert oracle.check_upb_decision(1, bad, str(path), expect_extendible=True)
    short = line.format(", ".join(map(str, good[:-1]))) + "\n"
    assert oracle.check_upb_decision(1, short, str(path), expect_extendible=True)
    assert oracle.check_upb_decision(0, "unextendible, 1 assignments examined\n",
                                     str(path), expect_extendible=True)


def write_density(path, matrix, dims):
    entries = [[z.real, z.imag] for z in matrix.reshape(-1)]
    path.write_text(json.dumps({"dims": list(dims), "rows": len(matrix),
                                "cols": len(matrix), "entries": entries}))


def test_oracle_accepts_the_complement_mixture_and_rejects_a_corrupted_one(tmp_path):
    upb = inputs.product_upb("shift-x-cb2")
    obj = inputs.upb_obj(upb)
    v = vectors(upb)
    total, m = v.shape[1], len(v)
    rho = (np.eye(total) - v.T @ v.conj()) / (total - m)
    path = tmp_path / "rho.json"
    write_density(path, rho, upb["dims"])
    assert oracle.density_problems(str(path), obj) == []
    corrupted = rho.copy()
    corrupted[0, 0] += 1e-6
    corrupted[1, 1] -= 1e-6
    write_density(path, corrupted, upb["dims"])
    assert oracle.density_problems(str(path), obj)
    fewer = (np.eye(total) - v[1:].T @ v[1:].conj()) / (total - m + 1)
    write_density(path, fewer, upb["dims"])
    assert oracle.density_problems(str(path), obj)


def test_bipartitions_count():
    assert [len(oracle.bipartitions(n)) for n in (2, 3, 4, 6)] == [1, 3, 7, 31]
