import hashlib
import json
import os
import re
import subprocess
import sys
import tempfile
import threading
import time
import tracemalloc
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from nlwe import boundent, serialize
from nlwe.circuit import Circuit, ControlDftGate, generate_basis
from nlwe.cli import _write_or_print, main
from nlwe.errors import MalformedJsonError, NlweError
from nlwe.ensembles import preset_circuit, shift_circuit
from nlwe.states import CB, Dense, LocalFactors, ProductBasis, ProductState
from nlwe.upb import extract_upb

from helpers import circuits_on, from_states, product_tables, reference_dumps


# the writers' whole texts: their pieces joined
def basis_text(basis, circuit=None):
    return "".join(serialize.basis_pieces(basis, circuit))


def upb_text(upb):
    return "".join(serialize.upb_pieces(upb))


def density_text(matrix, dims):
    return "".join(serialize.density_pieces(matrix, dims))


class TestSerialization:
    def test_basis_round_trip(self):
        circuit = shift_circuit()
        basis = generate_basis(circuit)
        text = serialize.dumps(serialize.basis_to_obj(basis, circuit))
        loaded, loaded_circuit = serialize.basis_from_obj(serialize.loads(text))
        assert loaded.states == basis.states
        assert loaded_circuit.gates == circuit.gates
        assert loaded_circuit.dims == circuit.dims

    def test_dense_factor_round_trip_exact(self):
        v = np.array([1 / np.sqrt(3), 1j / np.sqrt(3), -1 / np.sqrt(3)])
        basis = from_states(ProductBasis, [ProductState((Dense(v), CB(1)), (3, 2))], (3, 2))
        back, _ = serialize.basis_from_obj(serialize.loads(basis_text(basis)))
        assert np.array_equal(back.factors[0][0].entries, v)

    def test_seventeen_digit_floats(self):
        text = serialize.dumps({"x": 1 / np.sqrt(2)})
        assert "0.70710678118654746" in text

    def test_redump_is_byte_identical(self):
        upb = extract_upb(shift_circuit(), {0: 0, 1: 0, 2: 0})
        text = serialize.dumps(serialize.upb_to_obj(upb))
        again = serialize.dumps(
            serialize.upb_to_obj(serialize.upb_from_obj(serialize.loads(text)))
        )
        assert text == again

    def test_density_round_trip(self):
        rng = np.random.default_rng(6)
        a = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        obj = serialize.density_to_obj(a, (2, 2))
        back, dims = serialize.density_from_obj(obj)
        assert dims == (2, 2)
        assert np.array_equal(back, a)

    def test_malformed_json_raises(self):
        from nlwe.errors import MalformedJsonError

        with pytest.raises(MalformedJsonError):
            serialize.loads("{not json")
        with pytest.raises(MalformedJsonError):
            serialize.basis_from_obj({"dims": [2, 2]})


_FINITE = st.floats(allow_nan=False, allow_infinity=False)
_SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    _FINITE,
    _FINITE.map(np.float64),
    st.sampled_from([-0.0, 1e-300, 1e22, 5e-324, np.float64(-0.0), np.float64(1e22)]),
    st.text(),  # non-ASCII and control characters included
)
_KEYS = st.one_of(st.text(max_size=6), st.integers(), _FINITE, st.booleans(), st.none())


def _containers(children):
    return st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        st.dictionaries(_KEYS, children, max_size=4),
    )


@st.composite
def json_trees(draw):
    """JSON trees in which a few sub-objects (empty ones included) occur
    many times, at several depths."""
    shared = draw(st.lists(st.recursive(_SCALARS, _containers, max_leaves=8), max_size=3))
    shared += [[], {}, ()]
    leaves = st.one_of(_SCALARS, st.sampled_from(shared))
    tree = draw(st.recursive(leaves, _containers, max_leaves=20))
    return [tree, shared, {"deeper": [shared, tree]}]


class TestEncoder:
    """``serialize.dumps`` against the standard library's pure-Python
    encoder with 17-digit floats (``helpers.reference_dumps``)."""

    @settings(max_examples=100, deadline=None)
    @given(json_trees())
    def test_matches_the_reference_encoder(self, tree):
        assert serialize.dumps(tree) == reference_dumps(tree)

    @pytest.mark.parametrize("value", [
        3, 2.5, np.float64(0.1), -0.0, "\u00e9\u2603\n\"", None, True, [], {}, (), [[]],
        {7: "int key", 2.5: "float key", True: "bool key", None: "null key"},
    ])
    def test_matches_the_reference_at_the_top_level(self, value):
        assert serialize.dumps(value) == reference_dumps(value)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf"), np.float64("nan")])
    @pytest.mark.parametrize("where", [
        lambda x: x, lambda x: [1, {"a": x}], lambda x: {"k": [[x]]}, lambda x: {x: 1},
    ])
    def test_non_finite_float_raises(self, bad, where):
        obj = where(bad)
        with pytest.raises(ValueError):
            reference_dumps(obj)
        with pytest.raises(ValueError):
            serialize.dumps(obj)

    @pytest.mark.parametrize("obj", [np.int64(1), {1, 2}, [np.float32(0.5)], {(1, 2): 0}])
    def test_unsupported_value_raises_type_error(self, obj):
        with pytest.raises(TypeError):
            reference_dumps(obj)
        with pytest.raises(TypeError):
            serialize.dumps(obj)

    def test_circular_reference_raises(self):
        loop = [1]
        loop.append({"back": loop})
        with pytest.raises(ValueError, match="Circular"):
            serialize.dumps(loop)

    def test_basis_shares_one_object_per_distinct_factor(self):
        circuit = preset_circuit("canonical:n=4,d=3")
        states = serialize.basis_to_obj(generate_basis(circuit), circuit)["states"]
        factors = [f for s in states for f in s["factors"]]
        assert len({id(f) for f in factors}) == len({json.dumps(f) for f in factors}) <= 2 * 3

    def test_load_builds_each_symbolic_factor_once(self):
        text = serialize.dumps(serialize.basis_to_obj(generate_basis(shift_circuit())))
        basis, _ = serialize.basis_from_obj(serialize.loads(text))
        factors = [f for s in basis.states for f in s.factors]
        assert len({id(f) for f in factors}) == len(set(factors)) == 4


def _keys(table):
    return [list(kept) for kept in table.factors]


_PARTS = (st.sampled_from([0.0, -0.0, 1.0, -2.0, 0.5, 1e-05, -1e-05, 5e-324, -5e-324,
                           2.2250738585072014e-308 / 3, 1e300, -1e300, 1e-300, 2.0**60])
          | st.floats(allow_nan=False, allow_infinity=False))


@st.composite
def density_cases(draw):
    """(matrix, dims): a 0-4 x 0-4 complex matrix whose real and imaginary
    parts mix signed zeros, integral floats, subnormals and extremes."""
    rows, cols = draw(st.integers(0, 4)), draw(st.integers(0, 4))
    parts = draw(st.lists(_PARTS, min_size=2 * rows * cols, max_size=2 * rows * cols))
    matrix = np.array(parts, dtype=float).view(complex).reshape(rows, cols)
    return matrix, draw(st.lists(st.integers(1, 5), max_size=3))


class TestDensityWriter:
    """``serialize.density_pieces`` join to ``dumps(density_to_obj(...))``."""

    @settings(max_examples=200, deadline=None)
    @given(density_cases())
    @example((np.zeros((0, 0), dtype=complex), []))
    @example((np.array([[complex(-0.0, -0.0)]]), [1]))
    @example((np.array([[complex(1.0, 1e-05)]]), [1]))
    def test_matches_the_reference_writer(self, case):
        matrix, dims = case
        text = density_text(matrix, dims)
        assert text == serialize.dumps(serialize.density_to_obj(matrix, dims))
        assert text == reference_dumps(serialize.density_to_obj(matrix, dims))
        pieces = list(serialize.density_pieces(matrix, dims))
        assert "".join(pieces) == text
        assert len(pieces) == (matrix.shape[0] + 2 if matrix.size else 1)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
    @pytest.mark.parametrize("imag", [False, True])
    def test_non_finite_entry_raises(self, bad, imag):
        matrix = np.eye(2, dtype=complex)
        matrix[1, 0] = complex(0.0, bad) if imag else complex(bad, 0.0)
        with pytest.raises(ValueError):
            serialize.dumps(serialize.density_to_obj(matrix, [2]))
        with pytest.raises(ValueError, match="non-finite"):
            serialize.density_pieces(matrix, [2])


class TestSetWriter:
    """``basis_pieces`` and ``upb_pieces`` write from the id table the text that
    ``dumps`` gives for ``basis_to_obj`` and ``upb_to_obj``, and the loader
    reads it back into the same table."""

    @settings(max_examples=100, deadline=None)
    @given(product_tables(), st.data())
    def test_matches_the_reference_and_round_trips(self, table, data):
        circuit = data.draw(st.none() | circuits_on(table.dims))
        basis = ProductBasis(table.dims, table.factors, table.ids)
        text = basis_text(basis, circuit)
        assert text == reference_dumps(serialize.basis_to_obj(basis, circuit))
        loaded, loaded_circuit = serialize.basis_from_obj(serialize.loads(text))
        assert np.array_equal(loaded.ids, table.ids)
        assert _keys(loaded) == _keys(table)
        if circuit is None:
            assert loaded_circuit is None
        else:
            assert loaded_circuit.gates == circuit.gates

        # a UPB's file fields, without the Upb construction checks, which
        # random members do not pass
        stopper = data.draw(st.integers(0, len(table) - 1))
        upb = SimpleNamespace(dims=table.dims, factors=table.factors, ids=table.ids,
                              stopper_index=stopper)
        text = upb_text(upb)
        assert text == reference_dumps(serialize.upb_to_obj(upb))
        obj = serialize.loads(text)
        assert obj["stopper_index"] == stopper
        loaded, _ = serialize.basis_from_obj(obj)
        assert np.array_equal(loaded.ids, table.ids)
        assert _keys(loaded) == _keys(table)

    def test_signed_zero_keeps_its_own_id(self):
        # two dense factors that differ only in the sign of a zero are two
        # factors in the table and stay two through a file
        plus = Dense(np.array([1.0, 0.0j]))
        minus = Dense(np.array([1.0, complex(0.0, -0.0)]))
        states = [ProductState((f, CB(k)), (2, 2)) for f in (plus, minus) for k in (0, 1)]
        table = from_states(LocalFactors, states, (2, 2))
        assert len(table.factors[0]) == 2
        upb = SimpleNamespace(dims=table.dims, factors=table.factors, ids=table.ids,
                              stopper_index=0)
        text = upb_text(upb)
        assert "-0.0" in text
        assert text == reference_dumps(serialize.upb_to_obj(upb))
        loaded, _ = serialize.basis_from_obj(serialize.loads(text))
        assert np.array_equal(loaded.ids, table.ids)
        assert _keys(loaded) == _keys(table)

    @pytest.mark.parametrize("dims, m", [((), 1), ((2, 3), 0)])
    def test_no_parties_or_no_members(self, dims, m):
        basis = ProductBasis(dims, [[] for _ in dims], np.zeros((m, len(dims)), dtype=np.intp))
        text = basis_text(basis)
        assert text == reference_dumps(serialize.basis_to_obj(basis))
        assert serialize.basis_from_obj(serialize.loads(text))[0].ids.shape == (m, len(dims))


# sha256 of the files written by the reference encoder
# (``helpers.reference_dumps``), which ``basis_pieces`` and ``upb_pieces``
# match; the file tests also re-encode each object with it
GENERATE_SHA256 = {
    "oneway": "c0bd9db76389213242fbe7071896ea4afa89361391826d1a637d35364fa71776",
    "shift": "1ab71acb41d2e756e3948b5b4b8753e3ac5fc44d9775ec8350b9d77ea544abd8",
    "fig4": "ae64358d2ee9d2ec8eac93b92977fa20f1fb0406359653e3291f256d7c92ea3c",
    "canonical:n=4,d=3": "07ef0d97638d3a8618753550dfec22f70a491bc31560a4fd61234e72d333a2d2",
    "canonical:n=4,d=3,4,3,3": "ac129a3f9abba3cd98c634bff7a0dc3b5f996ce000c169195712c1c5ad90fc5e",
    "canonical:n=5,d=4": "2ca93747fccdc75609ed771560953a8b8d5ebe1a07662a1faa8c7b970f7638d8",
    "canonical:n=6,d=5": "0b37049debcf13bd513fb011132c07a8710ba8f338bfe7d52074e4201551af22",
}
UPB_SHA256 = {
    "shift": "b4be942232d1817c005b1a9feda06c83b2e0a434b667b0955071d2a22c5142d6",
    "canonical:n=4,d=3": "1b65e38dd168639652eb143823edf6879f9d04c4d7f75c12f787173cb6abdaac",
    "canonical:n=4,d=3,4,3,3": "f7225027dbb3a1119fac73e864cb11ffa88491b87a7877b4fb872e72019c957a",
    "canonical:n=5,d=4": "039403ece1b574e3f5797c6dfb26734d90dd9c57d22a7f6afcf496ed5a5f98af",
    "canonical:n=6,d=5": "9e3c6120bff80113e821046666bc6a8122ff169f97c99547bb605f65321ab3f0",
}

# sha256 of the ``verify --json`` report with all five checks on the
# generated basis
VERIFY_SHA256 = {
    "shift": "557669b974d741960ebb85d1ecfec620eccd148dcd63044a934da821dfb49e66",
    "fig4": "cff90210d65ad4df64030972cd6b1504842c410708288425e533b2e4de5cedd4",
    "canonical:n=4,d=3": "019711e9bcae3897914f2d9047aca7f829574ebac47cae650fffa3c0a60fb2fb",
    "canonical:n=4,d=3,4,3,3": "9492939f8c2efe558491ac3bdc0902c8433c4eae93f61ed6e6a87ed91d85876c",
    "canonical:n=5,d=4": "170f2c49278eaef91644d587ec7516820407fd8ec3691781d47476563239c1e7",
    "canonical:n=6,d=5": "6c1ba383ecb19bd3f942d896cb5a8f97fa85dec15247ec93a1056187eb9a1a39",
}


# sha256 of ``bestate --ppt --out`` density files: the SHIFT extraction and
# SHIFT (x) {|0>, |1>} (``_bestate_input``)
BESTATE_SHA256 = {
    "shift": "ed97159cb0b932df7d573be9f5f766606fdbb7b9a3d955484ae206fcc36cc5ac",
    "shift-x-cb2": "f81025afe802e027c4cd56b583895b3582ef80562fb6c729dd0e153c355e6262",
}

# sha256 of ``upb check`` standard output on the extraction of each preset
UPB_CHECK_SHA256 = {
    "shift": "03e99f77cd88a83ae833e7f30073b0ab6f02dcb18772d3a9495321d379f3a4c0",
    "canonical:n=4,d=3": "619fb628d903efbc67d088f30729f6b96f62e19f8b44755a1c316ce7c6852508",
}


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _bestate_input(name: str) -> dict:
    """The UPB file object of the SHIFT extraction, or of SHIFT (x) {|0>, |1>}
    (members SHIFT-major, stopper index 0)."""
    shift = serialize.upb_to_obj(extract_upb(preset_circuit("shift")))
    if name == "shift":
        return shift
    return {
        "dims": shift["dims"] + [2],
        "states": [{"factors": s["factors"] + [{"kind": "cb", "index": k}]}
                   for s in shift["states"] for k in range(2)],
        "stopper_index": 0,
    }


class TestPinnedOutput:
    @pytest.mark.parametrize("preset", sorted(GENERATE_SHA256))
    def test_generate(self, preset, tmp_path):
        path = tmp_path / "basis.json"
        assert main(["generate", "--preset", preset, "--out", str(path)]) == 0
        text = path.read_text()
        assert _sha256(text) == GENERATE_SHA256[preset]
        circuit = preset_circuit(preset)
        obj = serialize.basis_to_obj(generate_basis(circuit), circuit)
        assert reference_dumps(obj) == text

    @pytest.mark.parametrize("preset", sorted(UPB_SHA256))
    def test_upb(self, preset, tmp_path):
        path = tmp_path / "upb.json"
        assert main(["upb", "--preset", preset, "--out", str(path)]) == 0
        text = path.read_text()
        assert _sha256(text) == UPB_SHA256[preset]
        assert reference_dumps(serialize.upb_to_obj(extract_upb(preset_circuit(preset)))) == text

    @pytest.mark.parametrize("preset", sorted(GENERATE_SHA256))
    def test_generate_to_stdout(self, preset, capsys):
        assert main(["generate", "--preset", preset]) == 0
        assert _sha256(capsys.readouterr().out) == GENERATE_SHA256[preset]

    @pytest.mark.parametrize("preset", sorted(UPB_SHA256))
    def test_upb_to_stdout(self, preset, capsys):
        assert main(["upb", "--preset", preset]) == 0
        assert _sha256(capsys.readouterr().out) == UPB_SHA256[preset]

    @pytest.mark.parametrize("preset", sorted(VERIFY_SHA256))
    def test_verify_report(self, preset, tmp_path, capsys):
        basis = tmp_path / "basis.json"
        report = tmp_path / "report.json"
        assert main(["generate", "--preset", preset, "--out", str(basis)]) == 0
        checks = "orth,product,exclusivity,commutation,census"
        assert main(["verify", "--in", str(basis), "--checks", checks,
                     "--json", str(report)]) == 0
        assert hashlib.sha256(report.read_bytes()).hexdigest() == VERIFY_SHA256[preset]

    @pytest.mark.parametrize("name", sorted(BESTATE_SHA256))
    def test_bestate_density_file(self, name, tmp_path):
        upb = tmp_path / "upb.json"
        rho = tmp_path / "rho.json"
        upb.write_text(json.dumps(_bestate_input(name)))
        assert main(["bestate", "--in", str(upb), "--ppt", "--out", str(rho)]) == 0
        assert hashlib.sha256(rho.read_bytes()).hexdigest() == BESTATE_SHA256[name]

    def test_bestate_takes_no_spectrum(self, tmp_path, monkeypatch):
        # every row comes from the Gram bound: with the library's spectrum
        # and partial transpose and numpy's Hermitian eigensolvers refusing,
        # the reports still pass and the density file keeps its pinned bytes
        def refused(*args, **kwargs):
            raise AssertionError("bestate took a spectrum or a partial transpose")

        for name in ("nlwe.linalg.hermitian_eigenvalues", "nlwe.linalg.partial_transpose",
                     "numpy.linalg.eigvalsh", "numpy.linalg.eigh"):
            monkeypatch.setattr(name, refused)
        assert not hasattr(boundent, "hermitian_eigenvalues")
        assert not hasattr(boundent, "partial_transpose")
        upb = tmp_path / "upb.json"
        rho = tmp_path / "rho.json"
        upb.write_text(json.dumps(_bestate_input("shift")))
        assert main(["bestate", "--in", str(upb), "--ppt", "--separability",
                     "--out", str(rho)]) == 0
        assert hashlib.sha256(rho.read_bytes()).hexdigest() == BESTATE_SHA256["shift"]

    @pytest.mark.parametrize("preset", sorted(UPB_CHECK_SHA256))
    def test_upb_check(self, preset, tmp_path, capsys):
        path = tmp_path / "upb.json"
        assert main(["upb", "--preset", preset, "--out", str(path)]) == 0
        code = main(["upb", "check", "--in", str(path)])
        assert code == (0 if preset == "shift" else 1)
        assert _sha256(capsys.readouterr().out) == UPB_CHECK_SHA256[preset]


@pytest.fixture(scope="module")
def big_basis(tmp_path_factory):
    """The canonical (6,5) basis: D = 15625, so a D x D array would need 3.6 GiB."""
    path = tmp_path_factory.mktemp("big") / "basis.json"
    assert main(["generate", "--preset", "canonical:n=6,d=5", "--out", str(path)]) == 0
    return path


@pytest.fixture(scope="module")
def wide_basis(tmp_path_factory):
    """A basis on dims (2100, 2) whose party 0 holds 2100 distinct kets: its
    local factor table and a local gate factor would each be 2100 x 2100
    (67 MiB), above the dense budget, though D is only 4200."""
    path = tmp_path_factory.mktemp("wide") / "basis.json"
    basis = from_states(
        ProductBasis, [ProductState((CB(i), CB(0)), (2100, 2)) for i in range(2100)], (2100, 2),
    )
    circuit = Circuit((2100, 2), [ControlDftGate({1: 0}, target=0),
                                  ControlDftGate({0: 0}, target=1)])
    path.write_text(serialize.dumps(serialize.basis_to_obj(basis, circuit)))
    return path


class TestCliFlows:
    def test_generate_shift(self, tmp_path, capsys):
        out = tmp_path / "basis.json"
        assert main(["generate", "--preset", "shift", "--out", str(out)]) == 0
        obj = json.loads(out.read_text())
        assert obj["dims"] == [2, 2, 2]
        assert len(obj["states"]) == 8
        assert obj["states"][1]["factors"][0] == {"kind": "dft", "index": 0}
        assert "circuit" in obj

    def test_generate_deterministic(self, tmp_path):
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        main(["generate", "--preset", "fig4", "--out", str(a)])
        main(["generate", "--preset", "fig4", "--out", str(b)])
        assert a.read_bytes() == b.read_bytes()

    def test_verify_good_basis(self, tmp_path, capsys):
        path = tmp_path / "basis.json"
        main(["generate", "--preset", "shift", "--out", str(path)])
        assert main(["verify", "--in", str(path)]) == 0
        table = capsys.readouterr().out
        assert "orthogonality" in table and "census[A]" in table

    def test_verify_duplicate_state_fails(self, tmp_path, capsys):
        path = tmp_path / "basis.json"
        main(["generate", "--preset", "shift", "--out", str(path)])
        obj = json.loads(path.read_text())
        obj["states"][1] = obj["states"][0]
        del obj["circuit"]
        path.write_text(json.dumps(obj))
        assert main(["verify", "--in", str(path)]) == 1
        assert "FAIL" in capsys.readouterr().out

    def test_verify_tolerance_env_override(self, tmp_path, capsys, monkeypatch):
        # |1>(sin t|0> + cos t|1>) overlaps |1>|0> by sin t = 1e-6: above the
        # default tolerance, below the one set in the environment
        t = np.arcsin(1e-6)
        tilted = Dense(np.array([np.sin(t), np.cos(t)]))
        states = [ProductState((CB(a), CB(b)), (2, 2)) for a, b in ((0, 0), (0, 1), (1, 0))]
        states.append(ProductState((CB(1), tilted), (2, 2)))
        path = tmp_path / "basis.json"
        path.write_text(serialize.dumps(serialize.basis_to_obj(from_states(ProductBasis, states, (2, 2)))))
        assert main(["verify", "--in", str(path), "--checks", "orth"]) == 1
        monkeypatch.setenv("NLWE_TOLERANCE", "1e-5")
        assert main(["verify", "--in", str(path), "--checks", "orth"]) == 0

    @pytest.mark.parametrize("value", ["abc", "-1", "0", "nan", "inf", "0.65", "0.9", "10"])
    def test_bad_tolerance_is_one_error_line(self, tmp_path, capsys, monkeypatch, value):
        path = tmp_path / "upb.json"
        main(["upb", "--preset", "shift", "--out", str(path)])
        capsys.readouterr()
        monkeypatch.setenv("NLWE_TOLERANCE", value)
        assert main(["upb", "check", "--in", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:precondition-failed:")
        assert err.count("\n") == 1

    def test_nan_dense_factor_is_one_error_line(self, tmp_path, capsys):
        # a NaN entry used to pass both the norm and the orthogonality gate
        # and turn the shift UPB into an "extendible" set
        path = tmp_path / "upb.json"
        main(["upb", "--preset", "shift", "--out", str(path)])
        capsys.readouterr()
        obj = json.loads(path.read_text())
        obj["states"][0]["factors"][0] = {"kind": "dense", "entries": [[float("nan"), 0.0], [0.0, 0.0]]}
        path.write_text(json.dumps(obj))
        assert main(["upb", "check", "--in", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:contract-violation:")

    def test_tolerance_too_large_for_a_qutrit_party_is_one_error_line(self, tmp_path, capsys, monkeypatch):
        # 0.6 is valid on qubits but not below 1/sqrt(3)
        path = tmp_path / "upb.json"
        main(["upb", "--preset", "canonical:n=4,d=3", "--out", str(path)])
        capsys.readouterr()
        monkeypatch.setenv("NLWE_TOLERANCE", "0.6")
        assert main(["upb", "check", "--in", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:precondition-failed:")
        assert err.count("\n") == 1
        assert err.count("\n") == 1

    @pytest.mark.parametrize("m, code, residual", [(1, 0, 0.0), (2, 1, 1.0)])
    def test_verify_on_no_parties(self, tmp_path, m, code, residual):
        # on no parties every member is the empty product 1: one member is
        # an orthonormal set, two overlap by 1
        path = tmp_path / "basis.json"
        report = tmp_path / "report.json"
        path.write_text(json.dumps({"dims": [], "states": [{"factors": []}] * m}))
        assert main(["verify", "--in", str(path), "--json", str(report)]) == code
        rows = {row["name"]: row for row in json.loads(report.read_text())["checks"]}
        assert rows["orthogonality"]["residual"] == residual
        assert rows["product-form"]["pass"]

    def test_verify_json_report(self, tmp_path):
        path = tmp_path / "basis.json"
        report = tmp_path / "report.json"
        main(["generate", "--preset", "oneway", "--out", str(path)])
        main(["verify", "--in", str(path), "--json", str(report)])
        obj = json.loads(report.read_text())
        assert {"name", "pass", "residual", "detail"} == set(obj["checks"][0])

    def test_verify_missing_circuit_for_exclusivity(self, tmp_path, capsys):
        path = tmp_path / "basis.json"
        main(["generate", "--preset", "shift", "--out", str(path)])
        obj = json.loads(path.read_text())
        del obj["circuit"]
        path.write_text(json.dumps(obj))
        code = main(["verify", "--in", str(path), "--checks", "exclusivity"])
        assert code == 2
        assert "error:precondition-failed:" in capsys.readouterr().err

    def test_verify_missing_circuit_for_commutation(self, tmp_path, capsys):
        path = tmp_path / "basis.json"
        main(["generate", "--preset", "shift", "--out", str(path)])
        obj = json.loads(path.read_text())
        del obj["circuit"]
        path.write_text(json.dumps(obj))
        capsys.readouterr()
        assert main(["verify", "--in", str(path), "--checks", "commutation"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:precondition-failed:")
        assert "for commutation" in err

    @pytest.mark.parametrize("command", [["verify"], ["upb", "check"], ["bestate"]])
    def test_missing_input_file_is_one_error_line(self, tmp_path, capsys, command):
        path = tmp_path / "absent.json"
        assert main(command + ["--in", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error:malformed-json: cannot read {path}: ")
        assert err.count("\n") == 1

    def test_upb_extract_and_check(self, tmp_path, capsys):
        path = tmp_path / "upb.json"
        code = main(
            ["upb", "--preset", "shift", "--excluded-index", "all=0", "--out", str(path)]
        )
        assert code == 0
        obj = json.loads(path.read_text())
        assert len(obj["states"]) == 4
        assert obj["stopper_index"] == 3
        assert main(["upb", "check", "--in", str(path)]) == 0
        out = capsys.readouterr().out
        assert "unextendible, 81 assignments examined (pre-pruning bound)" in out

    def test_upb_check_extendible_set_exits_nonzero(self, tmp_path, capsys):
        path = tmp_path / "upb.json"
        main(["upb", "--preset", "canonical:n=4,d=3", "--out", str(path)])
        assert main(["upb", "check", "--in", str(path)]) == 1
        assert "extendible" in capsys.readouterr().out

    def test_upb_check_deeper_than_the_recursion_limit(self, tmp_path, capsys):
        # the 40 x 40 computational basis without |39,39>: the search places
        # all 1599 members before it finds the missing state
        members = [{"factors": [{"kind": "cb", "index": a}, {"kind": "cb", "index": b}]}
                   for a in range(40) for b in range(40) if (a, b) != (39, 39)]
        path = tmp_path / "upb.json"
        path.write_text(json.dumps({"dims": [40, 40], "states": members, "stopper_index": 0}))
        assert main(["upb", "check", "--in", str(path)]) == 1
        assert capsys.readouterr().out.startswith("extendible, ")

    def test_upb_check_ranks_each_distinct_factor_once(self, tmp_path, capsys):
        # f2 repeats at party 0: span_dimension([f1, f2]) is 1 but
        # span_dimension([f1, f2, f2]) is 2, so a witness built from the
        # members' vectors, repeats included, finds no direction there
        eps = 1.3e-9
        f1 = {"kind": "dense", "entries": [[1.0, 0.0], [0.0, 0.0]]}
        f2 = {"kind": "dense", "entries": [[np.cos(eps), 0.0], [np.sin(eps), 0.0]]}
        members = [[f1, {"kind": "cb", "index": 0}], [f2, {"kind": "cb", "index": 1}],
                   [f2, {"kind": "cb", "index": 2}],
                   [{"kind": "cb", "index": 1}, {"kind": "cb", "index": 0}]]
        path = tmp_path / "upb.json"
        path.write_text(json.dumps({"dims": [2, 3], "stopper_index": 3,
                                    "states": [{"factors": row} for row in members]}))
        assert main(["upb", "check", "--in", str(path)]) == 1
        out = capsys.readouterr().out
        assert out.startswith("extendible, ")
        assert "witness assignment (0, 0, 0, 1)" in out

    def test_upb_check_beyond_the_float_range(self, tmp_path):
        # the 1102 computational kets |0, k> and |1, 1> on (2, 1101): the
        # witness comes after 1 103 nodes and a covered count of 332 digits,
        # past float range, so the residual is "-"
        members = [(0, 0), (1, 1)] + [(0, k) for k in range(2, 1101)] + [(0, 1)]
        path = tmp_path / "upb.json"
        path.write_text(json.dumps({"dims": [2, 1101], "stopper_index": 0, "states": [
            {"factors": [{"kind": "cb", "index": a}, {"kind": "cb", "index": b}]}
            for a, b in members]}))
        proc = subprocess.run([sys.executable, "-m", "nlwe", "upb", "check", "--in", str(path)],
                              capture_output=True, text=True)
        assert proc.returncode == 1
        assert "Traceback" not in proc.stderr
        first, table = proc.stdout.split("\n", 1)
        count = first.removeprefix("extendible, ").split(" ")[0]
        assert len(count) == 332
        assert first == f"extendible, {count} assignments examined; witness assignment " + str(
            (0, 1) + (0,) * 1100)
        assert "unextendible  FAIL             -  extendible, " + count in table

    def test_upb_check_past_the_digit_limit(self, tmp_path, capsys):
        # CB(0) x CB(i) x CB(j) on (1, 96, 96) but for (95, 95): extendible,
        # with a covered count of about 4 400 digits, more than str() converts
        members = [{"factors": [{"kind": "cb", "index": 0}, {"kind": "cb", "index": i},
                                {"kind": "cb", "index": j}]}
                   for i in range(96) for j in range(96) if (i, j) != (95, 95)]
        path = tmp_path / "upb.json"
        path.write_text(json.dumps({"dims": [1, 96, 96], "states": members, "stopper_index": 0}))
        assert main(["upb", "check", "--in", str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.err == ""
        first, table = captured.out.split("\n", 1)
        assert re.fullmatch(r"extendible, (about \d\.\d\de\+\d+|\d{4300,}) assignments examined; "
                            r"witness assignment \(.*\)", first)
        assert "unextendible  FAIL             -  extendible, " in table

    def test_bestate_past_float_range_is_one_error_line(self, tmp_path, capsys):
        # |0...0> and its 520 single flips: the complement mixture would be
        # 2^520 x 2^520, whose byte count overflows a float
        n = 520
        members = [{"factors": [{"kind": "cb", "index": int(p == q)} for p in range(n)]}
                   for q in range(-1, n)]
        path = tmp_path / "upb.json"
        path.write_text(json.dumps({"dims": [2] * n, "states": members, "stopper_index": 0}))
        assert main(["bestate", "--in", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error:too-large: the complement mixture needs a {2**n} x ")
        assert captured.err.count("\n") == 1

    def test_verify_runs_every_check_on_the_big_basis(self, big_basis, tmp_path):
        # D = 15625: every check works on local factors, no D-sized array
        report = tmp_path / "report.json"
        checks = "orth,product,exclusivity,commutation,census"
        assert main(["verify", "--in", str(big_basis), "--checks", checks,
                     "--json", str(report)]) == 0
        rows = json.loads(report.read_text())["checks"]
        assert len(rows) == 1 + 1 + 15 + 15 + 6
        assert all(row["pass"] for row in rows)
        assert all(row["residual"] == 0.0 for row in rows if row["name"].startswith("commute["))

    @pytest.mark.parametrize("check", ["orth", "commutation"])
    def test_verify_beyond_the_dense_budget_is_one_error_line(self, wide_basis, capsys, check):
        assert main(["verify", "--in", str(wide_basis), "--checks", check]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:too-large:")
        assert err.count("\n") == 1

    def test_generate_beyond_the_basis_limit_is_one_error_line(self, capsys):
        # 11^12 states: refused before the first one is made
        assert main(["generate", "--preset", "canonical:n=12,d=11"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:too-large:")
        assert err.count("\n") == 1

    def test_generate_past_the_digit_limit_is_one_error_line(self, capsys):
        # 1499^1500 states: a count of 4764 digits in the message
        assert main(["generate", "--preset", "canonical:n=1500,d=1499"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error:too-large: a basis of ")
        assert captured.err.count("\n") == 1

    @pytest.mark.parametrize("preset", ["canonical:n=1500,d=1499", "canonical:n=12,d=11",
                                        "canonical:n=3,d=102,103,104"])
    def test_generate_refuses_an_oversized_basis_before_any_gate(self, preset, capsys,
                                                                 monkeypatch):
        # prod(dims) is known from the preset's dims alone
        def no_gates(*args, **kwargs):
            raise AssertionError("a gate built before the basis size check")

        monkeypatch.setattr("nlwe.ensembles.ControlDftGate", no_gates)
        assert main(["generate", "--preset", preset]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error:too-large: a basis of ")
        assert captured.err.count("\n") == 1

    def test_upb_refuses_an_oversized_id_table_before_any_gate(self, capsys, monkeypatch):
        # 2 247 001 members of 1 500 parties: minimal_size(dims) x n is
        # known from the preset's dims alone
        def no_gates(*args, **kwargs):
            raise AssertionError("a gate built before the id table's size check")

        monkeypatch.setattr("nlwe.ensembles.ControlDftGate", no_gates)
        start = time.perf_counter()
        assert main(["upb", "--preset", "canonical:n=1500,d=1499"]) == 2
        assert time.perf_counter() - start < 1.0
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error:too-large: the UPB's id table needs a 2247001 x 1500 ")
        assert captured.err.count("\n") == 1

    def test_upb_builds_the_canonical_circuit_once(self, tmp_path, monkeypatch):
        # the extraction compares the circuit with the canonical gates as
        # (target, controls) pairs, with no second circuit
        built = []
        monkeypatch.setattr("nlwe.ensembles.ControlDftGate",
                            lambda controls, target: built.append(target) or ControlDftGate(
                                controls, target=target))
        assert main(["upb", "--preset", "canonical:n=5,d=4", "--out", str(tmp_path / "u.json")]) == 0
        assert built == [4, 3, 2, 1, 0]

    def test_generate_of_a_faulty_oversized_preset_names_its_fault(self, capsys):
        # d < n - 1 on 25 qubits: the construction error, as before the size check
        assert main(["generate", "--preset", "canonical:n=25," + "d=" + ",".join(["2"] * 25)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:construction-error: ")
        assert err.count("\n") == 1

    def test_total_dimension_beyond_int64(self, tmp_path, capsys):
        # 19^20 does not fit in an int64: generate refuses the basis, and
        # the 361-member extraction is still incomplete
        assert main(["generate", "--preset", "canonical:n=20,d=19"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:too-large:")
        assert err.count("\n") == 1
        path = tmp_path / "upb.json"
        assert main(["upb", "--preset", "canonical:n=20,d=19", "--out", str(path)]) == 0
        obj = json.loads(path.read_text())
        assert len(obj["states"]) == 361
        assert obj["stopper_index"] == 360

    def test_upb_rejects_non_canonical_preset(self, capsys):
        assert main(["upb", "--preset", "fig4"]) == 2
        assert "error:contract-violation:" in capsys.readouterr().err

    def test_bestate_with_reports(self, tmp_path, capsys):
        upb_path = tmp_path / "upb.json"
        rho_path = tmp_path / "rho.json"
        main(["upb", "--preset", "shift", "--excluded-index", "all=0", "--out", str(upb_path)])
        code = main(
            [
                "bestate",
                "--in", str(upb_path),
                "--ppt",
                "--separability",
                "--out", str(rho_path),
            ]
        )
        assert code == 0
        table = capsys.readouterr().out
        assert "ppt[A|BC]" in table and "completion[A|BC]" in table
        matrix, dims = serialize.density_from_obj(json.loads(rho_path.read_text()))
        assert dims == (2, 2, 2)
        assert abs(np.trace(matrix) - 1.0) < 1e-12

    def test_lemma_sampling(self, capsys):
        # one row: the dimension of the lemma's solution space, which is 1
        assert main(["lemma", "--dim", "3"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 2
        assert lines[1].split()[:3] == ["isotropy-dimension", "ok", "1.000e+00"]
        assert "K†K = c*1" in lines[1]

    def test_lemma_kraus_file(self, tmp_path, capsys):
        path = tmp_path / "k.json"
        path.write_text(
            json.dumps({"matrix": [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.5, 0.0]]]})
        )
        assert main(["lemma", "--kraus", str(path)]) == 0
        assert "lemma-implication" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "entry, code",
        [
            ("[NaN, 0.0]", "contract-violation"),
            ("[Infinity, 0.0]", "contract-violation"),
            ("[true, 0]", "malformed-json"),
            ("[1, 0, 5]", "malformed-json"),
            ('["1", 0]', "malformed-json"),
        ],
    )
    def test_lemma_kraus_file_bad_entry(self, tmp_path, capsys, entry, code):
        # the identity with its last entry replaced: a non-finite operator
        # breaks its contract, an entry that is not two JSON numbers is
        # malformed; neither may reach a verdict
        path = tmp_path / "k.json"
        path.write_text('{"matrix": [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], %s]]}' % entry)
        assert main(["lemma", "--kraus", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error:{code}:")
        assert captured.err.count("\n") == 1

    def test_bestate_refuses_extendible_set(self, tmp_path, capsys):
        path = tmp_path / "upb.json"
        main(["upb", "--preset", "canonical:n=4,d=3", "--out", str(path)])
        assert main(["bestate", "--in", str(path)]) == 2
        assert "error:contract-violation:" in capsys.readouterr().err

    def test_upb_without_preset_or_subcommand(self, capsys):
        assert main(["upb"]) == 2
        assert "error:precondition-failed:" in capsys.readouterr().err

    def test_bad_excluded_index_spec(self, capsys):
        assert main(["upb", "--preset", "shift", "--excluded-index", "all=x"]) == 2
        assert "error:precondition-failed:" in capsys.readouterr().err
        assert main(["upb", "--preset", "shift", "--excluded-index", "nonsense"]) == 2
        assert "error:precondition-failed:" in capsys.readouterr().err
        # a party named twice: no silent last-value-wins
        assert main(["upb", "--preset", "shift", "--excluded-index", "0=1,0=0"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error:precondition-failed:")
        assert "party 0 named twice" in captured.err
        assert captured.err.count("\n") == 1

    def test_excluded_index_of_an_unknown_party(self, capsys):
        assert main(["upb", "--preset", "shift", "--excluded-index", "5=0"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:contract-violation:")
        assert "unknown party 5" in err
        assert err.count("\n") == 1

    def test_excluded_index_per_party(self, capsys):
        # parties named one by one; party 1 keeps the default index d - 1
        assert main(["upb", "--preset", "shift", "--excluded-index", "0=1,2=0"]) == 0
        out = capsys.readouterr().out
        assert out == upb_text(extract_upb(shift_circuit(), {0: 1, 2: 0}))
        assert out != upb_text(extract_upb(shift_circuit()))

    def test_canonical_preset_with_too_few_dimensions(self, capsys):
        assert main(["generate", "--preset", "canonical:n=3,d=2,2"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:construction-error:")
        assert err.count("\n") == 1

    def test_lemma_without_dim_or_kraus(self, capsys):
        assert main(["lemma"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error:precondition-failed:")
        assert captured.err.count("\n") == 1

    def test_lemma_kraus_file_with_a_non_square_operator(self, tmp_path, capsys):
        path = tmp_path / "k.json"
        path.write_text(json.dumps({"matrix": [[[1.0, 0.0], [0.0, 0.0], [0.0, 0.0]],
                                               [[0.0, 0.0], [1.0, 0.0], [0.0, 0.0]]]}))
        assert main(["lemma", "--kraus", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:dimension-mismatch:")
        assert err.count("\n") == 1

    def test_lemma_rejects_bad_dimension(self, capsys):
        assert main(["lemma", "--dim", "-2"]) == 2
        assert "error:precondition-failed:" in capsys.readouterr().err

    def test_lemma_rejects_negative_seed(self, capsys):
        # --seed is gone: argparse refuses it as an unknown option
        with pytest.raises(SystemExit) as exc:
            main(["lemma", "--dim", "2", "--seed", "-1"])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "unrecognized arguments: --seed -1" in captured.err

    def test_upb_beyond_the_dense_budget_is_refused_before_extraction(self, capsys, monkeypatch):
        # a 10^7 x 10^7 local factor table: refused before any input row is built
        def no_rows(*args):
            raise AssertionError("input rows built before the budget check")

        monkeypatch.setattr("nlwe.upb.images", no_rows)
        assert main(["upb", "--preset", "canonical:n=3,d=10000000"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:too-large:")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("command", ["generate", "upb"])
    @pytest.mark.parametrize("preset, code", [
        ("canonical:n=1000000000,d=5", "construction-error"),  # d < n - 1
        ("canonical:n=1000000,d=999999", "too-large"),  # a 999 999 x 999 999 table
    ])
    def test_oversized_canonical_preset_is_refused_before_any_gate(
            self, command, preset, code, capsys, monkeypatch):
        def no_gates(*args, **kwargs):
            raise AssertionError("a gate built before the checks")

        monkeypatch.setattr("nlwe.ensembles.ControlDftGate", no_gates)
        start = time.perf_counter()
        assert main([command, "--preset", preset]) == 2
        assert time.perf_counter() - start < 1.0
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error:{code}: ")
        assert captured.err.count("\n") == 1

    @pytest.mark.skipif(not getattr(sys, "get_int_max_str_digits", lambda: 0)(),
                        reason="no limit on integer string conversion")
    @pytest.mark.parametrize("command", ["generate", "upb"])
    @pytest.mark.parametrize("preset", ["canonical:n={},d=5", "canonical:n=3,d={}"],
                             ids=["n", "d"])
    def test_preset_number_past_the_digit_limit_is_one_error_line(self, command, preset, capsys):
        # 5 000 digits, more than int() converts
        assert main([command, "--preset", preset.format("9" * 5000)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error:too-large: a preset number has too many digits\n"

    def test_upb_id_table_beyond_the_dense_budget_is_refused(self, capsys, monkeypatch):
        # 25 921 members of 162 parties: a 64.07 MiB id table (n = 161 fits)
        def no_rows(*args):
            raise AssertionError("input rows built before the budget check")

        monkeypatch.setattr("nlwe.upb.images", no_rows)
        assert main(["upb", "--preset", "canonical:n=162,d=161"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error:too-large: the UPB's id table needs a 25921 x 162 ")
        assert captured.err.count("\n") == 1

    def test_verify_unknown_check_name(self, tmp_path, capsys):
        path = tmp_path / "basis.json"
        main(["generate", "--preset", "oneway", "--out", str(path)])
        assert main(["verify", "--in", str(path), "--checks", "bogus"]) == 2
        assert "error:precondition-failed:" in capsys.readouterr().err

    def test_verify_empty_check_list(self, tmp_path, capsys):
        path = tmp_path / "basis.json"
        main(["generate", "--preset", "oneway", "--out", str(path)])
        capsys.readouterr()
        assert main(["verify", "--in", str(path), "--checks", ","]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error:precondition-failed:")
        assert captured.err.count("\n") == 1

    def test_unknown_preset_error_line(self, capsys):
        assert main(["generate", "--preset", "bogus"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:unknown-preset:")
        assert err.count("\n") == 1

    def test_malformed_json_error_line(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("{oops")
        assert main(["verify", "--in", str(path)]) == 2
        assert "error:malformed-json:" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["generate", "upb", "verify", "bestate"])
    def test_unwritable_output_is_one_error_line(self, tmp_path, capsys, command):
        upb = tmp_path / "upb.json"
        basis = tmp_path / "basis.json"
        assert main(["upb", "--preset", "shift", "--excluded-index", "all=0", "--out", str(upb)]) == 0
        assert main(["generate", "--preset", "shift", "--out", str(basis)]) == 0
        capsys.readouterr()
        target = tmp_path / "missing" / "out.json"
        argv = {
            "generate": ["generate", "--preset", "shift", "--out", str(target)],
            "upb": ["upb", "--preset", "shift", "--out", str(target)],
            "verify": ["verify", "--in", str(basis), "--json", str(target)],
            "bestate": ["bestate", "--in", str(upb), "--out", str(target)],
        }[command]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error:precondition-failed: cannot write {target}: ")
        assert err.count("\n") == 1

    def test_output_path_that_is_a_directory_is_one_error_line(self, tmp_path, capsys):
        assert main(["generate", "--preset", "oneway", "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:precondition-failed: cannot write ")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("command", [["verify"], ["upb", "check"], ["bestate"]])
    def test_non_utf8_input_is_one_error_line(self, tmp_path, capsys, command):
        path = tmp_path / "binary.json"
        path.write_bytes(b'{"dims": [2, 2], "states": ["\xff\xfe\x80"]}')
        assert main(command + ["--in", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:malformed-json:")
        assert "not UTF-8" in err
        assert err.count("\n") == 1

    def test_module_entry_point(self, tmp_path):
        out = tmp_path / "b.json"
        proc = subprocess.run(
            [sys.executable, "-m", "nlwe", "generate", "--preset", "oneway", "--out", str(out)],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert json.loads(out.read_text())["dims"] == [2, 2]

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
    @pytest.mark.parametrize("command", ["generate", "upb check"])
    def test_full_stdout_is_one_error_line(self, tmp_path, command):
        upb = tmp_path / "upb.json"
        assert main(["upb", "--preset", "shift", "--excluded-index", "all=0", "--out", str(upb)]) == 0
        argv = {
            "generate": ["generate", "--preset", "shift"],
            "upb check": ["upb", "check", "--in", str(upb)],
        }[command]
        with open("/dev/full", "w") as full:
            proc = subprocess.run([sys.executable, "-m", "nlwe", *argv],
                                  stdout=full, stderr=subprocess.PIPE, text=True)
        assert proc.returncode == 2
        assert proc.stderr.startswith("error:precondition-failed: cannot write stdout: ")
        assert proc.stderr.count("\n") == 1

    def test_stdout_closed_early_is_one_error_line(self):
        # as `nlwe generate ... | head -c 10`: the reader leaves after 10 bytes
        proc = subprocess.Popen(
            [sys.executable, "-m", "nlwe", "generate", "--preset", "canonical:n=5,d=4"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
        head = proc.stdout.read(10)
        proc.stdout.close()
        err = proc.stderr.read().decode()
        proc.stderr.close()
        assert proc.wait() == 2
        assert head == b'{\n  "dims"'
        assert err.startswith("error:precondition-failed: cannot write stdout: ")
        assert err.count("\n") == 1

    def test_lemma_beyond_the_dense_budget_is_one_error_line(self, capsys):
        # the 2049 x 2049 DFT matrix: 64.06 MiB, refused before it is built
        assert main(["lemma", "--dim", "2049"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:too-large:")
        assert err.count("\n") == 1


def _set_dims(obj, value):
    obj["dims"] = value


def _set_index(obj, value):
    obj["states"][0]["factors"][0]["index"] = value


def _set_target(obj, value):
    obj["circuit"]["gates"][0]["target"] = value


def _set_control_value(obj, value):
    obj["circuit"]["gates"][0]["controls"]["0"] = value


def _set_control_key(obj, key):
    controls = obj["circuit"]["gates"][0]["controls"]
    controls[key] = controls.pop("0")


class TestIntegerFields:
    """Integer fields must be JSON integers and control keys decimal strings;
    a float, boolean or string is malformed, not truncated."""

    @pytest.fixture
    def shift_file(self, tmp_path):
        path = tmp_path / "basis.json"
        assert main(["generate", "--preset", "shift", "--out", str(path)]) == 0
        return path

    @pytest.mark.parametrize("edit, value", [
        (_set_dims, [2.9, 2, 2]),
        (_set_dims, [2.0, 2, 2]),
        (_set_dims, [True, 2, 2]),
        (_set_dims, ["2", 2, 2]),
        (_set_dims, "222"),
        (_set_index, 0.9),
        (_set_index, 0.0),
        (_set_index, True),
        (_set_index, "0"),
        (_set_target, 2.0),
        (_set_target, "2"),
        (_set_control_value, 0.5),
        (_set_control_value, False),
        (_set_control_key, "a"),
        (_set_control_key, "-0"),
        (_set_control_key, " 0"),
        (_set_control_key, "0.0"),
    ])
    def test_non_integer_basis_field_is_one_error_line(self, shift_file, capsys, edit, value):
        obj = json.loads(shift_file.read_text())
        edit(obj, value)
        shift_file.write_text(json.dumps(obj))
        assert main(["verify", "--in", str(shift_file)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:malformed-json:")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("kind", ["cb", "dft"])
    @pytest.mark.parametrize("value", [True, 1.0])
    def test_non_integer_index_after_a_valid_one(self, shift_file, capsys, kind, value):
        # the load builds each symbolic factor once; the JSON values true and
        # 1.0 hash like 1, so they must not find the factor the 1 made
        obj = json.loads(shift_file.read_text())
        obj["states"][0]["factors"][0] = {"kind": kind, "index": 1}
        obj["states"][1]["factors"][0] = {"kind": kind, "index": value}
        shift_file.write_text(json.dumps(obj))
        assert main(["verify", "--in", str(shift_file)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:malformed-json:")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("value", [True, 1.0])
    def test_non_integer_upb_index_after_a_valid_one(self, tmp_path, capsys, value):
        path = tmp_path / "upb.json"
        main(["upb", "--preset", "shift", "--out", str(path)])
        capsys.readouterr()
        obj = json.loads(path.read_text())
        obj["states"][0]["factors"][1] = {"kind": "cb", "index": 1}
        obj["states"][1]["factors"][1] = {"kind": "cb", "index": value}
        path.write_text(json.dumps(obj))
        assert main(["upb", "check", "--in", str(path)]) == 2
        assert capsys.readouterr().err.startswith("error:malformed-json:")

    def test_decimal_control_keys_still_load(self, shift_file):
        obj = json.loads(shift_file.read_text())
        _set_control_key(obj, "00")
        _, circuit = serialize.basis_from_obj(obj)
        assert dict(circuit.gates[0].controls)[0] == 0

    @pytest.mark.parametrize("value", [3.0, 3.5, True, "3"])
    def test_non_integer_stopper_index_is_one_error_line(self, tmp_path, capsys, value):
        path = tmp_path / "upb.json"
        main(["upb", "--preset", "shift", "--out", str(path)])
        obj = json.loads(path.read_text())
        obj["stopper_index"] = value
        path.write_text(json.dumps(obj))
        assert main(["upb", "check", "--in", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:malformed-json:")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("field, value", [("rows", 4.0), ("cols", 4.0), ("dims", [2, "2"])])
    def test_non_integer_density_field(self, field, value):
        from nlwe.errors import MalformedJsonError

        obj = serialize.density_to_obj(np.eye(4) / 4, (2, 2))
        obj[field] = value
        with pytest.raises(MalformedJsonError):
            serialize.density_from_obj(obj)

    @pytest.mark.parametrize("entry", [["0.25", 0.0], [0.25, False], [True, 0.0], [None, 0.0]])
    def test_non_number_density_entry(self, entry):
        from nlwe.errors import MalformedJsonError

        obj = serialize.density_to_obj(np.eye(4) / 4, (2, 2))
        obj["entries"][0] = entry
        with pytest.raises(MalformedJsonError):
            serialize.density_from_obj(obj)

    @pytest.mark.parametrize("dims", [[0, 2], [-3]])
    def test_dims_below_one_in_a_circuit_or_density_file(self, dims):
        from nlwe.errors import InvalidDimensionError

        with pytest.raises(InvalidDimensionError):
            serialize.circuit_from_obj({"dims": dims, "gates": []})
        obj = serialize.density_to_obj(np.eye(4) / 4, (2, 2))
        obj["dims"] = dims
        with pytest.raises(InvalidDimensionError):
            serialize.density_from_obj(obj)

    @pytest.mark.parametrize("edit, code", [
        (lambda circuit: circuit.pop("gates"), "malformed-json"),
        (lambda circuit: circuit["gates"][0].__setitem__("target", 5), "dimension-mismatch"),
        (lambda circuit: circuit["gates"][0]["controls"].__setitem__("9", 0), "dimension-mismatch"),
    ], ids=["no-gates", "target-5", "control-party-9"])
    def test_bad_embedded_circuit_is_one_error_line(self, shift_file, capsys, edit, code):
        obj = json.loads(shift_file.read_text())
        edit(obj["circuit"])
        shift_file.write_text(json.dumps(obj))
        assert main(["verify", "--in", str(shift_file)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error:{code}:")
        assert err.count("\n") == 1

    def test_upb_file_without_stopper_index(self, tmp_path, capsys):
        path = tmp_path / "upb.json"
        main(["upb", "--preset", "shift", "--out", str(path)])
        obj = json.loads(path.read_text())
        del obj["stopper_index"]
        path.write_text(json.dumps(obj))
        capsys.readouterr()
        assert main(["upb", "check", "--in", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:malformed-json:")
        assert "stopper_index" in err
        assert err.count("\n") == 1

    def test_embedded_circuit_on_other_dims_is_one_error_line(self, tmp_path, capsys):
        path = tmp_path / "basis.json"
        main(["generate", "--preset", "shift", "--out", str(path)])
        obj = json.loads(path.read_text())
        obj["circuit"]["dims"] = [3, 3, 3]
        path.write_text(json.dumps(obj))
        assert main(["verify", "--in", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:dimension-mismatch:")
        assert err.count("\n") == 1


def _first_state(obj):
    return obj["states"][0]


def _set_first_index(value):
    return lambda obj: _first_state(obj)["factors"][0].__setitem__("index", value)


def _set_first_factor(value):
    return lambda obj: _first_state(obj)["factors"].__setitem__(0, value)


def _set_factors(value):
    return lambda obj: _first_state(obj).__setitem__("factors", value)


def _set_first_state(value):
    return lambda obj: obj["states"].__setitem__(0, value)


def _dense_first_factor(*entries):
    return _set_first_factor({"kind": "dense", "entries": [list(e) for e in entries]})


MALFORMED = "malformed-json"
CONTRACT = "contract-violation"
MISMATCH = "dimension-mismatch"

# (edit of a file on dims (2, 2, 2), error code for verify, error code for
# upb check); None is a file that loads, whose check fails with exit 1
LOADER_CASES = {
    "index-true": (_set_first_index(True), MALFORMED, MALFORMED),
    "index-float": (_set_first_index(1.0), MALFORMED, MALFORMED),
    "index-missing": (lambda obj: _first_state(obj)["factors"][0].pop("index"),
                      MALFORMED, MALFORMED),
    "index-too-large": (_set_first_index(2), CONTRACT, CONTRACT),
    "index-negative": (_set_first_index(-1), CONTRACT, CONTRACT),
    "short-row": (lambda obj: _first_state(obj)["factors"].pop(), MISMATCH, MISMATCH),
    "long-row": (lambda obj: _first_state(obj)["factors"].append({"kind": "cb", "index": 0}),
                 MISMATCH, MISMATCH),
    "factor-string": (_set_first_factor("cb"), MALFORMED, MALFORMED),
    "factor-list": (_set_first_factor(["cb", 0]), MALFORMED, MALFORMED),
    "factor-null": (_set_first_factor(None), MALFORMED, MALFORMED),
    "factors-missing": (lambda obj: _first_state(obj).pop("factors"), MALFORMED, MALFORMED),
    "factors-string": (_set_factors("cb"), MALFORMED, MALFORMED),
    "factors-object": (_set_factors({"kind": "cb", "index": 0}), MALFORMED, MALFORMED),
    "factors-number": (_set_factors(3), MALFORMED, MALFORMED),
    "state-list": (_set_first_state([{"kind": "cb", "index": 0}] * 3), MALFORMED, MALFORMED),
    "state-string": (_set_first_state("state"), MALFORMED, MALFORMED),
    "state-null": (_set_first_state(None), MALFORMED, MALFORMED),
    "state-symbolic-object": (_set_first_state({"kind": "cb", "index": 0}), MALFORMED, MALFORMED),
    "kind-unknown": (_set_first_factor({"kind": "ghz", "index": 0}), MALFORMED, MALFORMED),
    "kind-missing": (_set_first_factor({"index": 0}), MALFORMED, MALFORMED),
    "dense-bad-norm": (_dense_first_factor((1.0, 0.0), (1.0, 0.0)), CONTRACT, CONTRACT),
    "dense-nan": (_dense_first_factor((float("nan"), 0.0), (0.0, 0.0)), CONTRACT, CONTRACT),
    "dense-inf": (_dense_first_factor((float("inf"), 0.0), (0.0, 0.0)), CONTRACT, CONTRACT),
    "dense-too-long": (_dense_first_factor((1.0, 0.0), (0.0, 0.0), (0.0, 0.0)),
                       MISMATCH, MISMATCH),
    "dense-too-short": (_dense_first_factor((1.0, 0.0)), MISMATCH, MISMATCH),
    "dense-entry-not-a-pair": (_dense_first_factor((1.0, 0.0, 0.0), (0.0, 0.0)),
                               MALFORMED, MALFORMED),
    "dense-entries-missing": (_set_first_factor({"kind": "dense"}), MALFORMED, MALFORMED),
    "dense-entry-string": (_dense_first_factor(("1", "0"), ("0", "0")), MALFORMED, MALFORMED),
    "dense-entry-bool": (_dense_first_factor((True, 0), (0, False)), MALFORMED, MALFORMED),
    # all of a row's factor objects are read before its length is compared
    # and before any of its factors is checked against its party
    "long-row-unknown-kind": (
        lambda obj: _first_state(obj).__setitem__(
            "factors", [{"kind": "ghz", "index": 0}] + _first_state(obj)["factors"]),
        MALFORMED, MALFORMED),
    "index-too-large-then-unknown-kind": (
        lambda obj: _first_state(obj).__setitem__(
            "factors", [{"kind": "cb", "index": 2}, {"kind": "cb", "index": 0},
                        {"kind": "ghz", "index": 0}]),
        MALFORMED, MALFORMED),
    "duplicated-state": (lambda obj: obj["states"].__setitem__(1, obj["states"][0]),
                         None, CONTRACT),
}


def _cb_member(n):
    return {"factors": [{"kind": "cb", "index": 0}] * n}


# (file object, error code): dims that no factor can have, with and
# without members
BAD_DIMS = {
    "negative": ({"dims": [-1, 2, 2], "states": []}, "invalid-dimension"),
    "zero": ({"dims": [0, 2, 2], "states": []}, "invalid-dimension"),
    "negative-with-a-member": ({"dims": [-1, 2], "states": [_cb_member(2)]},
                               "invalid-dimension"),
    "huge": ({"dims": [10**30, 2], "states": []}, "too-large"),
    "above-the-budget": ({"dims": [2**22 + 1, 2], "states": [_cb_member(2)]}, "too-large"),
}


class TestLoaderErrors:
    """Every fault the set loader finds in a basis or UPB file is exit 2
    and one ``error:<code>:`` line, the same for ``verify`` and ``upb
    check``, except where the two commands' own checks differ: a
    duplicated member fails verify's orthogonality row (exit 1) but the
    UPB's orthogonality gate (exit 2)."""

    @pytest.mark.parametrize("command", [["verify"], ["upb", "check"], ["bestate"]])
    @pytest.mark.parametrize("case", sorted(BAD_DIMS))
    def test_bad_dims_is_one_error_line(self, tmp_path, capsys, command, case):
        # a dims entry below 1, or one whose single factor is beyond the
        # dense budget, is refused as the file is read
        obj, code = BAD_DIMS[case]
        path = tmp_path / "set.json"
        path.write_text(json.dumps({**obj, "stopper_index": 0}))
        assert main(command + ["--in", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error:{code}:")
        assert captured.err.count("\n") == 1
        assert "Traceback" not in captured.err

    def test_dims_at_the_budget_load(self):
        # a 1 x 2^22 complex row is exactly the 64 MiB budget
        basis, _ = serialize.basis_from_obj({"dims": [2**22, 2], "states": []})
        assert basis.dims == (2**22, 2)

    @pytest.mark.parametrize("command", ["verify", "upb check"])
    @pytest.mark.parametrize("case", sorted(LOADER_CASES))
    def test_error_line(self, tmp_path, capsys, command, case):
        edit, verify_code, upb_code = LOADER_CASES[case]
        path = tmp_path / "set.json"
        make = ["generate"] if command == "verify" else ["upb"]
        assert main(make + ["--preset", "shift", "--out", str(path)]) == 0
        capsys.readouterr()
        obj = json.loads(path.read_text())
        edit(obj)
        path.write_text(json.dumps(obj))
        code = verify_code if command == "verify" else upb_code
        assert main(command.split() + ["--in", str(path)]) == (2 if code else 1)
        err = capsys.readouterr().err
        if code is None:
            assert err == ""
        else:
            assert err.startswith(f"error:{code}:")
            assert err.count("\n") == 1
        if case.startswith("factors-") and case != "factors-missing":
            assert "factors must be a list" in err


def _loaded(load, tree):
    """What a loader makes of ``tree``: the table's dims, distinct factors
    and ids, or the class and message of what it raised."""
    try:
        table = load(tree)
    except Exception as exc:
        return type(exc), str(exc)
    if isinstance(table, tuple):
        table = table[0]
    return table.dims, _keys(table), table.ids.tolist()


def _assert_same_load(text):
    """``basis_from_obj`` and ``upb_from_obj`` give the same on the tree of
    ``serialize.loads``, which shares factor objects, as on plain
    ``json.loads``."""
    for load in (serialize.basis_from_obj, serialize.upb_from_obj):
        assert _loaded(load, serialize.loads(text)) == _loaded(load, json.loads(text))


def _set_file_text(kind, preset):
    circuit = preset_circuit(preset)
    if kind == "basis":
        return basis_text(generate_basis(circuit), circuit)
    return upb_text(extract_upb(circuit))


# factor object texts that plain JSON and the shared tree must treat alike:
# a valid or faulty kind and index, a third key, keys in the other order and
# a duplicated key (the last value is the one read)
FACTOR_TEXTS = {
    "index-true": '{"kind": "cb", "index": true}',
    "index-float": '{"kind": "cb", "index": 1.0}',
    "index-string": '{"kind": "cb", "index": "1"}',
    "index-missing": '{"kind": "cb"}',
    "kind-int": '{"kind": 1, "index": 1}',
    "kind-true": '{"kind": true, "index": 1}',
    "kind-upper": '{"kind": "CB", "index": 1}',
    "third-key": '{"kind": "cb", "index": 1, "note": 0}',
    "third-key-out-of-range": '{"kind": "cb", "index": 7, "note": 0}',
    "swapped-keys": '{"index": 1, "kind": "dft"}',
    "swapped-keys-out-of-range": '{"index": 2, "kind": "dft"}',
    "duplicated-index": '{"kind": "cb", "index": true, "index": 1}',
    "duplicated-index-last-bad": '{"kind": "cb", "index": 1, "index": true}',
    "duplicated-kind": '{"kind": "cb", "kind": "ghz", "index": 1}',
}


class TestSharedLoader:
    """``serialize.loads`` shares one dict among equal symbolic factor
    objects, and the set loaders read its tree as they read plain JSON."""

    @pytest.mark.parametrize("kind", ["basis", "upb"])
    @pytest.mark.parametrize("preset", ["shift", "canonical:n=4,d=3"])
    def test_preset_files_load_alike(self, kind, preset):
        _assert_same_load(_set_file_text(kind, preset))

    @settings(max_examples=100, deadline=None)
    @given(product_tables(), st.data())
    def test_random_sets_load_alike(self, table, data):
        basis = ProductBasis(table.dims, table.factors, table.ids)
        _assert_same_load(basis_text(basis, data.draw(st.none() | circuits_on(table.dims))))
        upb = SimpleNamespace(dims=table.dims, factors=table.factors, ids=table.ids,
                              stopper_index=data.draw(st.integers(0, len(table) - 1)))
        _assert_same_load(upb_text(upb))

    @pytest.mark.parametrize("kind", ["basis", "upb"])
    @pytest.mark.parametrize("member", [0, -1])
    @pytest.mark.parametrize("case", sorted(FACTOR_TEXTS))
    def test_edited_factor_loads_alike(self, kind, member, case):
        obj = json.loads(_set_file_text(kind, "shift"))
        obj["states"][member]["factors"][0] = "@factor@"
        text = json.dumps(obj).replace('"@factor@"', FACTOR_TEXTS[case])
        _assert_same_load(text)

    def test_equal_symbolic_factors_are_one_object(self):
        obj = serialize.loads(_set_file_text("basis", "canonical:n=4,d=3"))
        factor_objs = [f for state in obj["states"] for f in state["factors"]]
        shared = {}
        for f in factor_objs:
            assert shared.setdefault((f["kind"], f["index"]), f) is f
        assert len(shared) == 6  # the CB and DFT kets 0..2, one object for all parties
        assert len({id(f) for f in factor_objs}) == len(shared)

    @pytest.mark.parametrize("index", ["true", "1.0"])
    def test_a_non_integer_index_is_its_own_object(self, index):
        text = ('[{"kind": "cb", "index": 1}, {"kind": "cb", "index": %s}, '
                '{"kind": "cb", "index": 1}]' % index)
        one, other, again = serialize.loads(text)
        assert one is again
        assert other is not one
        assert type(other["index"]) is not int


def _assert_member_blocks(pieces, window, m):
    """The blocks between the head and the tail hold the ``m`` members,
    each one member or at most ``window`` characters of them; a member's
    text closes with its one "\\n    }"."""
    blocks = pieces[1:-1]
    counts = [block.count("\n    }") for block in blocks]
    assert sum(counts) == m
    assert all(count == 1 or len(block) <= window for block, count in zip(blocks, counts))


class TestStreamedWriter:
    """``basis_pieces`` and ``upb_pieces`` give the file as a head, blocks
    of whole members and a tail, which join to the reference text."""

    @settings(max_examples=100, deadline=None)
    @given(product_tables(), st.data())
    def test_pieces_join_to_the_reference(self, table, data):
        window = data.draw(st.sampled_from([1, 300, 2000, serialize._WINDOW]))
        circuit = data.draw(st.none() | circuits_on(table.dims))
        basis = ProductBasis(table.dims, table.factors, table.ids)
        upb = SimpleNamespace(dims=table.dims, factors=table.factors, ids=table.ids,
                              stopper_index=data.draw(st.integers(0, len(table) - 1)))
        with mock.patch.object(serialize, "_WINDOW", window):
            for pieces, obj in ((serialize.basis_pieces(basis, circuit),
                                 serialize.basis_to_obj(basis, circuit)),
                                (serialize.upb_pieces(upb), serialize.upb_to_obj(upb))):
                pieces = list(pieces)
                assert "".join(pieces) == reference_dumps(obj)
                _assert_member_blocks(pieces, window, len(table))

    @pytest.mark.parametrize("with_circuit", [False, True])
    @pytest.mark.parametrize("dims, m", [((), 0), ((), 2), ((2, 3), 0)])
    def test_no_parties_or_no_members(self, dims, m, with_circuit):
        basis = ProductBasis(dims, [[] for _ in dims], np.zeros((m, len(dims)), dtype=np.intp))
        circuit = Circuit(dims, []) if with_circuit else None
        pieces = list(serialize.basis_pieces(basis, circuit))
        assert len(pieces) == (3 if m else 1)
        assert "".join(pieces) == reference_dumps(serialize.basis_to_obj(basis, circuit))
        if m:
            _assert_member_blocks(pieces, serialize._WINDOW, m)
        upb = SimpleNamespace(dims=dims, factors=basis.factors, ids=basis.ids, stopper_index=0)
        assert "".join(serialize.upb_pieces(upb)) == reference_dumps(serialize.upb_to_obj(upb))

    def test_blocks_of_the_big_basis_hold_about_a_window(self):
        # 1 024 members, about 190 kB: its bytes are pinned in GENERATE_SHA256
        basis = generate_basis(preset_circuit("canonical:n=5,d=4"))
        pieces = list(serialize.basis_pieces(basis))
        _assert_member_blocks(pieces, serialize._WINDOW, len(basis))
        assert len(pieces) > 3

    @pytest.mark.parametrize("argv", [
        ["generate", "--preset", "shift"],
        ["generate", "--preset", "canonical:n=4,d=3"],
        ["upb", "--preset", "shift"],
        ["upb", "--preset", "canonical:n=4,d=3", "--excluded-index", "all=1"],
    ])
    def test_stdout_and_out_file_are_the_same_bytes(self, argv, tmp_path, capsys):
        path = tmp_path / "set.json"
        assert main(argv + ["--out", str(path)]) == 0
        assert capsys.readouterr().out == ""
        assert main(argv) == 0
        assert capsys.readouterr().out.encode("utf-8") == path.read_bytes()

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full device")
    @pytest.mark.parametrize("argv", [["generate", "--preset", "canonical:n=5,d=4"],
                                      ["upb", "--preset", "shift"]])
    def test_failed_write_is_one_error_line(self, argv, capsys):
        # every write to /dev/full fails, so the error comes mid-stream
        assert main(argv + ["--out", "/dev/full"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error:precondition-failed:")
        assert captured.err.count("\n") == 1
        assert "Traceback" not in captured.err


def _traced_peak(fn):
    """``fn()`` and the peak of the memory it allocated (tracemalloc)."""
    tracemalloc.start()
    try:
        return fn(), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestSetFileMemory:
    """Writing a basis file holds one member's text at a time, and reading
    it holds the text plus a tree with one object per distinct factor: on
    the (6,5) basis (6.8 MB) the writer peaks near 0.4x the file's size
    and the loader near 2x (the file's bytes and text at once)."""

    def test_generate_peaks_below_the_file_size(self, tmp_path):
        path = tmp_path / "basis.json"
        code, peak = _traced_peak(
            lambda: main(["generate", "--preset", "canonical:n=6,d=5", "--out", str(path)]))
        assert code == 0
        assert peak <= 1.0 * path.stat().st_size

    def test_load_file_peaks_within_two_and_a_half_file_sizes(self, big_basis):
        _, peak = _traced_peak(lambda: serialize.load_file(str(big_basis)))
        assert peak <= 2.5 * big_basis.stat().st_size


class TestDensityFileMemory:
    """``bestate --out`` writes the density file one matrix row at a time:
    for D = 256 (4.3 MB of text) the write peaks at one row's text and its
    parts, far below the text (the whole-text writer peaked at 4x it)."""

    def test_density_file_peaks_below_a_quarter_of_its_text(self, tmp_path):
        rng = np.random.default_rng(256)
        a = rng.standard_normal((256, 256)) + 1j * rng.standard_normal((256, 256))
        rho = a @ a.conj().T
        rho /= np.trace(rho).real
        path = tmp_path / "rho.json"
        _, peak = _traced_peak(
            lambda: _write_or_print(serialize.density_pieces(rho, [16, 16]), str(path)))
        text = path.read_text()
        assert text == density_text(rho, [16, 16])
        assert peak <= 0.25 * len(text)


def _read_outcome(read):
    """What ``read()`` gives of a set: dims, distinct factors, ids and the
    circuit or stopper index; or the class and message of the
    ``NlweError`` it raised."""
    try:
        got = read()
    except NlweError as exc:
        return type(exc), str(exc)
    table, extra = got if isinstance(got, tuple) else (got, got.stopper_index)
    return table.dims, _keys(table), table.ids.tolist(), extra


def _json_tree(text):
    """``json.loads`` of ``text``; a fault in the text raises the
    ``MalformedJsonError`` that the loaders make of json's."""
    try:
        return json.loads(text)
    except (ValueError, RecursionError) as exc:
        raise MalformedJsonError(f"invalid JSON: {exc}") from exc


def _scanned_members():
    """A stand-in for ``serialize._scan_value`` and the list of the
    members it has read (each scan that returned a member object; it also
    scans the keys, dims, circuit and stopper index)."""
    read, scan_value = [], serialize._scan_value

    def scan(text, pos):
        value, end = scan_value(text, pos)
        if isinstance(value, dict) and "factors" in value:
            read.append(value)
        return value, end

    return scan, read


def _assert_reads_alike(text, windows=(1, 2, 7, 64, serialize._WINDOW), by=None):
    """``read_basis`` and ``read_upb`` of ``text`` at each window size give
    what ``basis_from_obj`` and ``upb_from_obj`` give of ``json.loads``:
    the same set, or the same error class and message.  With
    ``by="window"`` the tree reader is disabled (``serialize.loads``
    fails), so the window must read the file; with ``by="tree"`` the tree
    reader must read it.  ``by="run"`` is ``by="window"`` for text in
    nlwe's own layout, of which json's scanner may read at most about one
    member per window read (``_Window.more``): runs read the rest."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "set.json")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        for read, load in ((serialize.read_basis, serialize.basis_from_obj),
                           (serialize.read_upb, serialize.upb_from_obj)):
            expected = _read_outcome(lambda: load(_json_tree(text)))
            for window in windows:
                if by in ("window", "run"):
                    fail = AssertionError("the tree reader read a file in the streamed layout")
                    loads = mock.patch.object(serialize, "loads", side_effect=fail)
                else:
                    loads = mock.patch.object(serialize, "loads", wraps=serialize.loads)
                scan, scanned = _scanned_members()
                with mock.patch.object(serialize, "_WINDOW", window), loads as tree_reader, \
                        mock.patch.object(serialize, "_scan_value", scan), \
                        mock.patch.object(serialize._Window, "more", autospec=True,
                                          side_effect=serialize._Window.more) as more:
                    assert _read_outcome(lambda: read(path)) == expected, window
                if by == "tree":
                    assert tree_reader.called, window
                if by == "run":
                    assert len(scanned) <= more.call_count + 1, window


def _reader_of(text):
    """The ``by`` of the set file ``text`` in nlwe's layout: "tree" if it
    is not JSON or its dims or members hold a fault (the tree reader fails
    on them alone), which the window meets, else "window"."""
    try:
        obj = json.loads(text)
        serialize.basis_from_obj({"dims": obj["dims"], "states": obj["states"]})
    except (ValueError, NlweError):
        return "tree"
    return "window"


def _with_index(text):
    """A function of a factor object's text that writes ``text`` for its index."""
    return lambda factor: re.sub(r'(?<="index": )[0-9]+', text, factor)


def _dense_factor_text():
    """A ``Dense`` factor object's text as nlwe writes it inside a member."""
    obj = serialize.factor_to_obj(Dense(np.array([1.0, 0.0, 0.0, 0.0])))
    return serialize.dumps(obj).rstrip("\n").replace("\n", "\n        ")


def _drop_last_factor(member):
    head, _, _ = member.rpartition(",\n        {")
    return head + "\n      ]\n    }"


def _repeat_last_factor(member):
    head, sep, last = member.rpartition(",\n        {")
    return head + sep + last.partition("\n      ]")[0] + sep + last


# edits of a member of a written file on dims (4, 4, 4, 4, 4): (what the
# edit applies to, the edit); a "factor" edit rewrites the member's first
# factor object's text, as nlwe writes it
RUN_MUTATIONS = {
    "index-leading-zero": ("factor", lambda f: f.replace('"index": ', '"index": 0')),
    "index-float": ("factor", lambda f: f.replace("\n        }", ".0\n        }")),
    "index-minus-zero": ("factor", _with_index("-0")),
    "index-eight-digits": ("factor", _with_index("10000000")),
    "index-out-of-range": ("factor", _with_index("4")),
    "kind-upper": ("factor", lambda f: re.sub('"(cb|dft)"', lambda m: m[0].upper(), f)),
    "extra-space": ("factor", lambda f: f.replace('"index": ', '"index":  ')),
    "tab": ("factor", lambda f: f.replace(' "index"', '\t"index"')),
    "dense": ("factor", lambda f: _dense_factor_text()),
    # a JSON string whose value is the text that runs key CB(0) by, which
    # the first member holds at party 0
    "string-of-a-run-key": ("factor", lambda f: json.dumps('cb",\n          "index": 0')),
    "one-factor-less": ("member", _drop_last_factor),
    "one-factor-more": ("member", _repeat_last_factor),
}


def _mutated_text(case):
    """The written basis file of canonical (5,4) with its middle member
    (of 1 024, about 190 kB into the file) edited by ``RUN_MUTATIONS[case]``."""
    what, edit = RUN_MUTATIONS[case]
    text = basis_text(generate_basis(preset_circuit("canonical:n=5,d=4")))
    # each member opens with "\n    {" after the "[" or the comma before it
    starts = [m.start() + 1 for m in re.finditer(r"\n    \{", text)]
    assert len(starts) == 1024
    start = starts[len(starts) // 2]
    end = text.index("\n    }", start) + 6
    member = text[start:end]
    if what == "member":
        edited = edit(member)
    else:
        first = member.index("[\n        ") + 10
        last = member.index("\n        }", first) + 10
        edited = member[:first] + edit(member[first:last]) + member[last:]
    assert edited != member
    return text[:start] + edited + text[end:]


_ITEM_SEPS = [",", ", ", " ,\n", "\r\n,\t"]
_KEY_SEPS = [":", ": ", " :\n "]


@st.composite
def reencoded(draw, obj, streamed=False):
    """The text of the set file object ``obj`` with random indent,
    separators and key order (``states`` before ``dims`` included), and
    some keys also given earlier or later with another value, of which
    ``json.loads`` keeps the last.  With ``streamed``, the text is in the
    layout that the window reads: ``dims`` before ``states`` and no key
    given twice, the other keys anywhere."""
    pairs = draw(st.permutations(list(obj.items())))
    if streamed:
        keys = [k for k, _ in pairs]
        i, j = sorted((keys.index("dims"), keys.index("states")))
        pairs[i], pairs[j] = ("dims", obj["dims"]), ("states", obj["states"])
    others = {
        "dims": st.lists(st.integers(1, 5), max_size=4) | st.just(obj["dims"]),
        "states": st.just(obj["states"][:1]) | st.just([]),
        "stopper_index": st.integers(0, 3),
    }
    for key in [] if streamed else draw(st.lists(st.sampled_from(sorted(others)), max_size=3)):
        pairs.insert(draw(st.integers(0, len(pairs))), (key, draw(others[key])))
    indent = draw(st.sampled_from([None, 0, 2, "\t"]))
    item_sep, key_sep = draw(st.sampled_from(_ITEM_SEPS)), draw(st.sampled_from(_KEY_SEPS))
    items = [json.dumps(k) + key_sep + json.dumps(v, indent=indent, separators=(item_sep, key_sep))
             for k, v in pairs]
    space = st.sampled_from(["", " ", "\n", "\r\n\t "])
    return draw(space) + "{" + draw(space) + item_sep.join(items) + draw(space) + "}" + draw(space)


def _with_key(text, key, value):
    """The set file ``text`` with ``key`` given once more, after its keys."""
    return text.rstrip()[:-1].rstrip() + f",\n  {json.dumps(key)}: {json.dumps(value)}\n}}\n"


def _piped(text, read):
    """``read`` of the ``/dev/fd`` path of a pipe that a thread feeds with
    ``text``, which must fit the pipe's buffer if ``read`` can fail before
    it has read the whole pipe."""
    r, w = os.pipe()

    def feed():
        with os.fdopen(w, "wb") as fh:
            fh.write(text.encode("utf-8"))

    feeder = threading.Thread(target=feed)
    feeder.start()
    try:
        return read(f"/dev/fd/{r}")
    finally:
        feeder.join()
        os.close(r)


class TestSetReader:
    """``read_basis`` and ``read_upb`` read a set file through a window of
    ``serialize._WINDOW`` characters and intern each member as it closes;
    they give what the tree readers give of ``json.loads`` of the file."""

    @settings(max_examples=100, deadline=None)
    @given(product_tables(max_members=12), st.data())
    def test_reads_like_the_tree_readers(self, table, data):
        basis = ProductBasis(table.dims, table.factors, table.ids)
        circuit = data.draw(st.none() | circuits_on(table.dims))
        _assert_reads_alike(data.draw(reencoded(serialize.basis_to_obj(basis, circuit))))
        upb = SimpleNamespace(dims=table.dims, factors=table.factors, ids=table.ids,
                              stopper_index=data.draw(st.integers(0, len(table) - 1)))
        _assert_reads_alike(data.draw(reencoded(serialize.upb_to_obj(upb))))

    @pytest.mark.parametrize("kind", ["basis", "upb"])
    @pytest.mark.parametrize("preset", ["shift", "canonical:n=4,d=3"])
    def test_preset_files_read_alike(self, kind, preset):
        _assert_reads_alike(_set_file_text(kind, preset), by="run")

    @settings(max_examples=100, deadline=None)
    @given(product_tables(max_members=12), st.data())
    def test_streamed_layout_is_read_by_the_window(self, table, data):
        # "dims" before "states" and no key twice, with any spacing and the
        # other keys anywhere: read at every window with no tree reader
        basis = ProductBasis(table.dims, table.factors, table.ids)
        circuit = data.draw(st.none() | circuits_on(table.dims))
        obj = serialize.basis_to_obj(basis, circuit)
        _assert_reads_alike(data.draw(reencoded(obj, streamed=True)), by="window")
        upb = SimpleNamespace(dims=table.dims, factors=table.factors, ids=table.ids,
                              stopper_index=data.draw(st.integers(0, len(table) - 1)))
        _assert_reads_alike(data.draw(reencoded(serialize.upb_to_obj(upb), streamed=True)),
                            by="window")

    @pytest.mark.parametrize("kind", ["basis", "upb"])
    def test_written_and_sort_keys_files_are_read_by_the_window(self, kind):
        text = _set_file_text(kind, "canonical:n=4,d=3")
        _assert_reads_alike(text, windows=(1, 2, 7, 64, 1024, serialize._WINDOW), by="run")
        _assert_reads_alike(json.dumps(json.loads(text), sort_keys=True), by="window")

    @pytest.mark.parametrize("kind", ["basis", "upb"])
    @pytest.mark.parametrize("case", ["states-first", "dims-again", "last-key-again",
                                      "early-fault", "mid-fault", "end-fault", "array",
                                      "number-array"])
    def test_other_inputs_are_read_by_the_tree_reader(self, kind, case):
        text = _set_file_text(kind, "shift")
        obj = json.loads(text)
        middle = len(text) // 2
        last = list(obj)[-1]  # given again with another value (a circuit on other dims)
        text = {
            "states-first": lambda: json.dumps({"states": obj.pop("states"), **obj}),
            "dims-again": lambda: _with_key(text, "dims", obj["dims"]),
            "last-key-again": lambda: _with_key(
                text, last, {"circuit": {"dims": [2], "gates": []}, "stopper_index": 0}[last]),
            "early-fault": lambda: text.replace(":", "?", 1),
            "mid-fault": lambda: text[:middle] + "?" + text[middle:],
            "end-fault": lambda: text.rstrip()[:-1],
            "array": lambda: "[" + text + "]",
            "number-array": lambda: "[1, 2]",
        }[case]()
        _assert_reads_alike(text, windows=(7, serialize._WINDOW), by="tree")

    @pytest.mark.parametrize("kind", ["basis", "upb"])
    @pytest.mark.parametrize("again", [False, True])
    def test_a_pipe_is_read_by_the_tree_reader(self, kind, again):
        text = _set_file_text(kind, "shift")
        if again:
            text = _with_key(text, "dims", json.loads(text)["dims"])
        read = serialize.read_basis if kind == "basis" else serialize.read_upb
        with mock.patch.object(serialize, "loads", wraps=serialize.loads) as tree_reader:
            got = _read_outcome(lambda: _piped(text, read))
        assert tree_reader.called
        load = serialize.basis_from_obj if kind == "basis" else serialize.upb_from_obj
        assert got == _read_outcome(lambda: load(json.loads(text)))

    def test_verify_of_a_pipe_with_dims_again(self, tmp_path, capsys):
        # "dims" given again after "states": the file read it twice, a pipe
        # cannot be read twice
        text = _set_file_text("basis", "shift")
        text = _with_key(text, "dims", json.loads(text)["dims"])
        path = tmp_path / "basis.json"
        path.write_text(text)
        assert main(["verify", "--in", str(path)]) == 0
        expected = capsys.readouterr()
        assert _piped(text, lambda fd_path: main(["verify", "--in", fd_path])) == 0
        assert capsys.readouterr() == expected

    @pytest.mark.parametrize("member", [0, -1])
    @pytest.mark.parametrize("case", sorted(FACTOR_TEXTS))
    def test_edited_factor_reads_alike(self, member, case):
        obj = json.loads(_set_file_text("upb", "shift"))
        obj["states"][member]["factors"][0] = "@factor@"
        text = json.dumps(obj).replace('"@factor@"', FACTOR_TEXTS[case])
        # a faulty member sends the file to the tree reader; with a valid
        # factor, a failed read is the UPB's own contract, on the window's table
        _assert_reads_alike(text, windows=(7, serialize._WINDOW), by=_reader_of(text))

    @pytest.mark.parametrize("case", sorted(LOADER_CASES))
    def test_loader_case_reads_alike(self, case):
        obj = json.loads(_set_file_text("basis", "shift"))
        LOADER_CASES[case][0](obj)
        text = json.dumps(obj)
        _assert_reads_alike(text, windows=(7, serialize._WINDOW), by=_reader_of(text))

    @pytest.mark.parametrize("window", [7, serialize._WINDOW])
    def test_every_truncation_and_trailing_data_is_malformed(self, window, tmp_path):
        text = _set_file_text("basis", "shift")
        path = tmp_path / "basis.json"
        cases = [text[:k] for k in range(len(text.rstrip()))]
        cases += [text + "x", text + "{}", text.rstrip() + " 0\n", text + "]"]
        with mock.patch.object(serialize, "_WINDOW", window):
            for case in cases:
                path.write_text(case)
                with pytest.raises(MalformedJsonError, match="^invalid JSON: "):
                    serialize.read_basis(str(path))

    def test_fault_positions_match_json(self, tmp_path):
        # the line, column and character json.loads names, though the fault
        # lies windows after the start of the file
        text = _set_file_text("basis", "canonical:n=4,d=3")
        bad = text[:-20] + "?" + text[-19:]
        path = tmp_path / "basis.json"
        path.write_text(bad)
        with pytest.raises(json.JSONDecodeError) as expected:
            json.loads(bad)
        with mock.patch.object(serialize, "_WINDOW", 64):
            with pytest.raises(MalformedJsonError) as got:
                serialize.read_basis(str(path))
        assert str(got.value) == f"invalid JSON: {expected.value}"

    @pytest.mark.parametrize("cut", [1, 2])
    def test_a_number_split_by_the_window_reads_whole(self, cut, tmp_path):
        # 15 of the 16 computational kets on (4, 4), stopper 12; the window
        # ends after the stopper's first digit, or before it
        upb = SimpleNamespace(dims=(4, 4), factors=[[CB(i) for i in range(4)]] * 2,
                              ids=np.array([(a, b) for a in range(4) for b in range(4)][:15]),
                              stopper_index=12)
        text = upb_text(upb)
        path = tmp_path / "upb.json"
        path.write_text(text)
        with mock.patch.object(serialize, "_WINDOW", text.index("12\n") + cut):
            assert serialize.read_upb(str(path)).stopper_index == 12

    @pytest.mark.parametrize("part", ["1.5", "1e-05", "-2.5E+3", "7e5"])
    def test_a_float_split_by_the_window_reads_whole(self, part, tmp_path):
        # the scanner ends a number before a cut "." or "e+": read as 1, a
        # stopper index of 1.5 would be a fault at the "." instead
        text = '{"dims": [2, 2], "states": [], "stopper_index": %s}' % part
        path = tmp_path / "upb.json"
        path.write_text(text)
        for window in range(1, len(text) + 1):
            with mock.patch.object(serialize, "_WINDOW", window):
                with pytest.raises(MalformedJsonError, match=re.escape(
                        f"stopper_index must be a JSON integer, got {json.loads(part)!r}")):
                    serialize.read_upb(str(path))

    @pytest.mark.parametrize("case", sorted(RUN_MUTATIONS))
    def test_an_edited_written_member_reads_alike(self, case):
        # every deviation from nlwe's own text is read by json's scanner,
        # or by the tree reader if it is a fault, though runs surround it
        text = _mutated_text(case)
        _assert_reads_alike(text, windows=(7, 64, 1024, serialize._WINDOW), by=_reader_of(text))

    @pytest.mark.parametrize("cut", range(10))
    def test_a_window_ending_in_a_runs_separator_reads_alike(self, cut):
        # the first window ends after the third member's "}", within the
        # ",\n    " after it, at the next "{" or just past it
        text = _set_file_text("basis", "canonical:n=4,d=3")
        end = 0
        for _ in range(3):
            end = text.index("\n    }", end) + 6
        assert text[end:end + 7] == ",\n    {"
        _assert_reads_alike(text, windows=(end + cut,), by="run")

    def test_json_scans_the_member_after_the_last_run_once(self, tmp_path):
        # the SHIFT basis file: runs read 7 of its 8 members, and json's
        # scanner the last one, which is followed by "]" and not a comma
        path = tmp_path / "basis.json"
        path.write_text(_set_file_text("basis", "shift"))
        scan, scanned = _scanned_members()
        with mock.patch.object(serialize, "_scan_value", scan):
            basis, _ = serialize.read_basis(str(path))
        assert len(basis) == 8
        assert len(scanned) == 1

    def test_runs_read_the_written_big_basis(self, big_basis):
        # at least 99 % of the (6,5) basis's 93 750 factors: every factor
        # that json's scanner does not read
        scan, scanned = _scanned_members()
        with mock.patch.object(serialize, "_scan_value", scan):
            basis, _ = serialize.read_basis(str(big_basis))
        by_json = sum(len(member["factors"]) for member in scanned)
        assert basis.ids.size - by_json >= 0.99 * basis.ids.size

    @pytest.mark.parametrize("layout", ["written", "sort-keys", "compact"])
    def test_read_basis_peaks_below_half_the_file_size(self, big_basis, layout, tmp_path):
        # the (6,5) basis as written, its sort_keys copy (circuit, dims,
        # states) and a compact copy with "dims" first, which json's scanner
        # reads member by member: the window, the id table and one member's
        # objects, below half the written file
        path = big_basis
        if layout != "written":
            obj = json.loads(big_basis.read_text())
            path = tmp_path / "copy.json"
            path.write_text(json.dumps(obj, sort_keys=layout == "sort-keys"))
        (basis, _), peak = _traced_peak(lambda: serialize.read_basis(str(path)))
        assert len(basis) == 15625
        assert peak <= 0.5 * big_basis.stat().st_size


class TestRunPieces:
    """A run's one check: a piece is read only where it equals the
    writer's own piece for the CB or DFT factor it names at its party, and
    a member that does not read costs the window about one member."""

    @settings(max_examples=200, deadline=None)
    @given(st.sampled_from(["cb", "dft"]), st.integers(0, 10**7 - 1), st.booleans(), st.data())
    def test_written_pieces_read_and_edited_ones_do_not(self, kind, index, last, data):
        piece = serialize._piece({"kind": kind, "index": index}, last)
        key = serialize._piece_key
        assert key(piece, last) == (kind, index)
        assert key(piece, not last) is None  # moved to another party position
        other = {"cb": "dft", "dft": "cb"}[kind]
        assert key(other + piece[len(kind):], last) == (other, index)
        at = piece.index('"index": ') + 9
        digits = str(index)
        assert piece[at:at + len(digits) + 1] == digits + "\n"

        def edited(text, start=at, stop=at):
            return piece[:start] + text + piece[stop:]

        for text in ["0", "-", "+", " "]:  # a leading zero, a sign, a space
            assert key(edited(text), last) is None
        # one digit more: past the seventh (or after a lone 0), the piece is refused
        longer = key(edited(digits + "0", stop=at + len(digits)), last)
        assert longer == (None if len(digits) == 7 or not index else (kind, 10 * index))
        assert key(serialize._piece({"kind": kind, "index": 10**7 + index}, last), last) is None
        # a space anywhere
        j = data.draw(st.integers(0, len(piece)))
        assert key(piece[:j] + " " + piece[j:], last) is None
        # a digit changed: read as the index it now names, unless it now has a leading zero
        j = data.draw(st.integers(0, len(digits) - 1))
        digit = data.draw(st.sampled_from("0123456789").filter(lambda c: c != digits[j]))
        changed = digits[:j] + digit + digits[j + 1:]
        expected = None if changed[0] == "0" and len(changed) > 1 else (kind, int(changed))
        assert key(edited(changed, stop=at + len(digits)), last) == expected
        # any one character replaced: read only as the factor that json
        # reads of the edited factor object
        j = data.draw(st.integers(0, len(piece) - 1))
        char = data.draw(st.sampled_from('0123456789 -+.e"{},:\n\tabcdfkn'))
        text = piece[:j] + char + piece[j + 1:]
        got = key(text, last)
        if got is not None:
            obj = json.loads("{" + serialize._SEP + text[:text.index("}") + 1])
            assert (obj["kind"], obj["index"]) == got
            assert text == serialize._piece(obj, last)

    def test_a_member_that_does_not_read_costs_about_one_member(self, tmp_path):
        # 2 000 members on (2, 2), every other one with a Dense factor:
        # each run reads one member and stops at the next, and json's
        # scanner reads that one, so the window splits little more than
        # the file once
        dense = Dense(np.array([0.6, 0.8]))
        table = ProductBasis((2, 2), [[dense, CB(0)], [CB(0), CB(1)]],
                             np.array([[0, 0], [1, 1]] * 1000, dtype=np.intp))
        text = basis_text(table)
        path = tmp_path / "basis.json"
        path.write_text(text)
        split = []

        def pieces(window, start, stop):
            split.append(min(stop, len(window.text)) - start)
            return window.text[start:stop].split(serialize._SEP)[:-1]

        scan, scanned = _scanned_members()
        with mock.patch.object(serialize._Window, "pieces", autospec=True, side_effect=pieces), \
                mock.patch.object(serialize, "_scan_value", scan):
            basis, _ = serialize.read_basis(str(path))
        assert basis.ids.tolist() == table.ids.tolist()
        assert len(scanned) == 1001  # the members with a Dense factor, and the last
        assert sum(split) <= 2 * len(text)


DEPTH = 100_000


class TestDeepJson:
    """A file nested far beyond the recursion limit is malformed JSON:
    exit 2 and one error line, not a traceback."""

    @pytest.mark.parametrize("command", [["verify", "--in"], ["upb", "check", "--in"],
                                         ["bestate", "--in"], ["lemma", "--kraus"]])
    def test_deep_file_is_one_error_line(self, command, tmp_path, capsys):
        nested = "[" * DEPTH + "]" * DEPTH
        text = nested if command[0] == "lemma" else '{"dims": [2], "states": %s}' % nested
        path = tmp_path / "deep.json"
        path.write_text(text)
        assert main(command + [str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error:malformed-json: invalid JSON: ")
        assert captured.err.count("\n") == 1

    def test_loads_of_a_deep_text(self):
        with pytest.raises(MalformedJsonError):
            serialize.loads("[" * DEPTH + "]" * DEPTH)

    @pytest.mark.skipif(not getattr(sys, "get_int_max_str_digits", lambda: 0)(),
                        reason="no limit on integer string conversion")
    @pytest.mark.parametrize("read", [serialize.loads, None])
    def test_a_number_past_the_digit_limit(self, read, tmp_path):
        text = '{"dims": [%s], "states": []}' % ("9" * 5000)
        if read is None:
            path = tmp_path / "long.json"
            path.write_text(text)
            with pytest.raises(MalformedJsonError, match="^invalid JSON: "):
                serialize.read_basis(str(path))
        else:
            with pytest.raises(MalformedJsonError, match="^invalid JSON: "):
                read(text)
