import json
import subprocess
import sys

import numpy as np
import pytest

from nlwe import serialize
from nlwe.circuit import Circuit, ControlDftGate
from nlwe.cli import main
from nlwe.ensembles import shift_circuit, shift_ensemble
from nlwe.states import CB, Dense, ProductBasis, ProductState
from nlwe.upb import extract_upb


class TestSerialization:
    def test_basis_round_trip(self):
        circuit = shift_circuit()
        basis = shift_ensemble()
        text = serialize.dumps(serialize.basis_to_obj(basis, circuit))
        loaded, loaded_circuit = serialize.basis_from_obj(serialize.loads(text))
        assert loaded.states == basis.states
        assert loaded_circuit.gates == circuit.gates
        assert loaded_circuit.dims == circuit.dims

    def test_dense_factor_round_trip_exact(self):
        v = np.array([1 / np.sqrt(3), 1j / np.sqrt(3), -1 / np.sqrt(3)])
        state = ProductState((Dense(v), CB(1)), (3, 2))
        obj = serialize.state_to_obj(state)
        back = serialize.state_from_obj(obj, (3, 2))
        assert np.array_equal(back.factors[0].entries, v)

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
    basis = ProductBasis((2100, 2), tuple(
        ProductState((CB(i), CB(0)), (2100, 2)) for i in range(2100)
    ))
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
        path.write_text(serialize.dumps(serialize.basis_to_obj(ProductBasis((2, 2), states))))
        assert main(["verify", "--in", str(path), "--checks", "orth"]) == 1
        monkeypatch.setenv("NLWE_TOLERANCE", "1e-5")
        assert main(["verify", "--in", str(path), "--checks", "orth"]) == 0

    @pytest.mark.parametrize("value", ["abc", "-1", "0", "nan", "inf", "0.9", "10"])
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
        assert main(["lemma", "--dim", "2", "--seed", "7", "--samples", "25"]) == 0
        out = capsys.readouterr().out
        assert "scaled-unitary-family" in out
        assert "weyl-family" in out

    def test_lemma_kraus_file(self, tmp_path, capsys):
        path = tmp_path / "k.json"
        path.write_text(
            json.dumps({"matrix": [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.5, 0.0]]]})
        )
        assert main(["lemma", "--kraus", str(path)]) == 0
        assert "lemma-implication" in capsys.readouterr().out

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

    def test_lemma_rejects_bad_dimension(self, capsys):
        assert main(["lemma", "--dim", "-2"]) == 2
        assert "error:precondition-failed:" in capsys.readouterr().err

    def test_verify_unknown_check_name(self, tmp_path, capsys):
        path = tmp_path / "basis.json"
        main(["generate", "--preset", "oneway", "--out", str(path)])
        assert main(["verify", "--in", str(path), "--checks", "bogus"]) == 2
        assert "error:precondition-failed:" in capsys.readouterr().err

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

    def test_module_entry_point(self, tmp_path):
        out = tmp_path / "b.json"
        proc = subprocess.run(
            [sys.executable, "-m", "nlwe", "generate", "--preset", "oneway", "--out", str(out)],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert json.loads(out.read_text())["dims"] == [2, 2]
