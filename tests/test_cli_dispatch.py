"""The command line's one parser and its dispatch by name, the operator
file read by ``serialize``, and the package's surface: ``nlwe`` re-exports
nothing, so each name is imported from the module that defines it.

``main`` builds its parser once per process and runs the module's
``cmd_<command>`` attribute looked up at each call, so a wrapper that
replaces that attribute (the benchmark's tracer, a test's monkeypatch) is
the function that runs."""

import argparse
import importlib.util
import types
from pathlib import Path

import numpy as np
import pytest

import nlwe
from nlwe import cli, serialize
from nlwe.cli import main
from nlwe.errors import MalformedJsonError

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans


class TestPackageSurface:
    def test_package_attributes_are_its_modules(self):
        # with the command line loaded, every module of the package is
        # imported; the package's public attributes are those modules and
        # nothing re-exported from them
        assert nlwe.__version__ == "0.1.0"
        public = {k: v for k, v in vars(nlwe).items() if not k.startswith("_")}
        assert "cli" in public
        assert [k for k, v in public.items() if not isinstance(v, types.ModuleType)] == []


class TestOneParser:
    def test_second_call_builds_no_parser(self, tmp_path, monkeypatch, capsys):
        built = []
        init = argparse.ArgumentParser.__init__

        def counting_init(self, *args, **kwargs):
            built.append(kwargs.get("prog"))
            init(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
        assert main(["upb", "--preset", "shift", "--out", str(tmp_path / "a.json")]) == 0
        built.clear()
        assert main(["upb", "check", "--in", str(tmp_path / "a.json")]) == 0
        assert main(["generate", "--preset", "shift"]) == 0
        assert built == []
        capsys.readouterr()

    def test_parser_holds_no_function(self):
        parser = cli.build_parser()
        assert parser is cli.build_parser()
        args = parser.parse_args(["upb", "check", "--in", "x.json"])
        assert not any(callable(v) for v in vars(args).values())
        assert (args.command, args.upb_cmd) == ("upb", "check")

    def test_command_is_found_at_call_time(self, monkeypatch):
        seen = []
        monkeypatch.setattr(cli, "cmd_generate", lambda args: seen.append(args.preset) or 7)
        assert main(["generate", "--preset", "shift"]) == 7
        assert seen == ["shift"]

    def test_usage_error_exits_2_on_the_cached_parser(self, capsys):
        for _ in range(2):
            with pytest.raises(SystemExit) as exc:
                main(["upb", "check"])
            assert exc.value.code == 2
            assert "the following arguments are required: --in" in capsys.readouterr().err


class TestTracedCommands:
    def test_every_upb_call_leaves_its_span(self, tmp_path, capsys):
        tracer = load_spans().Tracer()
        path = tmp_path / "upb.json"
        calls = [
            (["upb", "--preset", "shift", "--out", str(path)], "cli.upb"),
            (["upb", "check", "--in", str(path)], "cli.upb_check"),
        ] * 2
        tracer.install()
        try:
            for argv, layer in calls:
                before = len(tracer.spans)
                assert main(argv) == 0
                assert layer in [span[0] for span in tracer.spans[before:]]
        finally:
            tracer.uninstall()
        capsys.readouterr()
        layers = [span[0] for span in tracer.spans]
        assert layers.count("cli.upb") == layers.count("cli.upb_check") == 2


class TestOperatorFile:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(5)
        matrix = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        matrix[0, 0] = -0.0
        obj = {"matrix": [[[z.real, z.imag] for z in row] for row in matrix]}
        path = tmp_path / "k.json"
        path.write_text(serialize.dumps(obj))
        back = serialize.operator_from_obj(serialize.load_file(str(path)))
        assert back.dtype == complex
        assert back.tobytes() == matrix.tobytes()

    @pytest.mark.parametrize(
        "obj", [[], {}, {"matrix": 3}, {"matrix": [[[1.0]]]}, {"matrix": [[[1, 0]], []]}]
    )
    def test_bad_operator_object(self, obj):
        with pytest.raises(MalformedJsonError, match="^bad operator file: "):
            serialize.operator_from_obj(obj)
