"""The benchmark's workloads: CLI cases and the oracle check of each.

A case is one ``nlwe`` command line plus a check that takes
(exit code, stdout) and returns a list of problems.  ``build(workload,
seed, workdir)`` writes the workload's input files into ``workdir`` and
returns its cases in order; the same seed gives the same inputs.
"""

from __future__ import annotations

import functools
import os

import numpy as np

import inputs
import oracle

VERIFY_PRESETS = ["shift", "fig4", "canonical:n=4,d=3", "canonical:n=4,d=3,4,3,3",
                  "canonical:n=5,d=4"]
BIG_PRESET = "canonical:n=6,d=5"
BIG_CHECKS = ("product", "census", "exclusivity")
ALL_CHECKS = ("orth", "product", "exclusivity", "commutation", "census")

EXTRACT_PRESETS = ["shift", "canonical:n=4,d=3", "canonical:n=4,d=3,4,3,3",
                   "canonical:n=5,d=4", "canonical:n=6,d=5"]
DECIDE_PRODUCTS = ["shift-x-cb3", "tiles-x-cb3", "shift-x-dft4"]
BESTATE_PRODUCTS = ["shift-x-cb2", "shift-x-dft2", "tiles-x-cb2", "tiles-x-dft2",
                    "shift-x-cb3", "shift-x-dft3"]


def case(argv, check):
    return {"argv": argv, "check": check}


def _ignore_output(check):
    """Adapt a check of files only to the (rc, stdout) signature, requiring
    exit code 0."""
    def checked(rc, stdout):
        return ([f"exit code {rc}, expected 0"] if rc != 0 else []) + check()
    return checked


def verify_basis(seed, workdir):
    rng = np.random.default_rng(seed)
    cases = []
    for i in rng.permutation(len(VERIFY_PRESETS)):
        preset = VERIFY_PRESETS[i]
        basis = os.path.join(workdir, f"basis-{i}.json")
        report = os.path.join(workdir, f"report-{i}.json")
        cases.append(case(["generate", "--preset", preset, "--out", basis],
                          _ignore_output(functools.partial(oracle.check_basis, basis, preset))))
        cases.append(case(["verify", "--in", basis, "--json", report],
                          functools.partial(oracle.check_verify, basis_path=basis,
                                            checks=ALL_CHECKS, json_path=report)))
    basis = os.path.join(workdir, "basis-big.json")
    cases.append(case(["generate", "--preset", BIG_PRESET, "--out", basis],
                      _ignore_output(functools.partial(oracle.check_basis, basis, BIG_PRESET))))
    cases.append(case(["verify", "--in", basis, "--checks", ",".join(BIG_CHECKS)],
                      functools.partial(oracle.check_verify, basis_path=basis, checks=BIG_CHECKS)))
    return cases


def upb_decide(seed, workdir):
    """Extractions (default and one seeded --excluded-index variant) with
    their decisions, then the product UPBs in a seeded member order and
    every leave-one-out copy of them.

    Expected verdicts come from mathematics, not from the program: SHIFT
    and the product UPBs are unextendible; a leave-one-out copy is extended
    by the member removed; an extraction with any local dimension >= 3 is
    extendible, as its witness assignment must show.
    """
    rng = np.random.default_rng(seed)
    cases = []
    for i, preset in enumerate(EXTRACT_PRESETS):
        dims = oracle.preset_dims(preset)
        k = int(rng.integers(0, min(dims) - 1))
        for tag, excluded, extra in (("", {}, []),
                                     ("x", {p: k for p in range(len(dims))},
                                      ["--excluded-index", f"all={k}"])):
            path = os.path.join(workdir, f"extract{tag}-{i}.json")
            cases.append(case(["upb", "--preset", preset, *extra, "--out", path],
                              _ignore_output(functools.partial(
                                  oracle.check_extraction, path, preset, excluded))))
            cases.append(case(["upb", "check", "--in", path],
                              functools.partial(oracle.check_upb_decision, upb_path=path,
                                                expect_extendible=max(dims) > 2)))
    for name in DECIDE_PRODUCTS:
        upb = inputs.product_upb(name, inputs.seeded_relabel(name, rng))
        path = os.path.join(workdir, f"{name}.json")
        inputs.write_upb(path, upb)
        cases.append(case(["upb", "check", "--in", path],
                          functools.partial(oracle.check_upb_decision, upb_path=path,
                                            expect_extendible=False)))
        for r in range(len(upb["members"])):
            path = os.path.join(workdir, f"{name}-without-{r}.json")
            inputs.write_upb(path, inputs.leave_one_out(upb, r))
            cases.append(case(["upb", "check", "--in", path],
                              functools.partial(oracle.check_upb_decision, upb_path=path,
                                                expect_extendible=True)))
    return cases


def bestate_ppt(seed, workdir):
    """The SHIFT extraction with PPT and separability, then small product
    UPBs (seeded member order) whose complement mixtures are diagonalised
    on every cut."""
    rng = np.random.default_rng(seed)
    shift = os.path.join(workdir, "shift.json")
    rho = os.path.join(workdir, "rho-shift.json")
    cases = [
        case(["upb", "--preset", "shift", "--out", shift],
             _ignore_output(functools.partial(oracle.check_extraction, shift, "shift", {}))),
        case(["bestate", "--in", shift, "--ppt", "--separability", "--out", rho],
             functools.partial(oracle.check_bestate, upb_path=shift, rho_path=rho,
                               separability=True)),
    ]
    for name in BESTATE_PRODUCTS:
        path = os.path.join(workdir, f"{name}.json")
        rho = os.path.join(workdir, f"rho-{name}.json")
        inputs.write_upb(path, inputs.product_upb(name, inputs.seeded_relabel(name, rng)))
        cases.append(case(["bestate", "--in", path, "--ppt", "--out", rho],
                          functools.partial(oracle.check_bestate, upb_path=path, rho_path=rho,
                                            separability=False)))
    return cases


def build(workload, seed, workdir):
    builders = {"verify-basis": verify_basis, "upb-decide": upb_decide,
                "bestate-ppt": bestate_ppt}
    return builders[workload](seed, workdir)
