"""Input builders for the benchmark, written with numpy only (no ``nlwe``).

The benchmark's hard inputs are products of known unextendible product
bases (UPBs).  If S_A and S_B are unextendible orthonormal product sets on
disjoint parties (a complete basis of one party counts as such a set), then
{a (x) b} is unextendible: a product state phi_A (x) phi_B orthogonal to every
a (x) b has phi_A overlapping some a (else S_A would extend), so phi_B is
orthogonal to all of S_B, which is impossible.  Removing any one member
gives a set that this member itself extends.

Factors are kept symbolic (``("cb", k)`` / ``("dft", k)``) where they are
computational or dual-basis kets; the Tiles factors (|0> - |1>)/sqrt(2) and
(|1> - |2>)/sqrt(2) are written as dense entries.  Files use the UPB JSON
format that ``nlwe upb check`` and ``nlwe bestate`` read.
"""

from __future__ import annotations

import json

import numpy as np

_R = 1.0 / np.sqrt(2.0)


def cb(k):
    return ("cb", k)


def dft(k):
    return ("dft", k)


def dense(*entries):
    return ("dense", tuple(complex(z) for z in entries))


# SHIFT on three qubits: |0,1,+>, |1,+,0>, |+,0,1>, |-,-,->, with F|0> = |+>
# and F|1> = |->.  The last member is the all-dual-basis stopper.
SHIFT = {
    "dims": (2, 2, 2),
    "members": [
        (cb(0), cb(1), dft(0)),
        (cb(1), dft(0), cb(0)),
        (dft(0), cb(0), cb(1)),
        (dft(1), dft(1), dft(1)),
    ],
    "stopper": 3,
}

# Tiles on two qutrits (Bennett, DiVincenzo, Mor, Shor, Smolin and Terhal,
# PRL 82, 5385 (1999)); the stopper (|0>+|1>+|2>)/sqrt(3) is F|0>.
TILES = {
    "dims": (3, 3),
    "members": [
        (cb(0), dense(_R, -_R, 0)),
        (dense(_R, -_R, 0), cb(2)),
        (cb(2), dense(0, _R, -_R)),
        (dense(0, _R, -_R), cb(0)),
        (dft(0), dft(0)),
    ],
    "stopper": 4,
}


def complete_basis(kind, d):
    """One party's computational (``"cb"``) or dual (``"dft"``) basis as a
    single-party unextendible set."""
    return {"dims": (d,), "members": [((kind, k),) for k in range(d)], "stopper": 0}


def product(a, b):
    """The product set {x (x) y}; members run x-major, and the stopper is
    the product of the two stoppers."""
    members = [x + y for x in a["members"] for y in b["members"]]
    stopper = a["stopper"] * len(b["members"]) + b["stopper"]
    return {"dims": a["dims"] + b["dims"], "members": members, "stopper": stopper}


# The product UPBs of the benchmark, by name.
PRODUCTS = {
    "shift-x-cb2": (SHIFT, ("cb", 2)),
    "shift-x-dft2": (SHIFT, ("dft", 2)),
    "shift-x-cb3": (SHIFT, ("cb", 3)),
    "shift-x-dft3": (SHIFT, ("dft", 3)),
    "shift-x-dft4": (SHIFT, ("dft", 4)),
    "tiles-x-cb2": (TILES, ("cb", 2)),
    "tiles-x-dft2": (TILES, ("dft", 2)),
    "tiles-x-cb3": (TILES, ("cb", 3)),
}


def product_upb(name, relabel=None):
    """Product UPB ``name``, its members reordered by a relabelling of the
    complete-basis factor.

    ``relabel`` is a permutation k -> relabel[k] of the complete basis.
    Position (x, k) of the x-major list then holds member (x, b_relabel[k]),
    so the member order changes while the decider's search tree stays the
    same up to a local unitary on the last party: the work does not depend
    on the permutation.  The stopper index follows its member.
    """
    head, (kind, d) = PRODUCTS[name]
    upb = product(head, complete_basis(kind, d))
    if relabel is None:
        return upb
    relabel = [int(k) for k in relabel]
    if sorted(relabel) != list(range(d)):
        raise ValueError(f"relabel {relabel} is not a permutation of range({d})")
    order = [p - p % d + relabel[p % d] for p in range(len(upb["members"]))]
    return {
        "dims": upb["dims"],
        "members": [upb["members"][i] for i in order],
        "stopper": order.index(upb["stopper"]),
    }


def leave_one_out(upb, index):
    """The set without member ``index``.  The stopper keeps its member; when
    that member is the one removed, the first remaining member is used."""
    members = [m for i, m in enumerate(upb["members"]) if i != index]
    stopper = upb["stopper"]
    if stopper == index:
        stopper = 0
    elif stopper > index:
        stopper -= 1
    return {"dims": upb["dims"], "members": members, "stopper": stopper}


def seeded_relabel(name, rng):
    """A random relabelling of the complete-basis factor of ``name``."""
    _, (_, d) = PRODUCTS[name]
    return [int(k) for k in rng.permutation(d)]


def factor_obj(factor):
    kind, value = factor
    if kind == "dense":
        return {"kind": "dense", "entries": [[z.real, z.imag] for z in value]}
    return {"kind": kind, "index": int(value)}


def upb_obj(upb):
    """The UPB JSON object for a builder set."""
    return {
        "dims": list(upb["dims"]),
        "states": [{"factors": [factor_obj(f) for f in m]} for m in upb["members"]],
        "stopper_index": upb["stopper"],
    }


def write_upb(path, upb):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(upb_obj(upb), fh, indent=2)
        fh.write("\n")
