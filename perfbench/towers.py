"""Prefix documents for the benchmark, written without calling jicert.

Each workload's input is an iterated wreath tower built the same way as
`jicert build-wreath`: stage n is base_n wr stage_(n-1), its generators are
one copy of the base generators inside every block (mapped to the identity
of the previous stage) followed by the block action of the previous stage's
generators (mapped to themselves).  The seed only relabels the points of
every stage by a random permutation; the groups, the connecting maps and
the marks stay the same up to that relabelling.
"""

from __future__ import annotations

import hashlib
import json
import math
import random

FORMAT_TAG = "jicert-system/1"


def _cycle(n: int, points) -> tuple:
    img = list(range(n))
    for i, p in enumerate(points):
        img[p] = points[(i + 1) % len(points)]
    return tuple(img)


def base_group(name: str) -> tuple[int, list[tuple], int]:
    """(degree, generators, order) of the named base group Cn, Sn or An."""
    kind, n = name[0], int(name[1:])
    full = _cycle(n, list(range(n)))
    if kind == "C":
        return n, [full], n
    if kind == "S":
        return n, [full, _cycle(n, [0, 1])], math.factorial(n)
    if kind == "A" and n % 2 == 1:
        gens = [_cycle(n, [0, 1, 2])] + ([full] if n > 3 else [])
        return n, gens, math.factorial(n) // 2
    raise ValueError(f"unsupported base group {name!r}")


def wreath_tower(bases: list[str], depth: int) -> list[dict]:
    """Unrelabelled tower stages: degree, generators, images, order."""
    deg0, gens0, order0 = base_group(bases[0])
    stages = [{"degree": deg0, "generators": gens0, "images": None, "order": order0}]
    for n in range(1, depth):
        db, bgens, border = base_group(bases[n % len(bases)])
        prev = stages[-1]
        dprev = prev["degree"]
        degree = db * dprev
        ident_prev = tuple(range(dprev))
        gens, images = [], []
        for t in range(dprev):
            for x in bgens:
                img = list(range(degree))
                for o in range(db):
                    img[t * db + o] = t * db + x[o]
                gens.append(tuple(img))
                images.append(ident_prev)
        for y in prev["generators"]:
            gens.append(tuple(y[t] * db + o for t in range(dprev) for o in range(db)))
            images.append(y)
        stages.append(
            {
                "degree": degree,
                "generators": gens,
                "images": images,
                "order": border**dprev * prev["order"],
            }
        )
    return stages


def relabel(x: tuple, sigma: tuple) -> tuple:
    """sigma x sigma^-1: the permutation x with every point p renamed sigma[p]."""
    out = [0] * len(x)
    for i, xi in enumerate(x):
        out[sigma[i]] = sigma[xi]
    return tuple(out)


def build_document(
    bases: list[str], depth: int, seed: int, marks: dict | None = None
) -> tuple[bytes, list[dict]]:
    """Relabelled prefix document and its stages (with relabelled raw tuples).

    marks maps a stage index to {"a": [...], "b0": [...]} generator lists in
    the unrelabelled points; they are relabelled with their stage.
    """
    rng = random.Random(seed)
    stages = wreath_tower(bases, depth)
    sigmas = []
    for st in stages:
        perm = list(range(st["degree"]))
        rng.shuffle(perm)
        sigmas.append(tuple(perm))
    out = []
    for n, st in enumerate(stages):
        sig = sigmas[n]
        new = {
            "degree": st["degree"],
            "order": st["order"],
            "generators": [relabel(g, sig) for g in st["generators"]],
            "images": None,
        }
        if n > 0:
            new["images"] = [relabel(y, sigmas[n - 1]) for y in st["images"]]
        for key, gens in (marks or {}).get(n, {}).items():
            new[key] = [relabel(g, sig) for g in gens]
        out.append(new)
    doc_stages = []
    for st in out:
        entry = {"degree": st["degree"], "generators": [list(g) for g in st["generators"]]}
        if st["images"] is not None:
            entry["images"] = [list(y) for y in st["images"]]
        for key in ("a", "b0"):
            if key in st:
                entry[key] = [list(g) for g in st[key]]
        doc_stages.append(entry)
    doc = {"format": FORMAT_TAG, "stages": doc_stages}
    return (json.dumps(doc, indent=2, sort_keys=True) + "\n").encode(), out


def sweep_marks() -> dict:
    """Marks of the S3:3,C2:2 depth-2 tower used by certify-sweep.

    Stage 0: a = S3 and b0 = A3.  Stage 1: a = the preimage of A3, i.e. the
    three block copies of C2 together with the lift of the 3-cycle.
    """
    tower = wreath_tower(["S3", "C2"], 2)
    s0, s1 = tower
    three_cycle = s0["generators"][0]
    lift = next(g for g, y in zip(s1["generators"], s1["images"]) if y == three_cycle)
    kernel_gens = [g for g, y in zip(s1["generators"], s1["images"]) if y == (0, 1, 2)]
    return {
        0: {"a": list(s0["generators"]), "b0": [three_cycle]},
        1: {"a": kernel_gens + [lift]},
    }


def digest(data: bytes) -> str:
    return "sha256:" + hashlib.sha256(data).hexdigest()
