"""Expected outputs, computed apart from jicert, and the checks of each op.

Reference values come from the wreath formula (orders, degrees), from the
sha256 of the bytes the benchmark wrote (input digest), and from brute
force on raw image tuples: the functions of tests/oracles.py plus the check
definitions re-derived below.  Nothing here imports jicert or compares with
a stored copy of an earlier output.
"""

from __future__ import annotations

import json
import re

from towers import digest

NA, PASS, FAIL, BOUNDED = "not-applicable", "pass", "fail", "bounded"
PAIR_CHECKS = ("critical_pair", "centralizer_product")


class OutputMismatch(Exception):
    """An op's output disagrees with the reference values."""


def require(cond: bool, what: str) -> None:
    if not cond:
        raise OutputMismatch(what)


# -- brute force on raw tuples -------------------------------------------------


class RawGroup:
    """A stage group as a frozenset of image tuples, with its normal lattice."""

    def __init__(self, O, degree: int, gens):
        self.O = O
        self.degree = degree
        self.gens = [tuple(g) for g in gens]
        self.elements = O.closure_gens(degree, self.gens)
        self._normals = None
        self._subgroups = None

    def closure(self, gens) -> frozenset:
        return self.O.closure_gens(self.degree, [tuple(g) for g in gens])

    @property
    def normals(self) -> list:
        if self._normals is None:
            self._normals = self.O.normal_subgroups(self.degree, self.elements)
        return self._normals

    @property
    def subgroups(self) -> list:
        if self._subgroups is None:
            self._subgroups = self.O.all_subgroups(self.degree, self.elements)
        return self._subgroups

    def is_normal(self, sub) -> bool:
        conj = self.O.conj
        return all(conj(x, g) in sub for x in sub for g in self.gens)

    def normal_closure(self, sub) -> frozenset:
        """Least normal subgroup containing sub (the normal list is complete)."""
        out = self.elements
        for n in self.normals:
            if sub <= n:
                out = out & n
        return out

    def conjugates(self, sub) -> set:
        conj = self.O.conj
        return {frozenset(conj(x, g) for x in sub) for g in self.elements}

    def centralizer(self, sub) -> frozenset:
        mul = self.O.mul
        return frozenset(g for g in self.elements if all(mul(g, x) == mul(x, g) for x in sub))


def commute(O, a, b) -> bool:
    return all(O.mul(x, y) == O.mul(y, x) for x in a for y in b)


def pairwise_commute(O, subs) -> bool:
    subs = list(subs)
    return all(
        commute(O, subs[i], subs[j]) for i in range(len(subs)) for j in range(i + 1, len(subs))
    )


def commuting_family(g: RawGroup, u) -> bool:
    """u is not normal and its distinct conjugates commute elementwise."""
    return not g.is_normal(u) and pairwise_commute(g.O, g.conjugates(u))


def normalized_by(g: RawGroup, h, a) -> bool:
    return all(g.O.conj(x, y) in h for x in h for y in a)


def critical_pair_orders(g: RawGroup) -> list[tuple[int, int]]:
    """(|A|, |B|) for every critical pair: B, the join of the normal subgroups
    properly inside A, is itself proper in A."""
    out = []
    for a in g.normals:
        if len(a) == 1:
            continue
        inside = [n for n in g.normals if len(n) < len(a) and n <= a]
        b = g.elements
        for n in g.normals:
            if all(m <= n for m in inside):
                b = b & n
        if len(b) < len(a):
            out.append((len(a), len(b)))
    return out


def hom_table(O, src: RawGroup, tgt_degree: int, images) -> dict:
    """Map of every source element to its image, by BFS over the generators."""
    table = {O.identity(src.degree): O.identity(tgt_degree)}
    frontier = list(table)
    while frontier:
        fresh = []
        for x in frontier:
            fx = table[x]
            for s, fs in zip(src.gens, images):
                y = O.mul(x, s)
                if y not in table:
                    table[y] = O.mul(fx, tuple(fs))
                    fresh.append(y)
        frontier = fresh
    return table


def factor_counts(O, g: RawGroup) -> dict[str, int]:
    counts: dict[str, int] = {}
    for name in O.composition_factor_names(g.degree, g.elements):
        counts[name] = counts.get(name, 0) + 1
    return counts


def factor_order(O, name: str) -> int:
    if name.startswith("C") and name[1:].isdigit():
        return int(name[1:])
    return {v: k for k, v in O.SIMPLE_ORDER_NAMES.items()}[name]


# -- sweep verdicts -------------------------------------------------------------
#
# FAILS holds the failure condition of each check family, written once on raw
# sets; CANDIDATES lists every argument tuple it can take on a stage.  A
# verdict is FAIL when some candidate satisfies the condition, and a reported
# witness must satisfy it too.  ctx holds the stage group g and its marks:
# k (kernel), a (top), b (bottom), pc (image of the deeper mark times its
# centralizer) and maxn (maximal normal subgroups of a).


def _proper_central_split(g: RawGroup, n, f1, f2) -> bool:
    return (f1 < n and f2 < n and commute(g.O, f1, f2)
            and g.closure(sorted(f1 | f2)) == n)


FAILS = {
    "critical_pair": lambda c, n: (
        not c["b"] < c["a"] if n is None
        else n < c["a"] and not n <= c["b"] and c["g"].is_normal(n)),
    "centralizer_product": lambda c, x: x in c["pc"] and x not in c["b"],
    "wilson_i": lambda c, n: (
        not n <= c["k"] and not c["k"] <= n and c["g"].is_normal(n)),
    "wilson_ii": lambda c, n, u: (
        u <= n and not n <= c["k"] and c["g"].is_normal(n)
        and commuting_family(c["g"], u) and c["g"].normal_closure(u) == n),
    "commuting_conjugates": lambda c, u: (
        commuting_family(c["g"], u) and c["a"] <= c["g"].normal_closure(u)),
    "normalized_dichotomy": lambda c, h, m: (
        m in c["maxn"] and not h <= m and not c["pc"] <= h
        and normalized_by(c["g"], h, c["a"])),
    "no_central_factor": lambda c, n, f1, f2: (
        c["a"] <= n and c["g"].is_normal(n) and _proper_central_split(c["g"], n, f1, f2)),
}

CANDIDATES = {
    "critical_pair": lambda c: [(None,)] + [(n,) for n in c["g"].normals],
    "centralizer_product": lambda c: [(x,) for x in c["pc"]],
    "wilson_i": lambda c: [(n,) for n in c["g"].normals],
    "wilson_ii": lambda c: [(n, u) for n in c["g"].normals for u in c["g"].subgroups],
    "commuting_conjugates": lambda c: [(u,) for u in c["g"].subgroups],
    "normalized_dichotomy": lambda c: [(h, m) for h in c["g"].subgroups for m in c["maxn"]],
    "no_central_factor": lambda c: [
        (n, f1, f2) for n in c["g"].normals for f1 in c["g"].subgroups for f2 in c["g"].subgroups
    ],
}


def brute_verdict(name: str, ctx: dict) -> str:
    fails = FAILS[name]
    return FAIL if any(fails(ctx, *args) for args in CANDIDATES[name](ctx)) else PASS


def sweep_expected(O, stages: list[dict]) -> dict:
    """Brute-force verdicts of every check family on the marked 2-stage tower.

    Stage 0 runs every family.  Stage 1 is the deepest: the pair checks and
    the strengthened checks need a deeper stage, so they are not applicable.
    """
    g0 = RawGroup(O, stages[0]["degree"], stages[0]["generators"])
    g1 = RawGroup(O, stages[1]["degree"], stages[1]["generators"])
    a0, b0 = g0.closure(stages[0]["a"]), g0.closure(stages[0]["b0"])
    a1 = g1.closure(stages[1]["a"])
    phi = hom_table(O, g1, g0.degree, stages[1]["images"])
    ident0 = O.identity(g0.degree)
    k1 = frozenset(x for x, fx in phi.items() if fx == ident0)
    p = frozenset(phi[x] for x in a1)
    pc = g0.closure(sorted(p | g0.centralizer(p)))
    ctx0 = {"g": g0, "k": b0, "a": a0, "b": b0, "pc": pc,
            "maxn": O.maximal_normals(g0.degree, a0)}
    ctx1 = {"g": g1, "k": k1, "a": a1}

    s0 = {name: brute_verdict(name, ctx0) for name in FAILS}
    deep = ("wilson_i", "wilson_ii", "commuting_conjugates")
    s1 = {name: brute_verdict(name, ctx1) if name in deep else NA for name in FAILS}

    counts = []
    for g in (g0, g1):
        c = factor_counts(O, g)
        counts.append(c.get("C2", 0) + c.get("C3", 0))
    return {"statuses": [s0, s1], "counts": counts, "context": [ctx0, ctx1]}


def witness_holds(name: str, w: dict, ctx: dict) -> bool:
    """Whether the reported witness w satisfies the failure condition of `name`."""
    g: RawGroup = ctx["g"]

    def sub(blob):
        s = g.closure(blob["generators"])
        require(len(s) == blob["order"], f"{name} witness order {blob['order']} != {len(s)}")
        return s

    if name not in FAILS:
        raise OutputMismatch(f"unknown check {name!r}")
    args = {
        "critical_pair": lambda: (sub(w["normal_subgroup"]) if "normal_subgroup" in w else None,),
        "centralizer_product": lambda: (tuple(w["element"]),),
        "wilson_i": lambda: (sub(w["normal_subgroup"]),),
        "wilson_ii": lambda: (sub(w["normal_subgroup"]), sub(w["subgroup"])),
        "commuting_conjugates": lambda: (sub(w["subgroup"]),),
        "normalized_dichotomy": lambda: (sub(w["subgroup"]), sub(w["maximal_normal"])),
        "no_central_factor": lambda: (sub(w["normal_subgroup"]), *(sub(f) for f in w["factors"])),
    }[name]()
    return FAILS[name](ctx, *args)


# -- per-workload references and checkers --------------------------------------


_CHECK_LINE = re.compile(r"^  ([a-z_]+): ([a-z-]+)")


def parse_check_text(text: str) -> dict:
    """Stage headers, check statuses and trailer lines of `jicert check` text."""
    lines = text.splitlines()
    out = {"digest": None, "stages": [], "statuses": [], "completeness": None}
    for line in lines:
        m = re.match(r"^input: (sha256:[0-9a-f]{64}) \((\d+) stages\)$", line)
        if m:
            out["digest"] = m.group(1)
            continue
        m = re.match(r"^stage (\d+): order (\d+), degree (\d+)$", line)
        if m:
            out["stages"].append((int(m.group(2)), int(m.group(3))))
            out["statuses"].append({})
            continue
        m = _CHECK_LINE.match(line)
        if m and out["statuses"]:
            out["statuses"][-1][m.group(1)] = m.group(2)
            continue
        if line.startswith("completeness: "):
            out["completeness"] = line.split(": ", 1)[1]
    return out


def exit_code_for(statuses: list[dict]) -> int:
    flat = {s for st in statuses for s in st.values()}
    if FAIL in flat:
        return 1
    if BOUNDED in flat:
        return 3
    return 0


def check_text_report(text: str, ref: dict) -> None:
    got = parse_check_text(text)
    require(got["digest"] == ref["digest"], "input digest differs from sha256 of the input")
    want = [(st["order"], st["degree"]) for st in ref["stages"]]
    require(got["stages"] == want, f"stage orders/degrees {got['stages']} != {want}")
    require(got["statuses"] == ref["statuses"], f"statuses {got['statuses']} != {ref['statuses']}")
    require(got["completeness"] == "complete", "report is not complete")


def validate_reference(data: bytes, stages: list[dict]) -> dict:
    """Unmarked tower, no flags: only the pair checks run, and with no marks
    (or no deeper stage) every one of them is not applicable."""
    statuses = [{name: NA for name in PAIR_CHECKS} for _ in stages]
    return {"digest": digest(data), "stages": stages, "statuses": statuses,
            "exit": exit_code_for(statuses)}


def check_validate(ref: dict, code: int, stdout: str, files: dict) -> None:
    require(code == ref["exit"], f"exit code {code}, expected {ref['exit']}")
    check_text_report(stdout, ref)


def sweep_reference(O, data: bytes, stages: list[dict]) -> dict:
    exp = sweep_expected(O, stages)
    return {"digest": digest(data), "stages": stages, "statuses": exp["statuses"],
            "counts": exp["counts"], "context": exp["context"],
            "exit": exit_code_for(exp["statuses"]), "report": None}


def check_sweep(ref: dict, code: int, stdout: str, files: dict) -> None:
    require(code == ref["exit"], f"exit code {code}, expected {ref['exit']}")
    check_text_report(stdout, ref)
    raw = files["report.json"]
    if ref["report"] is not None:
        # every op of a run reads the same input, so the reports are identical
        require(raw == ref["report"], "JSON report differs from the first op's")
        return
    rep = json.loads(raw)
    inp = rep["input"]
    require(inp["digest"] == ref["digest"], "JSON digest differs from sha256 of the input")
    require(inp["orders"] == [st["order"] for st in ref["stages"]], "JSON orders")
    require(inp["degrees"] == [st["degree"] for st in ref["stages"]], "JSON degrees")
    for i, st in enumerate(rep["stages"]):
        got = {name: c["status"] for name, c in st["checks"].items()}
        require(got == ref["statuses"][i], f"stage {i} JSON statuses {got}")
        for name, c in st["checks"].items():
            if c["status"] == FAIL:
                require(witness_holds(name, c["witness"], ref["context"][i]),
                        f"stage {i} {name} witness does not show the failure")
    counts = rep["class_factor_counts"]
    require(counts["counts"] == ref["counts"], f"class counts {counts['counts']} != {ref['counts']}")
    inc = all(a < b for a, b in zip(ref["counts"], ref["counts"][1:]))
    require(counts["strictly_increasing"] == inc, "strictly_increasing flag")
    require(rep["completeness"] == "complete", "JSON report is not complete")
    ref["report"] = raw


def lattice_reference(O, data: bytes, stages: list[dict], stage: int) -> dict:
    st = stages[stage]
    g = RawGroup(O, st["degree"], st["generators"])
    require(len(g.elements) == st["order"], "closure order differs from the wreath formula")
    factors = factor_counts(O, g)
    return {
        "stage": stage,
        "order": st["order"],
        "degree": st["degree"],
        "normal": [len(n) for n in g.normals],
        "minimal": sorted(len(n) for n in O.minimal_normals(g.degree, g.elements)),
        "maximal": sorted(len(n) for n in O.maximal_normals(g.degree, g.elements)),
        "pairs": sorted(critical_pair_orders(g)),
        "factors": factors,
        "factor_orders": {name: factor_order(O, name) for name in factors},
        "exit": 0,
        "output": None,
    }


def _orders(line: str) -> list[int]:
    return [int(x) for x in line.split(", ")] if line else []


def parse_lattice_text(text: str) -> dict:
    fields = {}
    for line in text.splitlines():
        m = re.match(r"^stage (\d+): order (\d+), degree (\d+)$", line)
        if m:
            fields["header"] = tuple(int(v) for v in m.groups())
            continue
        key, sep, value = line.partition(": ")
        if sep:
            fields[key] = value
    pairs = re.findall(r"\((\d+), (\d+)\)", fields.get("critical pairs (top, bottom)", ""))
    factors = {}
    for part in fields.get("composition factors", "").split(", "):
        name, sep, k = part.partition(" x ")
        if sep:
            factors[name] = int(k)
    return {
        "header": fields.get("header"),
        "normal": _orders(fields.get("normal subgroup orders", "")),
        "minimal": _orders(fields.get("minimal normal orders", "")),
        "maximal": _orders(fields.get("maximal normal orders", "")),
        "pairs": sorted((int(a), int(b)) for a, b in pairs),
        "chief": _orders(fields.get("chief series orders", "")),
        "factors": factors,
    }


def check_lattice(ref: dict, code: int, stdout: str, files: dict) -> None:
    require(code == ref["exit"], f"exit code {code}, expected {ref['exit']}")
    if stdout == ref["output"]:
        return
    got = parse_lattice_text(stdout)
    require(got["header"] == (ref["stage"], ref["order"], ref["degree"]), f"header {got['header']}")
    require(got["normal"] == ref["normal"], f"normal orders {got['normal']}")
    require(sorted(got["minimal"]) == ref["minimal"], f"minimal normal orders {got['minimal']}")
    require(sorted(got["maximal"]) == ref["maximal"], f"maximal normal orders {got['maximal']}")
    require(got["pairs"] == ref["pairs"], f"critical pairs {got['pairs']}")
    require(got["factors"] == ref["factors"], f"composition factors {got['factors']}")
    prod = 1
    for name, k in got["factors"].items():
        prod *= ref["factor_orders"][name] ** k
    require(prod == ref["order"], "composition factor orders do not multiply to |G|")
    chief = got["chief"]
    require(bool(chief) and chief[0] == 1 and chief[-1] == ref["order"], f"chief series {chief}")
    require(all(lo < hi and hi % lo == 0 for lo, hi in zip(chief, chief[1:])),
            "chief series orders are not a divisor chain")
    require(all(c in ref["normal"] for c in chief), "chief series order of no normal subgroup")
    ref["output"] = stdout
