"""The stage searches and revalidate_witness agree, checked exhaustively.

On a few small stages, every candidate witness of every check family is
built from the brute-force subgroup lists of tests/oracles.py, serialized as
a blob and revalidated.  Revalidation must accept exactly the candidates for
which the family's failure condition, evaluated here on raw tuples, holds;
it must accept some candidate exactly when the check reports fail; and it
must accept the witness the check reports.
"""

import json
from pathlib import Path

import oracles
from jicert import (
    CertifyOptions,
    GroupHom,
    Permutation,
    build_wreath_tower,
    certify_system,
    cyclic,
    derive_critical_marks,
    dihedral,
    direct_product,
    parse_system,
    revalidate_witness,
    subgroup_generated,
    symmetric,
)
from jicert.certifier import (
    CHECK_CENTRALIZER_PRODUCT,
    CHECK_COMMUTING_CONJUGATES,
    CHECK_CRITICAL_PAIR,
    CHECK_DICHOTOMY,
    CHECK_NO_CENTRAL_FACTOR,
    CHECK_WILSON_I,
    CHECK_WILSON_II,
    FAIL,
    check_commuting_conjugates_stage,
    check_critical_stage,
    check_strengthened_stage,
    check_wilson_stage,
)

DATA = Path(__file__).parent / "data"


class RawStage:
    """A stage group with its subgroups as frozensets of image tuples."""

    def __init__(self, g):
        self.g = g
        self.degree = g.degree
        self.elements = frozenset(x.images for x in g.elements())
        self.normals = oracles.normal_subgroups(self.degree, self.elements)
        self.subgroups = oracles.all_subgroups(self.degree, self.elements)
        self._normal_set = set(self.normals)
        self._closures = {}
        self._commuting = {}

    def group(self, s):
        perms = [Permutation(x) for x in oracles.greedy_gens(self.degree, s)]
        return subgroup_generated(self.g, perms)

    def blob(self, s):
        gens = oracles.greedy_gens(self.degree, s)
        return {"order": len(s), "generators": [list(x) for x in gens]}

    def join(self, *parts):
        key = frozenset(parts)
        if key not in self._closures:
            self._closures[key] = oracles.join_sets(self.degree, parts)
        return self._closures[key]

    def is_normal(self, s):
        return s in self._normal_set

    def centralizer_product(self, p):
        c = frozenset(
            t for t in self.elements
            if all(oracles.mul(t, x) == oracles.mul(x, t) for x in p)
        )
        return self.join(p, c)

    def commuting_closure(self, u):
        """The normal closure of u if u is non-normal with commuting conjugates."""
        if u not in self._commuting:
            closure = None
            if oracles.has_commuting_conjugates(self.elements, u):
                closure = self.join(*oracles.conjugate_subgroups(self.elements, u))
            self._commuting[u] = closure
        return self._commuting[u]


def commute(a, b):
    return all(oracles.mul(x, y) == oracles.mul(y, x) for x in a for y in b)


def assert_agree(name, result, stage, candidates, **context):
    """candidates: (witness, whether the failure condition holds) pairs."""
    accepted = False
    for witness, holds in candidates:
        got = revalidate_witness(name, witness, g=stage.g, **context)
        assert got == holds, (name, witness, sorted(context))
        accepted = accepted or got
    assert (result.status == FAIL) == accepted, (name, result)
    if result.status == FAIL:
        assert revalidate_witness(name, result.witness, g=stage.g, **context), name


def check_pair_families(stage, marks):
    # the identity map, so the deeper mark is its own image P
    rho = GroupHom(stage.g, stage.g, list(stage.g.generators))
    for a in stage.normals:
        for b in marks:
            ga, gb = stage.group(a), stage.group(b)
            res = check_critical_stage(rho, ga, ga, gb).checks[CHECK_CRITICAL_PAIR]
            cands = [
                ({"top": stage.blob(t), "bottom": stage.blob(u)},
                 (t, u) == (a, b) and not b < a)
                for t in stage.normals
                for u in stage.normals
            ]
            cands += [
                ({"normal_subgroup": stage.blob(n)},
                 n < a and not n <= b and stage.is_normal(n))
                for n in stage.subgroups
            ]
            assert_agree(CHECK_CRITICAL_PAIR, res, stage, cands, a=ga, b=gb)
    for b in marks:
        for p in stage.normals:
            gb, gp = stage.group(b), stage.group(p)
            res = check_critical_stage(rho, gp, gb, gb).checks[CHECK_CENTRALIZER_PRODUCT]
            pc = stage.centralizer_product(p)
            cands = [
                ({"element": list(x)}, x in pc and x not in b) for x in sorted(stage.elements)
            ]
            assert_agree(CHECK_CENTRALIZER_PRODUCT, res, stage, cands, b=gb, p=gp)


def check_kernel_families(stage):
    for k in stage.normals:
        gk = stage.group(k)
        sv = check_wilson_stage(stage.g, gk)
        cands = [
            ({"normal_subgroup": stage.blob(n)},
             not n <= k and not k <= n and stage.is_normal(n))
            for n in stage.subgroups
        ]
        assert_agree(CHECK_WILSON_I, sv.checks[CHECK_WILSON_I], stage, cands, k=gk)
        cands = [
            ({"normal_subgroup": stage.blob(n), "subgroup": stage.blob(u)},
             not n <= k and stage.commuting_closure(u) == n and u <= n and stage.is_normal(n))
            for n in stage.subgroups
            for u in stage.subgroups
        ]
        assert_agree(CHECK_WILSON_II, sv.checks[CHECK_WILSON_II], stage, cands, k=gk)


def check_mark_families(stage, marks):
    for a in stage.normals:
        ga = stage.group(a)
        res = check_commuting_conjugates_stage(stage.g, ga).checks[CHECK_COMMUTING_CONJUGATES]
        cands = []
        for u in stage.subgroups:
            closure = stage.commuting_closure(u)
            cands.append(({"subgroup": stage.blob(u)}, closure is not None and a <= closure))
        assert_agree(CHECK_COMMUTING_CONJUGATES, res, stage, cands, a=ga)

        maxn = oracles.maximal_normals(stage.degree, a) if len(a) > 1 else []
        inside_a = [m for m in stage.subgroups if m <= a]
        for p in marks:
            gp = stage.group(p)
            sv = check_strengthened_stage(stage.g, ga, gp, gp)
            pc = stage.centralizer_product(p)
            cands = [
                ({"subgroup": stage.blob(h), "maximal_normal": stage.blob(m)},
                 m in maxn and not h <= m and not pc <= h
                 and all(oracles.conj(x, y) in h for x in h for y in a))
                for h in stage.subgroups
                for m in inside_a
            ]
            assert_agree(CHECK_DICHOTOMY, sv.checks[CHECK_DICHOTOMY], stage, cands, a=ga, p=gp)

        if a not in marks:
            continue
        res = check_strengthened_stage(stage.g, ga, ga, ga).checks[CHECK_NO_CENTRAL_FACTOR]
        subs = stage.subgroups
        cands = [
            ({"normal_subgroup": stage.blob(n), "factors": [stage.blob(f1), stage.blob(f2)]},
             a <= n and stage.is_normal(n) and len(f1) < len(n) and len(f2) < len(n)
             and commute(f1, f2) and stage.join(f1, f2) == n)
            for n in stage.normals
            for i, f1 in enumerate(subs)
            for f2 in subs[i:]
        ]
        assert_agree(CHECK_NO_CENTRAL_FACTOR, res, stage, cands, a=ga)


def stages():
    golden = parse_system((DATA / "s4_s3_prefix.json").read_text())
    out = []
    for g, mark_count in (
        (symmetric(4), 3),  # trivial, V4, A4
        (direct_product(cyclic(2), cyclic(2)), 4),
        (dihedral(4), 3),  # order 8: trivial, the center, a Klein four-group
        (golden.groups[0], 2),  # trivial, A3
    ):
        stage = RawStage(g)
        out.append((stage, stage.normals[:mark_count]))
    return out


def test_search_and_revalidation_agree_on_every_candidate():
    for stage, marks in stages():
        check_pair_families(stage, marks)
        check_kernel_families(stage)
        check_mark_families(stage, marks)


def test_every_certify_failure_revalidates():
    options = CertifyOptions(
        wilson=True, commuting_conjugates=True, strengthened=True, subgroup_bound=100
    )
    prefixes = [
        parse_system((DATA / "s4_s3_prefix.json").read_text()),
        parse_system((DATA / "cyclic2_tower.json").read_text()),
        derive_critical_marks(build_wreath_tower([("S3", 3)], 2)),
    ]
    failures = 0
    for prefix in prefixes:
        verdict = certify_system(prefix, options)
        last = len(prefix.groups) - 1
        for n, sv in enumerate(verdict.stages):
            kernel = prefix.b0 if n == 0 else prefix.kernel(n)
            context = dict(g=prefix.groups[n], k=kernel, a=prefix.a_marks[n], b=kernel)
            if n < last and prefix.a_marks[n + 1] is not None:
                context["p"] = prefix.homs[n].image(prefix.a_marks[n + 1])
            for name, res in sv.checks.items():
                if res.status == FAIL:
                    witness = json.loads(json.dumps(res.witness))  # as a report holds it
                    assert revalidate_witness(name, witness, **context), (n, name)
                    failures += 1
    assert failures == 8  # 7 in the cyclic 2-tower, wilson_i in the derived tower
