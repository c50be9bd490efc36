"""Stage checks and whole-prefix certification.

Each check inspects one stage (or one connecting map) of a system prefix
and returns a verdict with machine-checkable witnesses for failures.  The
verdict statuses are:

    pass            the condition holds at this stage
    fail            it does not; a witness is attached
    not-applicable  the stage lacks the marks or structure the check needs
    bounded         a subgroup sweep was skipped because the group exceeds
                    the subgroup bound, or the dense bound, past which no
                    element table is built, so the result is inconclusive

A bounded check is never reported as a pass.  certify_system never trusts
kernels or marks from the input file beyond what parse-time validation
established.  Each check family's failure condition is written once, as a
predicate over the stage context and one candidate witness: the stage sweeps
report the first candidate for which it holds, and revalidate_witness parses
a witness and calls the same predicate, so the search and the independent
re-check agree by construction.
"""

from __future__ import annotations

from typing import Callable, Iterator, Mapping, NamedTuple, Optional, Sequence

from .classdata import SchurTable, SimpleClass, count_class_factors
from .errors import (
    DenseBoundExceededError,
    DerivationError,
    HomomorphismError,
    JicertError,
    KernelBugError,
    NotNormalError,
)
from .group import (
    PermGroup,
    centralizer,
    centralizer_of_section,
    commutator_subgroup,
    e_p_subgroup,
    is_nilpotent,
    is_prime,
    join,
    normal_closure,
    subgroup_generated,
)
from .hom import GroupHom
from .lattice import (
    _chief_factors,
    central_decomposition,
    critical_pair_fails,
    critical_pairs,
    invariant_subgroups,
    is_critical_pair,
    maximal_normal_subgroups,
    minimal_normal_subgroups,
    normal_subgroups,
)
from .perm import Permutation
from .prefixes import SystemPrefix

PASS = "pass"
FAIL = "fail"
NOT_APPLICABLE = "not-applicable"
BOUNDED = "bounded"

DEFAULT_SUBGROUP_BOUND = 2000

CHECK_CRITICAL_PAIR = "critical_pair"
CHECK_CENTRALIZER_PRODUCT = "centralizer_product"
CHECK_WILSON_I = "wilson_i"
CHECK_WILSON_II = "wilson_ii"
CHECK_COMMUTING_CONJUGATES = "commuting_conjugates"
CHECK_DICHOTOMY = "normalized_dichotomy"
CHECK_NO_CENTRAL_FACTOR = "no_central_factor"

CHECK_ORDER = (
    CHECK_CRITICAL_PAIR,
    CHECK_CENTRALIZER_PRODUCT,
    CHECK_WILSON_I,
    CHECK_WILSON_II,
    CHECK_COMMUTING_CONJUGATES,
    CHECK_DICHOTOMY,
    CHECK_NO_CENTRAL_FACTOR,
)


class CheckResult(NamedTuple):
    status: str
    witness: Optional[dict] = None
    note: Optional[str] = None


class StageVerdict:
    """One stage's check results by check name: mutable, with a checks dict
    of its own, equal by value and so unhashable."""

    __slots__ = ("stage_index", "order", "degree", "checks")

    def __init__(self, stage_index: int, order: int, degree: int, checks=None):
        self.stage_index, self.order, self.degree = stage_index, order, degree
        self.checks: dict[str, CheckResult] = {} if checks is None else checks

    def __eq__(self, other: object) -> bool:
        if type(other) is not StageVerdict:
            return NotImplemented
        return all(getattr(self, f) == getattr(other, f) for f in self.__slots__)

    def __repr__(self) -> str:
        fields = ", ".join(f"{f}={getattr(self, f)!r}" for f in self.__slots__)
        return f"StageVerdict({fields})"


class ClassCountReport(NamedTuple):
    member_names: tuple[str, ...]
    counts: tuple[int, ...]
    strictly_increasing: bool


class SystemVerdict(NamedTuple):
    stages: tuple[StageVerdict, ...]
    summary: str
    limit_claim: str
    class_counts: Optional[ClassCountReport] = None


class CertifyOptions(NamedTuple):
    wilson: bool = False
    commuting_conjugates: bool = False
    strengthened: bool = False
    subgroup_bound: int = DEFAULT_SUBGROUP_BOUND
    count_class: Optional[SimpleClass] = None


# -- witness plumbing --------------------------------------------------------


def _count(k: int, noun: str) -> str:
    return f"{k} {noun}" if k == 1 else f"{k} {noun}s"


def _sub_w(sub: PermGroup) -> dict:
    return {
        "order": sub.order,
        "generators": [list(p.images) for p in sub.generators],
    }


def _witness_subgroup(g: PermGroup, blob: object) -> Optional[PermGroup]:
    if not isinstance(blob, dict):
        return None
    rows = blob.get("generators")
    if not isinstance(rows, list) or not all(isinstance(row, list) for row in rows):
        return None
    try:
        sub = subgroup_generated(g, [Permutation(row) for row in rows])
    except KernelBugError:
        raise
    except (JicertError, ValueError):
        return None
    if sub.order != blob.get("order", sub.order):
        return None
    return sub


def _require_normal(g: PermGroup, sub: PermGroup, what: str) -> None:
    if not sub.is_subgroup_of(g) or not sub.is_normal_in(g):
        raise NotNormalError(f"{what} is not a normal subgroup of the stage group")


# -- conjugate families ------------------------------------------------------


def _conjugates(g: PermGroup, u: PermGroup) -> Iterator[tuple[frozenset[int], tuple[int, ...]]]:
    """The distinct conjugates of u under g other than u, one at a time, each
    as its position set in g's element index and the positions of its
    generators.

    The orbit of u's position set under the conjugation rows of g's
    generators, handed out as it is found; each conjugate's generators are
    the images of u's generators.
    """
    index = g.element_index()
    rows = [index.conj_row(t) for t in index.gens]
    pos = index.pos
    start = frozenset(pos[x] for x in u.elements())
    seen = {start}
    frontier = [(start, tuple(pos[x] for x in u.generators))]
    while frontier:
        v, gens = frontier.pop()
        for row in rows:
            w = frozenset([row[i] for i in v])
            if w not in seen:
                seen.add(w)
                conjugate = (w, tuple(row[i] for i in gens))
                frontier.append(conjugate)
                yield conjugate


def _commute(xs: Sequence[Permutation], ys: Sequence[Permutation]) -> bool:
    """Whether every x in xs commutes with every y in ys."""
    return all(x * y == y * x for x in xs for y in ys)


def _commuting_family(g: PermGroup, u: PermGroup) -> Optional[PermGroup]:
    """The normal closure of u in g when u is non-normal and its distinct
    conjugates commute elementwise; None otherwise.

    Distinct conjugates u^x and u^y commute exactly when u and u^(y x^-1)
    do, so u is tested against each other conjugate, and the walk stops at
    the first one that does not commute with it. Decided once per stage and
    subgroup: the answer is kept on g's element index under u's element set,
    so the sweeps of wilson_ii (one per normal subgroup), commuting_conjugates
    and revalidate_witness share it, and each qualifying subgroup is closed
    once.
    """
    index = g.element_index()
    key = u.elements()
    if key not in index.commuting_closures:
        elems = index.elems
        verdicts = (
            _commute(u.generators, [elems[i] for i in gens]) for _, gens in _conjugates(g, u)
        )
        # non-normal (a first other conjugate) and commuting with every other one
        qualifies = next(verdicts, False) and all(verdicts)
        index.commuting_closures[key] = normal_closure(g, u) if qualifies else None
    return index.commuting_closures[key]


def _centralizer_product(g: PermGroup, p: PermGroup) -> PermGroup:
    """P C(P): the subgroup of g generated by p and its centralizer."""
    return join(g, p, centralizer(g, p))


# -- failure predicates (critical_pair's is lattice.critical_pair_fails) ------
#
# Conjuncts run cheapest first.


def _centralizer_product_fails(pc: PermGroup, b: PermGroup, x: Permutation) -> bool:
    """x lies in pc = P C(P) but not in the bottom mark b."""
    return not b.contains(x) and pc.contains(x)


def _wilson_i_fails(g: PermGroup, k: PermGroup, n: PermGroup) -> bool:
    """n is a normal subgroup of g that neither lies inside nor contains k."""
    return not n.is_subgroup_of(k) and not k.is_subgroup_of(n) and n.is_normal_in(g)


def _wilson_ii_fails(g: PermGroup, k: PermGroup, n: PermGroup, u: PermGroup) -> bool:
    """n is not inside k and is the normal closure of u, a non-normal subgroup
    with commuting conjugates."""
    if n.is_subgroup_of(k):
        return False
    closure = _commuting_family(g, u)
    return closure is not None and closure == n


def _commuting_conjugates_fails(g: PermGroup, a: PermGroup, u: PermGroup) -> bool:
    """u is non-normal with commuting conjugates and its normal closure contains a."""
    closure = _commuting_family(g, u)
    return closure is not None and a.is_subgroup_of(closure)


def _dichotomy_fails(a: PermGroup, pc: PermGroup, h: PermGroup, m: PermGroup) -> bool:
    """h is normalized by a, does not contain pc = P C(P), and does not lie
    inside m, a maximal normal subgroup of a (the trivial a has none)."""
    return (
        not a.is_trivial()
        and not h.is_subgroup_of(m)
        and not pc.is_subgroup_of(h)
        and all(h.contains(x ** y) for y in a.generators for x in h.generators)
        and m in maximal_normal_subgroups(a)
    )


def _no_central_factor_fails(
    g: PermGroup, a: PermGroup, n: PermGroup, f1: PermGroup, f2: PermGroup
) -> bool:
    """n is a normal subgroup of g containing a, generated by the proper
    subgroups f1 and f2, which commute elementwise."""
    return (
        f1.order < n.order
        and f2.order < n.order
        and a.is_subgroup_of(n)
        and _commute(f1.generators, f2.generators)
        and n.is_normal_in(g)
        and join(g, f1, f2) == n
    )


# -- per-stage checks --------------------------------------------------------


def check_wilson_stage(
    g: PermGroup,
    k: PermGroup,
    *,
    stage_index: int = 0,
    subgroup_bound: int = DEFAULT_SUBGROUP_BOUND,
) -> StageVerdict:
    """Kernel-containment and commuting-generation conditions for (g, k).

    (i)  every normal subgroup not inside k contains k;
    (ii) no such normal subgroup is generated, as a normal subgroup, by a
         non-normal subgroup whose distinct conjugates commute elementwise.

    k = g is allowed and makes both conditions vacuous.
    """
    _require_normal(g, k, "the kernel")
    sv = StageVerdict(stage_index=stage_index, order=g.order, degree=g.degree)

    normals = normal_subgroups(g)
    above = [n for n in normals if not n.is_subgroup_of(k)]
    if not above:
        note = "vacuous: every normal subgroup lies inside the kernel"
        sv.checks[CHECK_WILSON_I] = CheckResult(PASS, note=note)
        sv.checks[CHECK_WILSON_II] = CheckResult(PASS, note=note)
        return sv

    bad = next((n for n in normals if _wilson_i_fails(g, k, n)), None)
    if bad is None:
        sv.checks[CHECK_WILSON_I] = CheckResult(
            PASS,
            note=f"{_count(len(above), 'normal subgroup')} outside the kernel; "
            "each contains it",
        )
    else:
        sv.checks[CHECK_WILSON_I] = CheckResult(
            FAIL,
            witness={"normal_subgroup": _sub_w(bad)},
            note="a normal subgroup neither contains nor lies inside the kernel",
        )

    skipped = [n.order for n in above if n.order > subgroup_bound]
    # a witness u is normal in its normal closure n, so n's normal lattice holds it
    swept = (
        (n, u) for n in above if n.order <= subgroup_bound for u in normal_subgroups(g, n)
    )
    hit = next(((n, u) for n, u in swept if _wilson_ii_fails(g, k, n, u)), None)
    if hit:
        lsub, u = hit
        sv.checks[CHECK_WILSON_II] = CheckResult(
            FAIL,
            witness={"normal_subgroup": _sub_w(lsub), "subgroup": _sub_w(u)},
            note="a commuting-conjugates subgroup normally generates this normal subgroup",
        )
    elif skipped:
        sv.checks[CHECK_WILSON_II] = CheckResult(
            BOUNDED,
            note=(
                "subgroup sweep skipped for normal subgroups of order "
                f"{sorted(skipped)} above the bound {subgroup_bound}"
            ),
        )
    else:
        sv.checks[CHECK_WILSON_II] = CheckResult(
            PASS,
            note="no qualifying subgroup among "
            f"{_count(len(above), 'normal subgroup')}",
        )
    return sv


def check_critical_stage(
    rho: GroupHom,
    a_next: PermGroup,
    a_n: PermGroup,
    b_n: PermGroup,
    *,
    stage_index: int = 0,
) -> StageVerdict:
    """Pair conditions at one stage of a marked prefix.

    critical_pair: (a_n, b_n) is a critical pair of the target group.
    centralizer_product: with P the image of the deeper mark a_next,
    P C(P) lies inside b_n.
    """
    g = rho.target
    if not rho.is_surjective():
        raise HomomorphismError("connecting map is not surjective")
    if not a_next.is_subgroup_of(rho.source) or not a_next.is_normal_in(rho.source):
        raise NotNormalError("the deeper mark is not normal in the source stage")
    _require_normal(g, a_n, "the top mark")
    _require_normal(g, b_n, "the bottom mark")

    sv = StageVerdict(stage_index=stage_index, order=g.order, degree=g.degree)

    if critical_pair_fails(g, a_n, b_n, None):
        sv.checks[CHECK_CRITICAL_PAIR] = CheckResult(
            FAIL,
            witness={"top": _sub_w(a_n), "bottom": _sub_w(b_n)},
            note="degenerate pair: top and bottom marks coincide"
            if a_n == b_n
            else "bottom mark is not contained in the top mark",
        )
    else:
        ok, n = is_critical_pair(g, a_n, b_n)
        if ok:
            sv.checks[CHECK_CRITICAL_PAIR] = CheckResult(
                PASS, note=f"pair orders ({a_n.order}, {b_n.order})"
            )
        else:
            sv.checks[CHECK_CRITICAL_PAIR] = CheckResult(
                FAIL,
                witness={"normal_subgroup": _sub_w(n)},
                note="a proper normal subgroup of the top mark escapes the bottom mark",
            )

    p = rho.image(a_next)
    pc = _centralizer_product(g, p)
    x = next((x for x in pc.sorted_elements() if _centralizer_product_fails(pc, b_n, x)), None)
    if x is None:
        sv.checks[CHECK_CENTRALIZER_PRODUCT] = CheckResult(
            PASS, note=f"image order {p.order}, product order {pc.order}"
        )
    else:
        sv.checks[CHECK_CENTRALIZER_PRODUCT] = CheckResult(
            FAIL,
            witness={"element": list(x.images), "image_order": p.order},
            note="the image times its centralizer escapes the bottom mark",
        )
    return sv


def check_commuting_conjugates_stage(
    g: PermGroup,
    a: PermGroup,
    *,
    stage_index: int = 0,
    subgroup_bound: int = DEFAULT_SUBGROUP_BOUND,
) -> StageVerdict:
    """No non-normal subgroup with elementwise-commuting distinct conjugates
    may normally generate a subgroup containing the mark a."""
    _require_normal(g, a, "the stage mark")
    sv = StageVerdict(stage_index=stage_index, order=g.order, degree=g.degree)

    if g.order > subgroup_bound:
        sv.checks[CHECK_COMMUTING_CONJUGATES] = CheckResult(
            BOUNDED,
            note=f"group order {g.order} exceeds the subgroup bound {subgroup_bound}",
        )
        return sv

    # a witness u is normal in its normal closure, which contains a; an
    # element set in several lattices keeps its first generators
    found: dict[frozenset[Permutation], PermGroup] = {}
    for n in normal_subgroups(g):
        if a.is_subgroup_of(n):
            for u in normal_subgroups(g, n):
                found.setdefault(u.elements(), u)
    swept = sorted(found.values(), key=lambda u: (u.order, u.sorted_elements()))
    u = next((u for u in swept if _commuting_conjugates_fails(g, a, u)), None)
    if u is None:
        sv.checks[CHECK_COMMUTING_CONJUGATES] = CheckResult(
            PASS, note="no qualifying subgroup"
        )
    else:
        sv.checks[CHECK_COMMUTING_CONJUGATES] = CheckResult(
            FAIL,
            witness={"subgroup": _sub_w(u)},
            note="its normal closure contains the stage mark",
        )
    return sv


def check_strengthened_stage(
    g: PermGroup,
    a: PermGroup,
    b: PermGroup,
    p: PermGroup,
    *,
    stage_index: int = 0,
    subgroup_bound: int = DEFAULT_SUBGROUP_BOUND,
) -> StageVerdict:
    """Dichotomy and indecomposability conditions at one stage.

    normalized_dichotomy: every subgroup normalized by a either contains
    P C(P) or lies inside every maximal normal subgroup of a (as a group
    in its own right).
    no_central_factor: every normal subgroup containing a is centrally
    indecomposable.
    """
    _require_normal(g, a, "the top mark")
    _require_normal(g, b, "the bottom mark")
    _require_normal(g, p, "the image mark")
    sv = StageVerdict(stage_index=stage_index, order=g.order, degree=g.degree)

    if a.is_trivial():
        sv.checks[CHECK_DICHOTOMY] = CheckResult(
            PASS, note="vacuous: the trivial mark has no maximal normal subgroups"
        )
    elif g.order > subgroup_bound:
        sv.checks[CHECK_DICHOTOMY] = CheckResult(
            BOUNDED,
            note=f"group order {g.order} exceeds the subgroup bound {subgroup_bound}",
        )
    else:
        pc = _centralizer_product(g, p)
        maxn = maximal_normal_subgroups(a)
        swept = ((h, m) for h in invariant_subgroups(g, a.generators) for m in maxn)
        hit = next(((h, m) for h, m in swept if _dichotomy_fails(a, pc, h, m)), None)
        if hit is None:
            sv.checks[CHECK_DICHOTOMY] = CheckResult(
                PASS, note="every normalized subgroup satisfies the dichotomy"
            )
        else:
            h, m = hit
            sv.checks[CHECK_DICHOTOMY] = CheckResult(
                FAIL,
                witness={"subgroup": _sub_w(h), "maximal_normal": _sub_w(m)},
                note=(
                    "a subgroup normalized by the mark misses the centralizer "
                    "product and escapes a maximal normal subgroup of the mark"
                ),
            )

    above = [n for n in normal_subgroups(g) if a.is_subgroup_of(n)]
    split = ((n, parts) for n in above if (parts := central_decomposition(n)) is not None)
    bad = next(((n, fs) for n, fs in split if _no_central_factor_fails(g, a, n, *fs)), None)
    if bad is None:
        sv.checks[CHECK_NO_CENTRAL_FACTOR] = CheckResult(
            PASS,
            note=f"{_count(len(above), 'normal subgroup')} above the mark; "
            "each is indecomposable",
        )
    else:
        n, parts = bad
        sv.checks[CHECK_NO_CENTRAL_FACTOR] = CheckResult(
            FAIL,
            witness={
                "normal_subgroup": _sub_w(n),
                "factors": [_sub_w(f) for f in parts],
            },
            note="a normal subgroup above the mark is a central product",
        )
    return sv


def check_centralize_or_contain(
    g: PermGroup, pair: tuple[PermGroup, PermGroup], k: PermGroup
) -> bool:
    """For a critical pair (a, b) and normal k: either k centralizes the
    section a/b, or k contains a and is not nilpotent."""
    a, b = pair
    if not is_critical_pair(g, a, b)[0]:
        raise ValueError("the pair is not critical")
    _require_normal(g, k, "the normal subgroup")
    if k.is_subgroup_of(centralizer_of_section(g, a, b)):
        return True
    return a.is_subgroup_of(k) and not is_nilpotent(k)


# -- E^p properness ----------------------------------------------------------


class EpVerdict(NamedTuple):
    status: str
    note: str
    ep_order: Optional[int] = None
    ep_index: Optional[int] = None


def check_ep_proper(
    g: PermGroup, p: int, table: Optional[SchurTable] = None
) -> EpVerdict:
    """Test the hypotheses under which E^p(g) = [g,g] g^p must be proper.

    Needs: some chief factor is elementary abelian of exponent p, all such
    factors are central, and no nonabelian composition factor has a
    multiplier of order divisible by p.  Status "table-incomplete" means a
    composition factor falls outside the loaded multiplier table.
    """
    if not is_prime(p):
        raise ValueError(f"{p} is not a prime")
    if table is None:
        table = SchurTable.load()
    if g.is_trivial():
        return EpVerdict(NOT_APPLICABLE, "the trivial group has no chief factors")

    layers = []
    factor_ids = []
    for lo, hi, tid, _mult in _chief_factors(g):
        factor_ids.append(tid)
        if tid.is_cyclic and tid.order == p:
            layers.append((lo, hi))

    if not layers:
        return EpVerdict(
            NOT_APPLICABLE, f"no chief factor is elementary abelian of exponent {p}"
        )
    for lo, hi in layers:
        if not commutator_subgroup(g, g, hi).is_subgroup_of(lo):
            return EpVerdict(
                NOT_APPLICABLE,
                f"a chief factor of order {hi.order // lo.order} is not central",
            )
    seen = set()
    for tid in factor_ids:
        if tid.is_cyclic or tid.name in seen:
            continue
        seen.add(tid.name)
        if tid.order > table.order_bound:
            return EpVerdict(
                "table-incomplete",
                f"composition factor {tid.name} of order {tid.order} is outside "
                f"the multiplier table (bound {table.order_bound})",
            )
        if table.multiplier_order(tid.name) % p == 0:
            return EpVerdict(
                NOT_APPLICABLE,
                f"composition factor {tid.name} has multiplier order divisible by {p}",
            )

    ep = e_p_subgroup(g, p)
    if ep.order < g.order:
        return EpVerdict(
            PASS,
            f"agreed proper: index {g.order // ep.order}",
            ep_order=ep.order,
            ep_index=g.order // ep.order,
        )
    return EpVerdict(
        FAIL,
        "the subgroup is not proper despite the hypotheses",
        ep_order=ep.order,
        ep_index=1,
    )


# -- mark derivation ---------------------------------------------------------


def derive_critical_marks(prefix: SystemPrefix) -> SystemPrefix:
    """Choose pair marks for an unmarked prefix, coarsest stage first.

    At each stage n >= 1 the mark is the full preimage of the first minimal
    normal subgroup m of stage n-1 whose centralizer does not swallow the
    previous kernel and with m C(m) inside that kernel (at n = 1 only the
    non-degeneracy half applies).  Stage 0 then gets a critical pair whose
    bottom contains m C(m) when one exists.  DerivationError carries the
    shallowest failing level.
    """
    if len(prefix.groups) < 2:
        raise ValueError("mark derivation needs at least two stages")

    marks: dict[int, PermGroup] = {}
    for n in range(1, len(prefix.groups)):
        g = prefix.groups[n - 1]
        k = prefix.kernel(n - 1)
        if g.is_trivial():
            raise DerivationError("the stage group is trivial", level=n)

        def selected(m: PermGroup) -> bool:
            c = centralizer(g, m)
            if k is None:
                return c.order < g.order
            return not k.is_subgroup_of(c) and _centralizer_product(g, m).is_subgroup_of(k)

        chosen = next((m for m in minimal_normal_subgroups(g) if selected(m)), None)
        if chosen is None:
            raise DerivationError(
                f"no minimal normal subgroup of stage {n - 1} meets the "
                "selection rule",
                level=n,
            )
        marks[n] = prefix.homs[n - 1].preimage(chosen)
        if n == 1:
            pc0 = _centralizer_product(g, chosen)

    pairs = critical_pairs(prefix.groups[0])
    if not pairs:
        raise DerivationError("the coarsest stage group has no critical pair", level=0)
    pick = next((pr for pr in pairs if pc0.is_subgroup_of(pr.bottom)), pairs[0])
    marks[0] = pick.top
    return prefix.with_marks(marks, b0=pick.bottom)


# -- whole-prefix certification ----------------------------------------------


def _merge_or_bound(
    target: StageVerdict,
    names: Sequence[str],
    check: Callable[..., StageVerdict],
    *args,
    **kwargs,
) -> None:
    """Merge check(*args, **kwargs), or mark names bounded when the stage is too big.

    A stage above the dense bound builds no element table, and the
    normal-subgroup and subgroup sweeps need one.
    """
    try:
        src = check(*args, **kwargs)
    except DenseBoundExceededError:
        note = (
            f"stage {target.stage_index} of order {target.order} is above "
            "--dense-bound and kept as a stabilizer chain"
        )
        for name in names:
            target.checks[name] = CheckResult(BOUNDED, note=note)
        return
    target.checks.update(src.checks)


def _mark_na(sv: StageVerdict, names: Sequence[str], note: str) -> None:
    for name in names:
        sv.checks[name] = CheckResult(NOT_APPLICABLE, note=note)


def _summarize(stages: Sequence[StageVerdict]) -> str:
    ran = 0
    parts = []
    for name in CHECK_ORDER:
        fails = [v.stage_index for v in stages if _status(v, name) == FAIL]
        bounded = [v.stage_index for v in stages if _status(v, name) == BOUNDED]
        ran += sum(1 for v in stages if _status(v, name) in (PASS, FAIL, BOUNDED))
        if fails:
            parts.append(f"{name} fails at stage {', '.join(map(str, fails))}")
        if bounded:
            parts.append(
                f"{name} inconclusive (bounded) at stage {', '.join(map(str, bounded))}"
            )
    if ran == 0:
        return "no checks were applicable"
    if not parts:
        return "all requested checks pass at every applicable stage"
    return "; ".join(parts)


def _status(sv: StageVerdict, name: str) -> Optional[str]:
    res = sv.checks.get(name)
    return res.status if res else None


def _family_certified(
    stages: Sequence[StageVerdict], names: Sequence[str], indices: Sequence[int]
) -> bool:
    """True when every named check ran and passed at every listed stage."""
    if not indices:
        return False
    for i in indices:
        for name in names:
            if _status(stages[i], name) != PASS:
                return False
    return True


def _limit_claim(stages: Sequence[StageVerdict], options: CertifyOptions) -> str:
    last = len(stages) - 1
    interior = list(range(last))
    everything = list(range(last + 1))

    if last == 0:
        return "the prefix has a single stage; no limit property is certified"

    sentences = []
    critical_ok = _family_certified(
        stages, (CHECK_CRITICAL_PAIR, CHECK_CENTRALIZER_PRODUCT), interior
    )
    if critical_ok:
        s = (
            "if the pair conditions continue to hold at all but finitely many "
            "stages of an inverse system extending this prefix, its limit is "
            "just infinite and not virtually pronilpotent"
        )
        if options.commuting_conjugates and _family_certified(
            stages, (CHECK_COMMUTING_CONJUGATES,), everything
        ):
            s += (
                "; if the commuting-conjugates condition also holds at "
                "infinitely many stages, the limit is hereditarily just infinite"
            )
        if options.strengthened and _family_certified(
            stages, (CHECK_DICHOTOMY, CHECK_NO_CENTRAL_FACTOR), interior
        ):
            s += (
                "; if the dichotomy and indecomposability conditions also hold "
                "at all but finitely many stages, the limit is hereditarily "
                "just infinite and not virtually pronilpotent"
            )
        sentences.append(s)
    if options.wilson and _family_certified(
        stages, (CHECK_WILSON_I, CHECK_WILSON_II), everything
    ):
        sentences.append(
            "if the kernel-containment and commuting-generation conditions hold "
            "at every stage of an extension, the limit is just infinite, and is "
            "then either virtually abelian or hereditarily just infinite"
        )
    if not sentences:
        return (
            "no limit property is certified: a requested check fails, is "
            "inconclusive, or lacks marks"
        )
    return "; and ".join(sentences)


def certify_system(
    prefix: SystemPrefix, options: Optional[CertifyOptions] = None
) -> SystemVerdict:
    """Run the requested checks at every stage and assemble the verdict.

    The pair checks always run where marks allow; the other families are
    opt-in.  Kernels come from the prefix (computed from the connecting maps
    on first use), never from the document.
    """
    options = options or CertifyOptions()
    if not prefix.groups:
        raise ValueError("empty system prefix")
    last = len(prefix.groups) - 1

    verdicts = [
        StageVerdict(stage_index=n, order=grp.order, degree=grp.degree)
        for n, grp in enumerate(prefix.groups)
    ]

    def kernel_at(n: int) -> Optional[PermGroup]:
        return prefix.b0 if n == 0 else prefix.kernel(n)

    pair_checks = (CHECK_CRITICAL_PAIR, CHECK_CENTRALIZER_PRODUCT)
    for n in range(last):
        a_next, a_n = prefix.a_marks[n + 1], prefix.a_marks[n]
        # only b0 can be missing; a kernel is computed once both a marks are there
        missing = [
            what
            for what, absent in (
                (f"a[{n + 1}]", a_next is None),
                (f"a[{n}]", a_n is None),
                ("b0", n == 0 and prefix.b0 is None),
            )
            if absent
        ]
        if missing:
            _mark_na(verdicts[n], pair_checks, f"missing marks: {', '.join(missing)}")
        else:
            _merge_or_bound(
                verdicts[n],
                pair_checks,
                check_critical_stage,
                prefix.homs[n],
                a_next,
                a_n,
                kernel_at(n),
                stage_index=n,
            )
    _mark_na(verdicts[last], pair_checks, "deepest stage: no further connecting map")

    if options.wilson:
        wilson_checks = (CHECK_WILSON_I, CHECK_WILSON_II)
        for n in range(last + 1):
            k = kernel_at(n)
            if k is None:
                _mark_na(
                    verdicts[n],
                    wilson_checks,
                    "stage 0 has no b0 mark to act as kernel",
                )
            else:
                _merge_or_bound(
                    verdicts[n],
                    wilson_checks,
                    check_wilson_stage,
                    prefix.groups[n],
                    k,
                    stage_index=n,
                    subgroup_bound=options.subgroup_bound,
                )

    if options.commuting_conjugates:
        for n in range(last + 1):
            a_n = prefix.a_marks[n]
            if a_n is None:
                _mark_na(
                    verdicts[n], (CHECK_COMMUTING_CONJUGATES,), f"missing mark a[{n}]"
                )
            else:
                _merge_or_bound(
                    verdicts[n],
                    (CHECK_COMMUTING_CONJUGATES,),
                    check_commuting_conjugates_stage,
                    prefix.groups[n],
                    a_n,
                    stage_index=n,
                    subgroup_bound=options.subgroup_bound,
                )

    if options.strengthened:
        thmb_checks = (CHECK_DICHOTOMY, CHECK_NO_CENTRAL_FACTOR)
        for n in range(last):
            a_next, a_n = prefix.a_marks[n + 1], prefix.a_marks[n]
            if a_next is None or a_n is None or (b_n := kernel_at(n)) is None:
                _mark_na(verdicts[n], thmb_checks, "missing marks")
            else:
                p_n = prefix.homs[n].image(a_next)
                _merge_or_bound(
                    verdicts[n],
                    thmb_checks,
                    check_strengthened_stage,
                    prefix.groups[n],
                    a_n,
                    b_n,
                    p_n,
                    stage_index=n,
                    subgroup_bound=options.subgroup_bound,
                )
        _mark_na(verdicts[last], thmb_checks, "deepest stage: no further connecting map")

    class_counts = None
    if options.count_class is not None:
        counts = tuple(
            count_class_factors(grp, options.count_class) for grp in prefix.groups
        )
        class_counts = ClassCountReport(
            member_names=options.count_class.member_names,
            counts=counts,
            strictly_increasing=all(
                counts[i] < counts[i + 1] for i in range(len(counts) - 1)
            ),
        )

    return SystemVerdict(
        stages=tuple(verdicts),
        summary=_summarize(verdicts),
        limit_claim=_limit_claim(verdicts, options),
        class_counts=class_counts,
    )


# -- independent witness re-checks -------------------------------------------


def revalidate_witness(
    check_name: str,
    witness: Mapping,
    *,
    g: PermGroup,
    k: Optional[PermGroup] = None,
    a: Optional[PermGroup] = None,
    b: Optional[PermGroup] = None,
    p: Optional[PermGroup] = None,
) -> bool:
    """Re-check a failure witness against the stage context from scratch.

    Returns True when the witness still demonstrates the failure: it is
    parsed and handed to the failure predicate the check's search uses.  The
    context arguments mirror the ones the original check received; a
    malformed witness, or a missing context argument, fails to revalidate.
    """
    if not isinstance(witness, Mapping):
        witness = {}  # nothing to parse, so no check accepts it

    def sub(key: str) -> Optional[PermGroup]:
        return _witness_subgroup(g, witness.get(key))

    def given(*parts: Optional[PermGroup]) -> bool:
        return all(part is not None for part in parts)

    if check_name == CHECK_CRITICAL_PAIR:
        if "normal_subgroup" in witness:
            n = sub("normal_subgroup")
            return given(a, b, n) and critical_pair_fails(g, a, b, n)
        top, bottom = sub("top"), sub("bottom")
        return given(a, b) and (top, bottom) == (a, b) and critical_pair_fails(g, a, b, None)
    if check_name == CHECK_CENTRALIZER_PRODUCT:
        try:
            x = Permutation(tuple(witness["element"]))
        except (KeyError, TypeError, ValueError):
            return False
        if not given(b, p) or x.degree != g.degree:
            return False
        return _centralizer_product_fails(_centralizer_product(g, p), b, x)
    if check_name == CHECK_WILSON_I:
        n = sub("normal_subgroup")
        return given(k, n) and _wilson_i_fails(g, k, n)
    if check_name == CHECK_WILSON_II:
        n, u = sub("normal_subgroup"), sub("subgroup")
        return given(k, n, u) and _wilson_ii_fails(g, k, n, u)
    if check_name == CHECK_COMMUTING_CONJUGATES:
        u = sub("subgroup")
        return given(a, u) and _commuting_conjugates_fails(g, a, u)
    if check_name == CHECK_DICHOTOMY:
        h, m = sub("subgroup"), sub("maximal_normal")
        return given(a, p, h, m) and _dichotomy_fails(a, _centralizer_product(g, p), h, m)
    if check_name == CHECK_NO_CENTRAL_FACTOR:
        factors = witness.get("factors")
        if not isinstance(factors, list) or len(factors) != 2:
            return False
        n, f1, f2 = sub("normal_subgroup"), *(_witness_subgroup(g, f) for f in factors)
        return given(a, n, f1, f2) and _no_central_factor_fails(g, a, n, f1, f2)
    raise ValueError(f"unknown check name {check_name!r}")
