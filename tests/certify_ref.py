"""Whole-prefix certification written family by family: the reference for
the family table.

jicert.certifier.certify_system runs every check family from one table,
each row giving the family's option flag, check names, stage range and
not-applicable notes once. This module keeps the version that table
replaced, one hand-written loop per family and a limit claim that names
each family's stages itself, so the tests can compare the two verdicts.
"""

from typing import Optional, Sequence

from jicert.certifier import (
    CHECK_CENTRALIZER_PRODUCT,
    CHECK_COMMUTING_CONJUGATES,
    CHECK_CRITICAL_PAIR,
    CHECK_DICHOTOMY,
    CHECK_NO_CENTRAL_FACTOR,
    CHECK_WILSON_I,
    CHECK_WILSON_II,
    PASS,
    CertifyOptions,
    ClassCountReport,
    StageVerdict,
    SystemVerdict,
    _mark_na,
    _merge_or_bound,
    _status,
    _summarize,
    check_commuting_conjugates_stage,
    check_critical_stage,
    check_strengthened_stage,
    check_wilson_stage,
)
from jicert.classdata import count_class_factors
from jicert.group import PermGroup
from jicert.prefixes import SystemPrefix


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


def reference_limit_claim(stages: Sequence[StageVerdict], options: CertifyOptions) -> str:
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


def reference_certify_system(
    prefix: SystemPrefix, options: Optional[CertifyOptions] = None
) -> SystemVerdict:
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
        limit_claim=reference_limit_claim(verdicts, options),
        class_counts=class_counts,
    )
