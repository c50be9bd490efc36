"""Finite prefixes of inverse systems: the on-disk format and builders.

A prefix file lists stage groups coarsest first.  Stage n > 0 carries, for
each of its generators, the image permutation in the stage n-1 group; the
connecting maps and their kernels are reconstructed from those images and
never read from the file.  Each map is validated on one stabilizer chain of
its graph group, stage n's group is read off that chain, and a kernel is
computed from its map when something first asks for it.  Optional marks
("a" per stage, "b0" on stage 0) name distinguished normal subgroups by
generator lists.
"""

from __future__ import annotations

import json
from typing import Mapping, NamedTuple, Optional, Sequence

from .errors import InputFormatError, JicertError, KernelBugError
from .group import DEFAULT_DENSE_BOUND, PermGroup, _normalize_gens, subgroup_generated
from .hom import GroupHom, graph_chain
from .library import named_group
from .perm import Permutation

FORMAT_TAG = "jicert-system/1"

_STAGE0_KEYS = {"degree", "generators", "a", "b0"}
_STAGE_KEYS = {"degree", "generators", "a", "images"}


class StageRecord(NamedTuple):
    """One stage as written in a prefix file.

    Generator lists are kept verbatim (duplicates and identities included)
    so that serialization round-trips; the group objects normalize them.
    """

    degree: int
    generators: tuple[Permutation, ...]
    images: Optional[tuple[Permutation, ...]] = None
    a_generators: Optional[tuple[Permutation, ...]] = None
    b0_generators: Optional[tuple[Permutation, ...]] = None


class SystemPrefix:
    """Validated prefix: groups, connecting maps, marks, and kernels on first use.

    a_marks and b0 are None where the file carried no mark.  Immutable;
    equal and hashed by records alone.
    """

    __slots__ = ("records", "groups", "homs", "a_marks", "b0", "_kernels")

    def __init__(
        self, records: tuple[StageRecord, ...], groups: tuple[PermGroup, ...],
        homs: tuple[GroupHom, ...], a_marks: tuple[Optional[PermGroup], ...],
        b0: Optional[PermGroup],
    ):
        values = (records, groups, homs, a_marks, b0, {})
        for field, value in zip(self.__slots__, values):
            object.__setattr__(self, field, value)

    def __setattr__(self, name: str, _value: object = None) -> None:
        raise AttributeError(f"cannot assign to field {name!r} of SystemPrefix")

    __delattr__ = __setattr__

    def __eq__(self, other: object) -> bool:
        return self.records == other.records if type(other) is SystemPrefix else NotImplemented

    def __hash__(self) -> int:
        return hash(self.records)

    def __repr__(self) -> str:
        fields = ", ".join(f"{f}={getattr(self, f)!r}" for f in self.__slots__[:-1])
        return f"SystemPrefix({fields})"

    def __len__(self) -> int:
        return len(self.records)

    def kernel(self, n: int) -> Optional[PermGroup]:
        """The kernel of homs[n-1] inside groups[n]; None at n = 0.

        Each kernel is computed from its map when first asked for, then kept.
        """
        if n == 0:
            return None
        ker = self._kernels.get(n)
        if ker is None:
            ker = self._kernels[n] = self.homs[n - 1].kernel()
        return ker

    def with_marks(
        self,
        a_marks: Mapping[int, PermGroup],
        b0: Optional[PermGroup] = None,
    ) -> "SystemPrefix":
        """Copy of this prefix with the given marks installed.

        Stages absent from a_marks keep their current mark.  The copy shares
        this prefix's groups, maps and computed kernels;
        only the new marks are validated, so a non-normal one is rejected.
        """
        records, marks, new_b0 = list(self.records), list(self.a_marks), self.b0
        for i in range(len(records)):
            if i in a_marks:
                gens = tuple(a_marks[i].generators)
                records[i] = records[i]._replace(a_generators=gens)
                marks[i] = _mark_subgroup(self.groups[i], gens, f"stage {i}.a")
        if b0 is not None:
            gens = tuple(b0.generators)
            records[0] = records[0]._replace(b0_generators=gens)
            new_b0 = _mark_subgroup(self.groups[0], gens, "stage 0.b0")
        out = SystemPrefix(tuple(records), self.groups, self.homs, tuple(marks), new_b0)
        out._kernels.update(self._kernels)
        return out


def _perm_from_row(row: object, degree: int, where: str) -> Permutation:
    if not isinstance(row, list) or not all(
        isinstance(v, int) and not isinstance(v, bool) for v in row
    ):
        raise InputFormatError(f"{where}: expected a list of integers")
    if len(row) != degree:
        raise InputFormatError(
            f"{where}: permutation has {len(row)} entries, stage degree is {degree}"
        )
    try:
        return Permutation(tuple(row))
    except ValueError as exc:
        raise InputFormatError(f"{where}: {exc}") from None


def _perm_block(value: object, degree: int, where: str) -> tuple[Permutation, ...]:
    if not isinstance(value, list):
        raise InputFormatError(f"{where}: expected a list of permutations")
    return tuple(
        _perm_from_row(row, degree, f"{where}[{j}]") for j, row in enumerate(value)
    )


def _records_from_json(data: object) -> tuple[StageRecord, ...]:
    if not isinstance(data, dict):
        raise InputFormatError("top level must be a JSON object")
    if data.get("format") != FORMAT_TAG:
        raise InputFormatError(
            f"missing or unsupported format tag (expected {FORMAT_TAG!r})"
        )
    extra = set(data) - {"format", "stages"}
    if extra:
        raise InputFormatError(f"unknown top-level field {sorted(extra)[0]!r}")
    stages = data.get("stages")
    if not isinstance(stages, list) or not stages:
        raise InputFormatError("'stages' must be a non-empty list")

    records = []
    prev_degree = None
    for i, st in enumerate(stages):
        where = f"stage {i}"
        if not isinstance(st, dict):
            raise InputFormatError(f"{where}: expected an object")
        allowed = _STAGE0_KEYS if i == 0 else _STAGE_KEYS
        for key in st:
            if key not in allowed:
                raise InputFormatError(f"{where}: unknown or misplaced field {key!r}")
        degree = st.get("degree")
        if not isinstance(degree, int) or isinstance(degree, bool) or degree < 1:
            raise InputFormatError(f"{where}: 'degree' must be a positive integer")
        if "generators" not in st:
            raise InputFormatError(f"{where}: 'generators' is required")
        gens = _perm_block(st["generators"], degree, f"{where}.generators")

        images = None
        if i > 0:
            if "images" not in st:
                raise InputFormatError(f"{where}: 'images' is required after stage 0")
            images = _perm_block(st["images"], prev_degree, f"{where}.images")
            if len(images) != len(gens):
                raise InputFormatError(
                    f"{where}: {len(gens)} generators but {len(images)} images"
                )

        a_gens = None
        if "a" in st:
            a_gens = _perm_block(st["a"], degree, f"{where}.a")
        b_gens = None
        if "b0" in st:
            b_gens = _perm_block(st["b0"], degree, f"{where}.b0")

        records.append(StageRecord(degree, gens, images, a_gens, b_gens))
        prev_degree = degree
    return tuple(records)


def _mark_subgroup(
    parent: PermGroup, gens: Sequence[Permutation], where: str
) -> PermGroup:
    try:
        sub = subgroup_generated(parent, gens)
    except KernelBugError:
        raise
    except (JicertError, ValueError) as exc:
        raise InputFormatError(f"{where}: {exc}") from None
    if not sub.is_normal_in(parent):
        raise InputFormatError(f"{where}: marked subgroup is not normal")
    return sub


def _assemble(
    records: tuple[StageRecord, ...],
    *,
    dense_bound: int = DEFAULT_DENSE_BOUND,
) -> SystemPrefix:
    """Build groups, maps and marks from records, or reject.

    Stage 0 is built from its generators. Every later stage is read off the
    graph chain of its connecting map, so each map costs one Schreier-Sims.
    """
    groups = [PermGroup.from_generators(records[0].degree, records[0].generators, dense_bound)]
    homs = []
    for i in range(1, len(records)):
        rec = records[i]
        where = f"stage {i}"
        mapping: dict[Permutation, Permutation] = {}
        for g, im in zip(rec.generators, rec.images):
            if g in mapping and mapping[g] != im:
                raise InputFormatError(
                    f"{where}: repeated generator with conflicting images"
                )
            mapping[g] = im
            if g.is_identity() and not im.is_identity():
                raise InputFormatError(
                    f"{where}: identity generator must map to the identity"
                )
        gens = _normalize_gens(rec.degree, rec.generators)
        aligned = tuple(mapping[g] for g in gens)
        try:
            graph = graph_chain(rec.degree, gens, groups[i - 1], aligned)
        except (KernelBugError, InputFormatError):
            raise
        except (JicertError, ValueError) as exc:
            raise InputFormatError(
                f"{where}: images do not define a homomorphism onto the previous "
                f"stage: {exc}"
            ) from None
        chain = graph.cut(0, rec.degree)
        groups.append(PermGroup(degree=rec.degree, bound=dense_bound, gens=gens, chain=chain))
        hom = GroupHom(groups[i], groups[i - 1], aligned, graph)
        if not hom.is_surjective():
            raise InputFormatError(f"{where}: connecting map is not surjective")
        homs.append(hom)

    a_marks: list[Optional[PermGroup]] = []
    for i, rec in enumerate(records):
        if rec.a_generators is None:
            a_marks.append(None)
        else:
            a_marks.append(_mark_subgroup(groups[i], rec.a_generators, f"stage {i}.a"))
    b0 = None
    if records[0].b0_generators is not None:
        b0 = _mark_subgroup(groups[0], records[0].b0_generators, "stage 0.b0")

    return SystemPrefix(records, tuple(groups), tuple(homs), tuple(a_marks), b0)


def parse_system(
    text: str,
    *,
    dense_bound: int = DEFAULT_DENSE_BOUND,
) -> SystemPrefix:
    """Parse and fully validate a prefix document.

    Structural problems raise InputFormatError naming the stage; JSON syntax
    errors report the line and column.  Nothing is repaired silently.
    """
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise InputFormatError(
            f"JSON syntax error at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from None
    records = _records_from_json(data)
    return _assemble(records, dense_bound=dense_bound)


def serialize_system(prefix: SystemPrefix) -> str:
    """Stable JSON text for a prefix; parse_system round-trips it."""
    stages = []
    for rec in prefix.records:
        st: dict = {
            "degree": rec.degree,
            "generators": [list(p.images) for p in rec.generators],
        }
        if rec.images is not None:
            st["images"] = [list(p.images) for p in rec.images]
        if rec.a_generators is not None:
            st["a"] = [list(p.images) for p in rec.a_generators]
        if rec.b0_generators is not None:
            st["b0"] = [list(p.images) for p in rec.b0_generators]
        stages.append(st)
    doc = {"format": FORMAT_TAG, "stages": stages}
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def build_wreath_tower(
    base_specs: Sequence[tuple[str, int]],
    depth: int,
) -> SystemPrefix:
    """Iterated wreath tower prefix: stage n is base_n wr (stage n-1).

    base_specs are (name, degree) pairs, cycled when depth exceeds their
    count; stage 0 is the first base group itself.  Each connecting map
    collapses the newest base layer: block copies of the base map to the
    identity and the lifted previous stage maps to itself.
    """
    if depth < 1:
        raise InputFormatError("tower depth must be at least 1")
    if not base_specs:
        raise InputFormatError("at least one base group is required")

    bases = []
    for name, degree in base_specs:
        grp = named_group(name)
        if grp.degree != degree:
            raise InputFormatError(
                f"{name} acts on {grp.degree} points, not {degree}"
            )
        bases.append(grp)

    first = bases[0]
    records = [StageRecord(degree=first.degree, generators=tuple(first.generators))]
    degrees = [first.degree]
    expected_orders = [first.order]
    prev_gens = tuple(first.generators)

    for n in range(1, depth):
        base = bases[n % len(bases)]
        db, dprev = base.degree, degrees[n - 1]
        degree = db * dprev
        idt_prev = Permutation.identity(dprev)

        gens: list[Permutation] = []
        images: list[Permutation] = []
        # one copy of the base inside each block; these die under the map
        for t in range(dprev):
            for x in base.generators:
                imgs = list(range(degree))
                for o in range(db):
                    imgs[t * db + o] = t * db + x.images[o]
                gens.append(Permutation(tuple(imgs)))
                images.append(idt_prev)
        # the previous stage permutes the blocks and survives the map
        for y in prev_gens:
            imgs = [y.images[t] * db + o for t in range(dprev) for o in range(db)]
            gens.append(Permutation(tuple(imgs)))
            images.append(y)

        records.append(
            StageRecord(degree=degree, generators=tuple(gens), images=tuple(images))
        )
        degrees.append(degree)
        expected_orders.append(base.order ** dprev * expected_orders[n - 1])
        prev_gens = tuple(gens)

    prefix = _assemble(tuple(records))
    for n, grp in enumerate(prefix.groups):
        if grp.order != expected_orders[n]:
            raise KernelBugError(
                f"stage {n} order {grp.order} != expected {expected_orders[n]}"
            )
    return prefix
