"""One traced jicert op: wrap the public functions of every layer, run the CLI.

Usage: python3 traced_op.py --out TRACE.json [--count-mul] -- CLI-ARGS...

Every public function, class constructor and public method of the layers in
LAYERS is replaced by a wrapper that records a span.  A wrapper replaces the
name in every jicert module namespace that bound the original, because
`from .lattice import normal_subgroups` copies the binding; a missed binding
would let calls escape the trace.  Spans nest: a span's self time is its
duration minus the time its child spans cover.  Aggregates are kept in
memory and written to TRACE.json when the op ends.

With --count-mul no spans are recorded; only Permutation.__mul__ is
counted, because wrapping it in the span pass would inflate the self time
of every layer that multiplies.  That pass also times the fixed-seed
degree-25 product microbenchmark before anything is wrapped.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import random
import sys
import time

LAYERS = (
    "perm", "chain", "group", "hom", "lattice", "simples", "classdata",
    "library", "certifier", "prefixes", "report", "cli",
)
# Element-level queries are called once per element or per sift; a span on
# each would cost more than the work it measures and swamp every parent's
# self time.  Their cost stays in the self time of their callers.
UNWRAPPED_METHODS = {
    "PermGroup": {"elements", "sorted_elements", "contains", "is_trivial",
                  "canonical_key", "is_subgroup_of"},
    "StabilizerChain": {"contains_tuple", "order", "base"},
    "Permutation": None,  # the perm layer is measured by the --count-mul pass
}


class Tracer:
    """Nested spans aggregated per name: calls, total time, self time."""

    def __init__(self):
        self.stats: dict[str, list] = {}  # name -> [calls, total_s, self_s]
        self.stack: list[list] = []  # [name, start, child_time]
        self.active: dict[str, int] = {}
        self.found: dict[str, int] = {}
        self.wrapped: list = []  # the originals, to check that none escaped

    def wrap(self, name: str, fn, cached=None):
        stats = self.stats.setdefault(name, [0, 0.0, 0.0])
        self.wrapped.append(fn)
        stack, active, clock = self.stack, self.active, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            misses = cached.cache_info().misses if cached is not None else 0
            frame = [name, clock(), 0.0]
            stack.append(frame)
            active[name] = active.get(name, 0) + 1
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = clock() - frame[1]
                stack.pop()
                active[name] -= 1
                stats[0] += 1
                stats[2] += dur - frame[2]
                if active[name] == 0:
                    stats[1] += dur  # outermost call only, so recursion is not double-counted
                if stack:
                    stack[-1][2] += dur
            if cached is not None and cached.cache_info().misses > misses:
                self.found[name] = self.found.get(name, 0) + len(result)
            return result

        return wrapper


def _rebind(old, new) -> None:
    for modname, mod in list(sys.modules.items()):
        if modname == "jicert" or modname.startswith("jicert."):
            for attr, value in list(vars(mod).items()):
                if value is old:
                    setattr(mod, attr, new)


def install(tracer: Tracer) -> dict:
    """Wrap every layer; return the lru_cache objects of the cached functions."""
    mods = {name: importlib.import_module(f"jicert.{name}") for name in LAYERS}
    caches = {}
    for layer, mod in mods.items():
        for attr, obj in list(vars(mod).items()):
            if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                continue
            if inspect.isclass(obj):
                _wrap_class(tracer, layer, obj)
            elif callable(obj):
                cached = obj if hasattr(obj, "cache_info") else None
                if cached is not None:
                    caches[f"{layer}.{attr}"] = cached
                _rebind(obj, tracer.wrap(f"{layer}.{attr}", obj, cached))
    return caches


def _wrap_class(tracer: Tracer, layer: str, cls) -> None:
    skip = UNWRAPPED_METHODS.get(cls.__name__, set())
    if skip is None:
        return
    prefix = f"{layer}.{cls.__name__}"
    if "__init__" in vars(cls) and inspect.isfunction(vars(cls)["__init__"]):
        cls.__init__ = tracer.wrap(prefix, vars(cls)["__init__"])
    for attr, raw in list(vars(cls).items()):
        if attr.startswith("_") or attr in skip:
            continue
        if isinstance(raw, staticmethod):
            setattr(cls, attr, staticmethod(tracer.wrap(f"{prefix}.{attr}", raw.__func__)))
        elif inspect.isfunction(raw):
            setattr(cls, attr, tracer.wrap(f"{prefix}.{attr}", raw))


def mul_ns(degree: int = 25, count: int = 20000, repeats: int = 7) -> float:
    """Median nanoseconds per Permutation product on fixed random inputs."""
    from jicert.perm import Permutation

    rng = random.Random(25)
    perms = []
    for _ in range(64):
        img = list(range(degree))
        rng.shuffle(img)
        perms.append(Permutation(img))
    pairs = [(perms[rng.randrange(64)], perms[rng.randrange(64)]) for _ in range(count)]
    samples = []
    for _ in range(repeats):
        t0 = time.perf_counter_ns()
        for p, q in pairs:
            p * q
        samples.append((time.perf_counter_ns() - t0) / count)
    samples.sort()
    return samples[len(samples) // 2]


def count_mul(argv: list[str]) -> tuple[int, dict]:
    from jicert import cli
    from jicert.perm import Permutation

    extra = {"perm.mul_ns": mul_ns()}
    original = Permutation.__mul__
    calls = [0]

    def counted(self, other):
        calls[0] += 1
        return original(self, other)

    Permutation.__mul__ = counted
    try:
        code = cli.main(argv)
    finally:
        Permutation.__mul__ = original
    extra["perm.mul.calls"] = calls[0]
    return code, extra


def traced(argv: list[str]) -> tuple[int, dict]:
    from jicert import cli  # loads every layer before any is wrapped

    tracer = Tracer()
    caches = install(tracer)
    code = cli.main(argv)
    out = {}
    for name, (calls, total, self_s) in tracer.stats.items():
        if calls:
            out[f"{name}.calls"] = calls
            out[f"{name}.total_s"] = total
            out[f"{name}.self_s"] = self_s
    for name, cached in caches.items():
        out[f"{name}.cache_hits"] = cached.cache_info().hits
        out[f"{name}.found"] = tracer.found.get(name, 0)
    return code, out


def main() -> int:
    args = sys.argv[1:]
    sep = args.index("--")
    opts, argv = args[:sep], args[sep + 1 :]
    out_path = opts[opts.index("--out") + 1]
    run = count_mul if "--count-mul" in opts else traced
    code, metrics = run(argv)
    sys.stdout.flush()
    with open(out_path, "w") as fh:
        json.dump(metrics, fh, sort_keys=True)
    return code


if __name__ == "__main__":
    sys.exit(main())
