"""Benchmark of the jicert command line as it is run: one call per fresh process.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

One op is one `jicert check` or `jicert lattice` call (`python3 -m
jicert.cli ...` with PYTHONPATH=src) in a fresh interpreter, on an input
document this benchmark wrote from --seed.  Ops run one at a time, a closed
loop with a single client.  One untimed warm-up op starts each run; then ops
are started until --seconds have passed.  Every op's exit code and output
are checked against values computed apart from jicert (see expected.py).

--trace 0 prints the end-to-end metrics.  --trace 1 instead runs traced ops
(traced_op.py calls jicert.cli.main in-process with span wrappers on every
layer) and prints the per-layer metrics.  The last line of stdout is one
JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import select
import signal
import statistics
import sys
import time
from pathlib import Path
from typing import Callable, NamedTuple

import expected
import towers

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
ORACLES = ROOT / "tests" / "oracles.py"
OUT = HERE / "out"

OP_TIMEOUT_S = 45.0
SETUP_IMPORTS = 9

END_TO_END = {
    "ops_per_s": "1/s",
    "op_p50_s": "s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}

PER_LAYER = {
    "perm.mul.calls": "count",
    "perm.mul_ns": "ns",
    "chain.StabilizerChain.calls": "count",
    "chain.StabilizerChain.self_s": "s",
    "chain.StabilizerChain.contains.calls": "count",
    "chain.StabilizerChain.lift_points.calls": "count",
    "chain.StabilizerChain.lift_points.self_s": "s",
    "group.PermGroup.from_generators.self_s": "s",
    "group.subgroup_generated.calls": "count",
    "group.subgroup_generated.self_s": "s",
    "group.normal_closure.calls": "count",
    "group.normal_closure.self_s": "s",
    "group.conjugacy_classes.self_s": "s",
    "group.centralizer.self_s": "s",
    "hom.GroupHom.calls": "count",
    "hom.GroupHom.self_s": "s",
    "hom.GroupHom.kernel.self_s": "s",
    "hom.quotient.calls": "count",
    "hom.quotient.self_s": "s",
    "lattice.normal_subgroups.calls": "count",
    "lattice.normal_subgroups.self_s": "s",
    "lattice.normal_subgroups.cache_hits": "count",
    "lattice.normal_subgroups.found": "count",
    "lattice.critical_pairs.self_s": "s",
    "lattice.composition_factors.self_s": "s",
    "lattice.all_subgroups.calls": "count",
    "lattice.all_subgroups.self_s": "s",
    "lattice.all_subgroups.cache_hits": "count",
    "lattice.all_subgroups.found": "count",
    "lattice.central_decomposition.self_s": "s",
    "certifier.certify_system.total_s": "s",
    "certifier.check_critical_stage.self_s": "s",
    "certifier.check_wilson_stage.self_s": "s",
    "certifier.check_commuting_conjugates_stage.self_s": "s",
    "certifier.check_strengthened_stage.self_s": "s",
    "prefixes.parse_system.total_s": "s",
    "classdata.count_class_factors.self_s": "s",
    "simples.identify_simple_type.calls": "count",
    "report.emit_report.self_s": "s",
    "trace.op_s": "s",
    "trace.untraced_op_s": "s",
}


class Workload(NamedTuple):
    bases: list[str]
    depth: int
    marks: dict | None
    argv: Callable[[Path, Path], list[str]]
    reference: Callable  # (oracles, input bytes, stages) -> reference dict
    check: Callable  # (reference, exit code, stdout, files) -> None, or raise
    files: tuple[str, ...] = ()


SWEEP_FLAGS = ["--wilson", "--commuting-conjugates", "--strengthened", "--count-class", "C2,C3"]

WORKLOADS = {
    "certify-sweep": Workload(
        ["S3", "C2"], 2, towers.sweep_marks(),
        lambda inp, wd: ["check", str(inp), *SWEEP_FLAGS, "--json", str(wd / "report.json")],
        expected.sweep_reference, expected.check_sweep, ("report.json",),
    ),
    "lattice-stage": Workload(
        ["S3"], 2, None,
        lambda inp, wd: ["lattice", str(inp), "--stage", "1"],
        lambda O, data, stages: expected.lattice_reference(O, data, stages, 1),
        expected.check_lattice,
    ),
    "validate-dense": Workload(
        ["C2"], 4, None,
        lambda inp, wd: ["check", str(inp)],
        lambda O, data, stages: expected.validate_reference(data, stages),
        expected.check_validate,
    ),
    "validate-chain": Workload(
        ["A5"], 2, None,
        lambda inp, wd: ["check", str(inp)],
        lambda O, data, stages: expected.validate_reference(data, stages),
        expected.check_validate,
    ),
}


class SetupError(Exception):
    """The checkout cannot run the benchmark; no result is printed."""


def child_env() -> dict:
    # A clean interpreter environment: only PYTHONPATH, pointing at the
    # checkout's sources, so bytecode is cached under src/ like a user's run.
    env = {k: v for k, v in os.environ.items() if not k.startswith("PYTHON")}
    env["PYTHONPATH"] = str(SRC)
    return env


class Proc(NamedTuple):
    seconds: float
    code: int | None  # None when the op was killed at the timeout
    maxrss_mb: float
    stdout: str


def spawn(argv: list[str], workdir: Path, timeout: float = OP_TIMEOUT_S) -> Proc:
    """Run argv to its end; wall time from spawn to exit, and its max RSS."""
    out, err = workdir / "stdout.txt", workdir / "stderr.txt"
    flags = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
    actions = [
        (os.POSIX_SPAWN_OPEN, 1, str(out), flags, 0o644),
        (os.POSIX_SPAWN_OPEN, 2, str(err), flags, 0o644),
    ]
    env = child_env()
    t0 = time.perf_counter()
    pid = os.posix_spawn(argv[0], argv, env, file_actions=actions)
    pidfd = os.pidfd_open(pid)
    try:
        poller = select.poll()
        poller.register(pidfd, select.POLLIN)
        killed = not poller.poll(timeout * 1000)
        if killed:
            os.kill(pid, signal.SIGKILL)
        _, status, usage = os.wait4(pid, 0)
        seconds = time.perf_counter() - t0
    finally:
        os.close(pidfd)
    code = None if killed else os.waitstatus_to_exitcode(status)
    return Proc(seconds, code, usage.ru_maxrss / 1024, out.read_text(errors="replace"))


def cli_argv(args: list[str]) -> list[str]:
    return [sys.executable, "-m", "jicert.cli", *args]


def load_oracles():
    import importlib.util

    spec = importlib.util.spec_from_file_location("oracles", ORACLES)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def prepare(name: str, seed: int) -> tuple[Workload, Path, Path, dict]:
    """Check the checkout, write the input, compute the reference values."""
    if not (SRC / "jicert" / "cli.py").is_file() or not ORACLES.is_file():
        raise SetupError(f"no jicert sources under {ROOT}: expected src/jicert and tests/oracles.py")
    wl = WORKLOADS[name]
    workdir = OUT / name
    workdir.mkdir(parents=True, exist_ok=True)
    data, stages = towers.build_document(wl.bases, wl.depth, seed, wl.marks)
    inp = workdir / "input.json"
    inp.write_bytes(data)
    ref = wl.reference(load_oracles(), data, stages)
    # first import compiles the bytecode; it also shows which jicert is used
    where = spawn([sys.executable, "-c", "import jicert.cli as c; print(c.__file__)"], workdir)
    if where.code != 0 or Path(where.stdout.strip()).resolve() != (SRC / "jicert" / "cli.py").resolve():
        raise SetupError(f"jicert.cli does not import from {SRC}: {where.stdout.strip()!r}")
    return wl, workdir, inp, ref


def setup_seconds(workdir: Path) -> float:
    """Median wall time of a fresh interpreter importing jicert.cli."""
    argv = [sys.executable, "-c", "import jicert.cli"]
    times = []
    for _ in range(SETUP_IMPORTS):
        p = spawn(argv, workdir)
        if p.code != 0:
            raise SetupError("importing jicert.cli failed")
        times.append(p.seconds)
    return statistics.median(times)


class Tally:
    """Ops attempted and failed; `wrong` counts failures with a wrong output."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.wrong = 0

    def judge(self, wl: Workload, ref: dict, proc: Proc, workdir: Path, counted=True) -> None:
        ok = proc.code is not None
        if ok:
            try:
                files = {f: (workdir / f).read_bytes() for f in wl.files}
                wl.check(ref, proc.code, proc.stdout, files)
            except (expected.OutputMismatch, OSError, ValueError, LookupError, TypeError,
                    AttributeError) as exc:
                print(f"op output check failed: {exc!r}", file=sys.stderr)
                ok = False
                self.wrong += 1
        else:
            print(f"op timed out after {OP_TIMEOUT_S} s", file=sys.stderr)
        if counted:
            self.attempted += 1
            self.failed += 0 if ok else 1


def run_untraced(wl: Workload, workdir: Path, inp: Path, ref: dict, seconds: float):
    tally = Tally()
    setup_s = setup_seconds(workdir)
    argv = cli_argv(wl.argv(inp, workdir))
    tally.judge(wl, ref, spawn(argv, workdir), workdir, counted=False)  # warm-up
    times, rss = [], []
    start = time.perf_counter()
    while True:
        proc = spawn(argv, workdir)
        tally.judge(wl, ref, proc, workdir)
        times.append(proc.seconds)
        rss.append(proc.maxrss_mb)
        if time.perf_counter() - start >= seconds:
            break
    elapsed = time.perf_counter() - start
    (workdir / "op-times.json").write_text(json.dumps({"seconds": times, "maxrss_mb": rss}))
    metrics = {
        "ops_per_s": len(times) / elapsed,
        "op_p50_s": statistics.median(times),
        "peak_rss_mb": max(rss),
        "setup_s": setup_s,
    }
    return tally, metrics, END_TO_END


def run_traced(wl: Workload, workdir: Path, inp: Path, ref: dict, seconds: float):
    tally = Tally()
    args = wl.argv(inp, workdir)
    trace = workdir / "trace.json"
    tracer = [sys.executable, str(HERE / "traced_op.py"), "--out", str(trace)]

    def traced_op(*opts: str) -> dict:
        trace.unlink(missing_ok=True)
        proc = spawn([*tracer, *opts, "--", *args], workdir)
        tally.judge(wl, ref, proc, workdir)
        if proc.code is None or not trace.exists():
            return {}
        return dict(json.loads(trace.read_text()), **{"trace.op_s": proc.seconds})

    extra = traced_op("--count-mul")
    samples: dict[str, list] = {name: [] for name in PER_LAYER}
    start = time.perf_counter()
    while True:
        spans = traced_op()
        # an untraced op right after each traced one: the base of the overhead
        plain = spawn(cli_argv(args), workdir)
        tally.judge(wl, ref, plain, workdir)
        if spans:
            spans["trace.untraced_op_s"] = plain.seconds
            for name in PER_LAYER:
                samples[name].append(spans.get(name, 0))
        if time.perf_counter() - start >= seconds:
            break
    metrics = {}
    for name, vals in samples.items():
        middle = statistics.median_low if PER_LAYER[name] == "count" else statistics.median
        metrics[name] = middle(vals) if vals else 0
    metrics["perm.mul.calls"] = extra.get("perm.mul.calls", 0)
    metrics["perm.mul_ns"] = extra.get("perm.mul_ns", 0)
    (workdir / "trace-summary.json").write_text(json.dumps(metrics, indent=2, sort_keys=True))
    return tally, metrics, PER_LAYER


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    try:
        wl, workdir, inp, ref = prepare(args.workload, args.seed)
        run = run_traced if args.trace else run_untraced
        tally, metrics, units = run(wl, workdir, inp, ref, args.seconds)
    except SetupError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    result = {
        "correct": tally.wrong == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    line = json.dumps(result, sort_keys=True)
    (workdir / f"result-trace{args.trace}.json").write_text(line + "\n")
    print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
