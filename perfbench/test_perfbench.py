"""Tests of the benchmark's own statistics, input builder, output checkers
and tracer.  None of them runs a jicert op; the slowest computes the brute-
force references once (about a second)."""

from __future__ import annotations

import copy
import json
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import benchstats  # noqa: E402
import expected  # noqa: E402
import run  # noqa: E402
import towers  # noqa: E402
import traced_op  # noqa: E402

O = run.load_oracles()


# -- statistics -----------------------------------------------------------------


def test_quartiles_match_statistics_quantiles():
    values = [3.0, 1.0, 4.0, 1.5, 5.0, 9.0, 2.0, 6.0, 5.5, 3.5]
    q = statistics.quantiles(values, n=4)
    assert benchstats.quartiles(values) == (q[0], q[2])
    assert benchstats.relative_spread(values) == (q[2] - q[0]) / statistics.median(values)


def test_relative_spread_of_constant_values_is_zero():
    assert benchstats.relative_spread([2.0] * 10) == 0


def test_relative_change_follows_better_direction():
    assert benchstats.relative_change(1.0, 1.2, "lower") == pytest.approx(0.2)
    assert benchstats.relative_change(1.0, 0.8, "higher") == pytest.approx(0.2)
    assert benchstats.relative_change(1.0, 1.2, "higher") == pytest.approx(-0.2)


# -- inputs ---------------------------------------------------------------------


def test_tower_orders_follow_the_wreath_formula():
    stages = towers.wreath_tower(["S3", "C2"], 3)
    assert [st["order"] for st in stages] == [6, 2**3 * 6, 6**6 * 48]
    assert [st["degree"] for st in stages] == [3, 6, 18]
    for st in stages[:2]:
        assert len(O.closure_gens(st["degree"], st["generators"])) == st["order"]


def test_seed_relabels_points_only():
    a, sa = towers.build_document(["S3", "C2"], 2, 1, towers.sweep_marks())
    b, sb = towers.build_document(["S3", "C2"], 2, 1, towers.sweep_marks())
    c, sc = towers.build_document(["S3", "C2"], 2, 2, towers.sweep_marks())
    assert a == b and a != c
    for x, y in zip(sa, sc):
        assert len(O.closure_gens(x["degree"], x["generators"])) == x["order"]
        assert len(O.closure_gens(y["degree"], y["generators"])) == x["order"]
        assert len(O.closure_gens(x["degree"], x["a"])) == len(O.closure_gens(y["degree"], y["a"]))


def test_relabelled_images_define_a_homomorphism():
    _, stages = towers.build_document(["S3", "C2"], 2, 7, towers.sweep_marks())
    g1 = expected.RawGroup(O, stages[1]["degree"], stages[1]["generators"])
    phi = expected.hom_table(O, g1, stages[0]["degree"], stages[1]["images"])
    assert len(phi) == 48
    elems = sorted(phi)
    for x in elems[::5]:
        for y in elems[::7]:
            assert phi[O.mul(x, y)] == O.mul(phi[x], phi[y])


def test_sweep_marks_are_the_documented_subgroups():
    _, stages = towers.build_document(["S3", "C2"], 2, 3, towers.sweep_marks())
    assert len(O.closure_gens(3, stages[0]["a"])) == 6
    assert len(O.closure_gens(3, stages[0]["b0"])) == 3
    assert len(O.closure_gens(6, stages[1]["a"])) == 24


# -- output checkers --------------------------------------------------------------


@pytest.fixture(scope="module")
def sweep():
    data, stages = towers.build_document(["S3", "C2"], 2, 4, towers.sweep_marks())
    return data, stages, expected.sweep_reference(O, data, stages)


def _text_report(ref, statuses=None, digest=None):
    lines = ["jicert certificate report",
             f"input: {digest or ref['digest']} ({len(ref['stages'])} stages)"]
    for i, st in enumerate(ref["stages"]):
        lines.append(f"stage {i}: order {st['order']}, degree {st['degree']}")
        for name, status in sorted((statuses or ref["statuses"])[i].items()):
            lines.append(f"  {name}: {status} (note)")
    lines += ["summary: s", "limit claim: l", "completeness: complete"]
    return "\n".join(lines) + "\n"


def _sub(g, elements):
    gens = O.greedy_gens(g.degree, elements)
    return {"order": len(elements), "generators": [list(x) for x in gens]}


def _json_report(ref):
    stages = []
    for i, statuses in enumerate(ref["statuses"]):
        ctx = ref["context"][i]
        checks = {}
        for name, status in statuses.items():
            entry = {"status": status}
            if status == expected.FAIL:
                assert name == "wilson_i", "the fixture only knows a wilson_i witness"
                g, k = ctx["g"], ctx["k"]
                bad = next(n for n in g.normals if not n <= k and not k <= n)
                entry["witness"] = {"normal_subgroup": _sub(g, bad)}
            checks[name] = entry
        stages.append({"index": i, "checks": checks})
    return {
        "input": {"digest": ref["digest"], "orders": [s["order"] for s in ref["stages"]],
                  "degrees": [s["degree"] for s in ref["stages"]]},
        "stages": stages,
        "class_factor_counts": {"counts": ref["counts"], "strictly_increasing": True},
        "completeness": "complete",
    }


def test_sweep_reference_matches_the_documented_verdicts(sweep):
    _, _, ref = sweep
    assert ref["exit"] == 1
    assert ref["statuses"][1]["wilson_i"] == expected.FAIL
    assert ref["counts"] == [2, 5]
    assert all(s == expected.PASS for s in ref["statuses"][0].values())


def test_sweep_checker_accepts_a_consistent_report_and_caches_it(sweep):
    _, _, ref = sweep
    ref = dict(ref, report=None)
    raw = json.dumps(_json_report(ref)).encode()
    expected.check_sweep(ref, 1, _text_report(ref), {"report.json": raw})
    assert ref["report"] == raw
    with pytest.raises(expected.OutputMismatch):
        expected.check_sweep(ref, 1, _text_report(ref), {"report.json": raw + b" "})


@pytest.mark.parametrize("tamper", ["exit", "status", "witness", "digest", "counts"])
def test_sweep_checker_rejects_wrong_outputs(sweep, tamper):
    _, _, ref = sweep
    ref = dict(ref, report=None)
    rep = _json_report(ref)
    text, code = _text_report(ref), 1
    if tamper == "exit":
        code = 0
    elif tamper == "status":
        statuses = copy.deepcopy(ref["statuses"])
        statuses[0]["wilson_ii"] = expected.FAIL
        text = _text_report(ref, statuses=statuses)
    elif tamper == "witness":
        ctx = ref["context"][1]
        rep["stages"][1]["checks"]["wilson_i"]["witness"]["normal_subgroup"] = _sub(ctx["g"], ctx["k"])
    elif tamper == "digest":
        text = _text_report(ref, digest="sha256:" + "0" * 64)
    elif tamper == "counts":
        rep["class_factor_counts"]["counts"] = [2, 4]
    with pytest.raises(expected.OutputMismatch):
        expected.check_sweep(ref, code, text, {"report.json": json.dumps(rep).encode()})


@pytest.fixture(scope="module")
def lattice():
    data, stages = towers.build_document(["S3"], 2, 5)
    return expected.lattice_reference(O, data, stages, 1)


def _lattice_text(ref, **override):
    fields = {
        "normal": ref["normal"], "minimal": ref["minimal"], "maximal": ref["maximal"],
        "chief": [1, 27, 54, 216, 648, 1296],
        "pairs": ref["pairs"],
        "factors": ref["factors"],
    }
    fields.update(override)
    join = lambda xs: ", ".join(map(str, xs))  # noqa: E731
    return "\n".join([
        f"stage {ref['stage']}: order {ref['order']}, degree {ref['degree']}",
        f"normal subgroup orders: {join(fields['normal'])}",
        f"minimal normal orders: {join(fields['minimal'])}",
        f"maximal normal orders: {join(fields['maximal'])}",
        "critical pairs (top, bottom): " + ", ".join(f"({a}, {b})" for a, b in fields["pairs"]),
        f"chief series orders: {join(fields['chief'])}",
        "composition factors: " + ", ".join(f"{n} x {k}" for n, k in sorted(fields["factors"].items())),
    ]) + "\n"


def test_lattice_reference_of_s3_wr_s3(lattice):
    assert lattice["order"] == 1296
    assert len(lattice["normal"]) == 10
    assert lattice["factors"] == {"C2": 4, "C3": 4}


def test_lattice_checker_accepts_consistent_text(lattice):
    ref = dict(lattice, output=None)
    expected.check_lattice(ref, 0, _lattice_text(ref), {})
    assert ref["output"] is not None


@pytest.mark.parametrize("override", [
    {"normal": [1, 27, 54, 108, 216, 324, 648, 648, 1296]},
    {"maximal": [648, 648]},
    {"pairs": [(27, 1)]},
    {"chief": [1, 27, 81, 1296]},
    {"chief": [1, 54, 27, 1296]},
    {"factors": {"C2": 3, "C3": 4}},
])
def test_lattice_checker_rejects_wrong_text(lattice, override):
    ref = dict(lattice, output=None)
    with pytest.raises(expected.OutputMismatch):
        expected.check_lattice(ref, 0, _lattice_text(ref, **override), {})


def test_validate_checker_wants_every_pair_check_not_applicable():
    data, stages = towers.build_document(["C2"], 3, 1)
    ref = expected.validate_reference(data, stages)
    expected.check_validate(ref, 0, _text_report(ref), {})
    statuses = copy.deepcopy(ref["statuses"])
    statuses[0]["critical_pair"] = expected.PASS
    with pytest.raises(expected.OutputMismatch):
        expected.check_validate(ref, 0, _text_report(ref, statuses=statuses), {})
    with pytest.raises(expected.OutputMismatch):
        expected.check_validate(ref, 2, _text_report(ref), {})


# -- harness and tracer -------------------------------------------------------------


def test_metric_lists_match_benchmark_json():
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == run.PER_LAYER
    assert {w["name"] for w in bench["workloads"]} <= set(run.WORKLOADS)


def test_tracer_self_time_excludes_children():
    tracer = traced_op.Tracer()

    def busy(s):
        end = time.perf_counter() + s
        while time.perf_counter() < end:
            pass

    child = tracer.wrap("child", lambda: busy(0.02))

    def parent_fn(depth):
        busy(0.01)
        child()
        if depth:
            parent(depth - 1)

    parent = tracer.wrap("parent", parent_fn)
    parent(1)
    calls, total, self_s = tracer.stats["parent"]
    c_calls, c_total, _ = tracer.stats["child"]
    assert (calls, c_calls) == (2, 2)
    assert total == pytest.approx(self_s + c_total, rel=0.05)
    assert 0.015 < self_s < 0.03


def test_install_leaves_no_unwrapped_binding():
    script = (
        "import sys, traced_op, jicert.cli\n"
        "tracer = traced_op.Tracer()\n"
        "traced_op.install(tracer)\n"
        "mods = [m for n, m in sys.modules.items() if n.split('.')[0] == 'jicert']\n"
        "escaped = [k for m in mods for k, v in vars(m).items()\n"
        "           if any(v is f for f in tracer.wrapped)]\n"
        "import jicert.lattice as L, jicert.certifier as C, jicert.cli as I\n"
        "assert L.normal_subgroups is C.normal_subgroups is I.normal_subgroups\n"
        "print(len(tracer.wrapped) > 50 and not escaped and 'ok', escaped)\n"
    )
    env = dict(run.child_env())
    env["PYTHONPATH"] = f"{run.SRC}:{HERE}"
    out = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                         text=True, timeout=60)
    assert out.stdout.strip() == "ok []", out.stdout + out.stderr


def test_run_refuses_a_directory_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "lattice-stage", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
