"""Start-up without dataclasses: a bare `import jicert.cli` loads neither
dataclasses nor inspect, and the value types that were dataclasses keep
their behaviour as named tuples and slotted classes. Exit through
jicert.cli.run: a CLI process prints and writes what an in-process main()
does, ends with main's code, exits 120 when its output cannot be
flushed, and exits 2 when it has no standard output at all."""

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from jicert import build_wreath_tower, parse_system
from jicert.certifier import (
    CertifyOptions,
    CheckResult,
    ClassCountReport,
    EpVerdict,
    StageVerdict,
    SystemVerdict,
)
from jicert.classdata import SchurClosureVerdict, SchurTable, SimpleClass
from jicert.cli import main
from jicert.prefixes import StageRecord, serialize_system
from jicert.simples import SimpleTypeId

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
DATA = Path(__file__).parent / "data"


def test_cli_import_loads_no_dataclasses():
    code = "import sys, jicert.cli; print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    proc = subprocess.run(
        [sys.executable, "-c", code],
        env={"PYTHONPATH": str(SRC)},
        capture_output=True,
        text=True,
        check=True,
    )
    assert proc.stdout.strip() == "[]"


def test_simple_type_id_inequality_follows_equality():
    a = SimpleTypeId(name="A5", order=60)
    b = SimpleTypeId(name="PSL(2,5)", order=60)
    c = SimpleTypeId.cyclic(5)
    for x, y in ((a, b), (a, c), (a, a), (c, SimpleTypeId.cyclic(5)), (a, SimpleTypeId("A5", 60))):
        assert (x != y) == (not x == y)
    assert a == SimpleTypeId("A5", 60) and hash(a) == hash(SimpleTypeId("A5", 60))
    assert a != b and not a == b
    assert a != c and not a == c
    assert repr(a) == "SimpleTypeId(A5, order=60)"
    with pytest.raises(AttributeError):
        a.name = "PSL(2,5)"
    assert a.name == "A5"


def _prefix():
    return parse_system((DATA / "s4_s3_prefix.json").read_text())


def _samples():
    cls = SimpleClass(frozenset([SimpleTypeId.cyclic(2)]))
    check = CheckResult("pass", note="ok")
    return [
        (check, "CheckResult(status='pass', witness=None, note='ok')"),
        (
            ClassCountReport(member_names=("C2",), counts=(1, 2), strictly_increasing=True),
            "ClassCountReport(member_names=('C2',), counts=(1, 2), strictly_increasing=True)",
        ),
        (
            SystemVerdict(stages=(), summary="s", limit_claim="l"),
            "SystemVerdict(stages=(), summary='s', limit_claim='l', class_counts=None)",
        ),
        (
            CertifyOptions(wilson=True),
            "CertifyOptions(wilson=True, commuting_conjugates=False, strengthened=False, "
            "subgroup_bound=2000, count_class=None)",
        ),
        (
            EpVerdict(status="proper", note="n"),
            "EpVerdict(status='proper', note='n', ep_order=None, ep_index=None)",
        ),
        (cls, "SimpleClass(members=frozenset({SimpleTypeId(C2, order=2)}))"),
        (SchurTable(rows=(), order_bound=60), "SchurTable(rows=(), order_bound=60)"),
        (
            SchurClosureVerdict(ok=True, missing=(), order_bound=60),
            "SchurClosureVerdict(ok=True, missing=(), order_bound=60)",
        ),
        (
            StageRecord(degree=1, generators=()),
            "StageRecord(degree=1, generators=(), images=None, a_generators=None, "
            "b0_generators=None)",
        ),
        (
            StageVerdict(stage_index=0, order=6, degree=3, checks={"x": check}),
            f"StageVerdict(stage_index=0, order=6, degree=3, checks={{'x': {check!r}}})",
        ),
    ]


@pytest.mark.parametrize("value, text", _samples())
def test_repr_keeps_the_field_form(value, text):
    assert repr(value) == text


def test_system_prefix_repr_names_its_fields():
    text = repr(_prefix())
    assert text.startswith("SystemPrefix(records=(StageRecord(degree=3, ")
    for field in ("groups", "homs", "a_marks", "b0"):
        assert f", {field}=" in text
    assert text.endswith(", b0=PermGroup(degree=3, order=3, bound=6))")
    assert "_kernels" not in text


def test_frozen_types_refuse_assignment():
    frozen = [value for value, _ in _samples() if not isinstance(value, StageVerdict)]
    frozen += [SimpleTypeId.cyclic(3), _prefix()]
    for value in frozen:
        field = value._fields[0] if hasattr(value, "_fields") else type(value).__slots__[0]
        before = getattr(value, field)
        with pytest.raises(AttributeError):
            setattr(value, field, None)
        with pytest.raises(AttributeError):
            delattr(value, field)
        with pytest.raises(AttributeError):
            value.extra = None
        assert getattr(value, field) is before


def test_stage_verdicts_do_not_share_checks():
    first = StageVerdict(stage_index=0, order=6, degree=3)
    second = StageVerdict(stage_index=0, order=6, degree=3)
    assert first.checks is not second.checks
    assert first == second
    first.checks["x"] = CheckResult("pass")
    assert second.checks == {}
    assert first != second
    first.order = 7  # stage verdicts stay mutable
    assert first.order == 7
    with pytest.raises(TypeError):
        hash(first)


def test_system_prefix_equality_and_hash_follow_records():
    first, second = _prefix(), _prefix()
    assert first.groups[0] is not second.groups[0]
    assert first == second and hash(first) == hash(second)
    marked = first.with_marks({}, b0=first.groups[0])
    assert marked.records != first.records
    assert marked != first
    assert first != first.records


def _exit_cases(tmp_path):
    golden = str(DATA / "s4_s3_prefix.json")
    chain_tower = tmp_path / "a5_chain.json"
    chain_tower.write_text(serialize_system(build_wreath_tower([("A5", 5)], 2)))
    flags = ["--wilson", "--commuting-conjugates", "--strengthened", "--count-class", "C2,C3"]
    return [
        (0, ["check", golden, *flags]),
        (1, ["check", str(DATA / "cyclic2_tower.json")]),
        (2, ["check", str(tmp_path / "missing.json")]),
        (2, ["check", golden, "--no-such-flag"]),
        (3, ["check", str(chain_tower), "--wilson"]),
    ]


def test_cli_process_matches_in_process_main(tmp_path, capsys):
    for code, args in _exit_cases(tmp_path):
        json_args = [] if code == 2 else ["--json", "report.json"]
        proc = subprocess.run(
            [sys.executable, "-m", "jicert.cli", *args, *json_args],
            cwd=tmp_path,
            env={"PYTHONPATH": str(SRC)},
            capture_output=True,
            text=True,
        )
        report = tmp_path / "report.json"
        from_process = report.read_bytes() if json_args else None
        report.unlink(missing_ok=True)
        with pytest.MonkeyPatch.context() as m:
            m.chdir(tmp_path)
            try:
                in_process = main([*args, *json_args])
            except SystemExit as exc:
                in_process = exc.code
        out, err = capsys.readouterr()
        assert proc.returncode == in_process == code, args
        assert (proc.stdout, proc.stderr) == (out, err), args
        assert from_process == (report.read_bytes() if json_args else None), args
        report.unlink(missing_ok=True)


def test_run_ends_the_process_with_the_code_of_main(tmp_path):
    # run() does not return: the process ends inside it with main's code
    code = "import sys, jicert.cli as cli; cli.run(sys.argv[1:]); print('returned')"
    for expected, args in _exit_cases(tmp_path):
        proc = subprocess.run(
            [sys.executable, "-c", code, *args],
            env={"PYTHONPATH": str(SRC)},
            capture_output=True,
            text=True,
        )
        assert proc.returncode == expected, args
        assert "returned" not in proc.stdout, args


def test_closed_stdout_exits_120():
    # the read end is closed before the process starts, so its flush fails
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "jicert.cli", "check", str(DATA / "s4_s3_prefix.json")],
            env={"PYTHONPATH": str(SRC)},
            stdout=write_end,
            stderr=subprocess.PIPE,
            text=True,
        )
    finally:
        os.close(write_end)
    assert proc.returncode == 120
    assert proc.stderr.endswith("BrokenPipeError: [Errno 32] Broken pipe\n")


@pytest.mark.parametrize(
    "argv",
    [
        ["check", str(DATA / "s4_s3_prefix.json")],
        ["build-wreath", "S3:3", "--depth", "2"],
        ["lattice", str(DATA / "s4_s3_prefix.json")],
        ["build-wreath", "S3:3", "--depth", "2", "-o", "OUT"],
        ["check", str(DATA / "s4_s3_prefix.json"), "--json", "OUT"],
    ],
    ids=["check", "build-wreath", "lattice", "build-wreath-o", "check-json"],
)
def test_stdout_closed_at_start_exits_2(argv, tmp_path):
    # fd 1 is closed before the interpreter starts, so sys.stdout is None;
    # the run stops before it writes any output file
    out = tmp_path / "out.json"
    proc = subprocess.run(
        [sys.executable, "-m", "jicert.cli", *[str(out) if a == "OUT" else a for a in argv]],
        env={"PYTHONPATH": str(SRC)},
        stderr=subprocess.PIPE,
        text=True,
        preexec_fn=lambda: os.close(1),
    )
    assert (proc.returncode, proc.stderr) == (2, "error: cannot write standard output\n")
    assert not out.exists()


def test_console_script_enters_through_run():
    text = (ROOT / "pyproject.toml").read_text()
    scripts = re.search(r"^\[project\.scripts\]\n(.*?)(?:^\[|\Z)", text, re.M | re.S).group(1)
    assert scripts.strip() == 'jicert = "jicert.cli:run"'
