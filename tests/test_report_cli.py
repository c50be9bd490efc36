import hashlib
import json
from pathlib import Path

import pytest

from jicert import (
    CertifyOptions,
    InputFormatError,
    KernelBugError,
    PermGroup,
    SchurTable,
    build_wreath_tower,
    certify_system,
    class_from_names,
    emit_report,
    input_digest,
    make_report,
    parse_report,
    parse_system,
    revalidate_witness,
    serialize_system,
)
from jicert import cli
from jicert.cli import main

DATA = Path(__file__).parent / "data"
PREFIX_PATH = DATA / "s4_s3_prefix.json"
GOLDEN_PATH = DATA / "s4_s3_report.json"

CHECK_ARGS = [
    "check",
    str(PREFIX_PATH),
    "--wilson",
    "--commuting-conjugates",
    "--strengthened",
    "--count-class",
    "C2,C3",
]

FAILING_DOC = {
    "format": "jicert-system/1",
    "stages": [
        {"degree": 2, "generators": [[1, 0]], "a": [[1, 0]], "b0": []},
        {
            "degree": 4,
            "generators": [[1, 2, 3, 0]],
            "images": [[1, 0]],
            "a": [[2, 3, 0, 1]],
        },
    ],
}

S3_GENS = [[1, 2, 0], [1, 0, 2]]

# valid prefixes whose bottom mark b0 is the whole stage-0 group
WHOLE_GROUP_BOTTOM_DOCS = {
    "s3": {
        "format": "jicert-system/1",
        "stages": [
            {"degree": 3, "generators": S3_GENS, "a": S3_GENS, "b0": S3_GENS},
            {"degree": 3, "generators": S3_GENS, "images": S3_GENS, "a": S3_GENS},
        ],
    },
    "trivial": {
        "format": "jicert-system/1",
        "stages": [
            {"degree": 1, "generators": [[0]], "a": [[0]], "b0": [[0]]},
            {"degree": 1, "generators": [[0]], "images": [[0]], "a": [[0]]},
        ],
    },
}


def build_golden_report() -> dict:
    data = PREFIX_PATH.read_bytes()
    prefix = parse_system(data.decode())
    options = CertifyOptions(
        wilson=True,
        commuting_conjugates=True,
        strengthened=True,
        count_class=class_from_names(["C2", "C3"], SchurTable.load()),
    )
    verdict = certify_system(prefix, options)
    return make_report(
        verdict,
        digest=input_digest(data),
        orders=[g.order for g in prefix.groups],
        degrees=[g.degree for g in prefix.groups],
        options={
            "wilson": True,
            "commuting_conjugates": True,
            "strengthened": True,
            "subgroup_bound": 2000,
            "dense_bound": 2_000_000,
            "count_class": ["C2", "C3"],
        },
    )


# -- report document ------------------------------------------------------------


def test_report_key_set():
    report = build_golden_report()
    assert set(report) == {
        "format",
        "tool",
        "input",
        "options",
        "stages",
        "summary",
        "limit_claim",
        "class_factor_counts",
        "completeness",
    }
    assert report["format"] == "jicert-report/1"
    assert report["tool"] == {"name": "jicert", "version": "0.1.0"}
    assert report["input"]["stages"] == 2
    assert report["input"]["orders"] == [6, 24]
    assert report["input"]["degrees"] == [3, 4]
    assert report["completeness"] == "complete"
    assert report["class_factor_counts"]["counts"] == [2, 4]


def test_input_digest_is_prefixed_sha256():
    data = b"some prefix bytes"
    assert input_digest(data) == "sha256:" + hashlib.sha256(data).hexdigest()


def test_emit_parse_round_trip():
    report = build_golden_report()
    assert parse_report(emit_report(report)) == report


def test_emit_rejects_unknown_format():
    with pytest.raises(ValueError):
        emit_report(build_golden_report(), "yaml")


def test_parse_report_rejects_bad_input():
    with pytest.raises(InputFormatError, match="unreadable"):
        parse_report(b"{ not json")
    with pytest.raises(InputFormatError, match="format tag"):
        parse_report(json.dumps({"format": "something-else"}).encode())
    with pytest.raises(InputFormatError, match="format tag"):
        parse_report(b"[1, 2]")


def test_report_bytes_deterministic():
    first = emit_report(build_golden_report())
    second = emit_report(build_golden_report())
    assert first == second


def test_golden_report_bytes_frozen():
    assert emit_report(build_golden_report()) == GOLDEN_PATH.read_bytes()


# -- check subcommand -----------------------------------------------------------


def test_check_writes_golden_json(tmp_path, capsys):
    out = tmp_path / "report.json"
    code = main(CHECK_ARGS + ["--json", str(out)])
    capsys.readouterr()
    assert code == 0
    assert out.read_bytes() == GOLDEN_PATH.read_bytes()


def test_check_text_rendering(capsys):
    assert main(CHECK_ARGS) == 0
    out = capsys.readouterr().out
    lines = out.splitlines()
    assert lines[0] == "jicert 0.1.0 certificate report"
    assert lines[1].startswith("input: sha256:")
    assert lines[1].endswith("(2 stages)")
    assert "stage 0: order 6, degree 3" in lines
    assert "stage 1: order 24, degree 4" in lines
    assert "  critical_pair: pass (pair orders (6, 3))" in lines
    assert "class factors (C2, C3): 2, 4 (strictly increasing)" in lines
    assert "summary: all requested checks pass at every applicable stage" in lines
    assert "completeness: complete" in lines


def test_check_same_args_runs_identical(tmp_path, capsys):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert main(CHECK_ARGS + ["--json", str(a)]) == 0
    assert main(CHECK_ARGS + ["--json", str(b)]) == 0
    capsys.readouterr()
    assert a.read_bytes() == b.read_bytes()


def test_check_exit_fail(tmp_path, capsys):
    path = tmp_path / "tower.json"
    path.write_text(json.dumps(FAILING_DOC))
    code = main(["check", str(path)])
    out = capsys.readouterr().out
    assert code == 1
    assert "centralizer_product: fail" in out
    assert "witness:" in out


@pytest.mark.parametrize("doc", WHOLE_GROUP_BOTTOM_DOCS.values(), ids=WHOLE_GROUP_BOTTOM_DOCS)
def test_check_whole_group_bottom_fails(tmp_path, capsys, doc):
    path, out = tmp_path / "tower.json", tmp_path / "report.json"
    path.write_text(json.dumps(doc))
    code = main(["check", str(path), "--json", str(out)])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.err == ""
    assert "critical_pair: fail" in captured.out
    res = parse_report(out.read_bytes())["stages"][0]["checks"]["critical_pair"]
    assert res["note"] == "degenerate pair: top and bottom marks coincide"
    p = parse_system(path.read_text())
    assert revalidate_witness("critical_pair", res["witness"], g=p.groups[0], a=p.a_marks[0], b=p.b0)


def test_check_exit_bounded(tmp_path, capsys):
    out = tmp_path / "bounded.json"
    code = main(
        ["check", str(PREFIX_PATH), "--wilson", "--subgroup-bound", "2", "--json", str(out)]
    )
    text = capsys.readouterr().out
    assert code == 3
    assert "wilson_ii: bounded" in text
    report = parse_report(out.read_bytes())
    assert report["completeness"] == "bounded"
    assert report["options"]["subgroup_bound"] == 2


def test_check_exit_fail_beats_bounded(tmp_path, capsys):
    path = tmp_path / "tower.json"
    path.write_text(json.dumps(FAILING_DOC))
    code = main(["check", str(path), "--wilson", "--subgroup-bound", "1"])
    capsys.readouterr()
    assert code == 1


def test_check_missing_file(capsys):
    code = main(["check", "/no/such/prefix.json"])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error: cannot read")


def test_check_unwritable_json_is_an_input_error(tmp_path, capsys):
    out = tmp_path / "missing" / "r.json"
    code = main(["check", str(PREFIX_PATH), "--json", str(out)])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith(f"error: cannot write {out}: ")
    assert "Traceback" not in err


def test_build_unwritable_output_is_an_input_error(tmp_path, capsys):
    out = tmp_path / "missing" / "x.json"
    code = main(["build-wreath", "S3:3", "--depth", "2", "-o", str(out)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith(f"error: cannot write {out}: ")
    assert "Traceback" not in captured.err


def test_check_bad_json(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{ nope")
    code = main(["check", str(path)])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error:")


def test_check_bad_count_class(capsys):
    code = main(["check", str(PREFIX_PATH), "--count-class", "C4"])
    err = capsys.readouterr().err
    assert code == 2
    assert "bad --count-class" in err


@pytest.mark.parametrize("names", ["", ",", " , "])
def test_check_empty_count_class(names, capsys):
    code = main(["check", str(PREFIX_PATH), "--count-class", names])
    captured = capsys.readouterr()
    assert code == 2
    assert "bad --count-class" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize(
    "command, option",
    [("check", "--subgroup-bound"), ("check", "--dense-bound"), ("lattice", "--dense-bound")],
)
@pytest.mark.parametrize("value", ["-1", "-5", "ten"])
def test_bound_must_be_a_non_negative_integer(command, option, value, capsys):
    with pytest.raises(SystemExit) as exc:
        main([command, str(PREFIX_PATH), option, value])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert f"argument {option}: expected a non-negative integer, got '{value}'" in err


def test_zero_bounds_are_accepted(capsys):
    code = main(["check", str(PREFIX_PATH), "--wilson", "--subgroup-bound", "0"])
    assert code == 3
    assert "above the bound 0" in capsys.readouterr().out


# -- build-wreath subcommand ----------------------------------------------------


def test_build_wreath_to_file(tmp_path, capsys):
    out = tmp_path / "tower.json"
    code = main(["build-wreath", "S3:3", "--depth", "2", "-o", str(out)])
    stdout = capsys.readouterr().out
    assert code == 0
    assert f"wrote {out}: 2 stages, orders 6, 1296" in stdout
    prefix = parse_system(out.read_text())
    assert [g.order for g in prefix.groups] == [6, 1296]
    assert prefix.kernel(1).order == 216


def test_build_wreath_to_stdout(capsys):
    code = main(["build-wreath", "C2:2", "--depth", "1"])
    out = capsys.readouterr().out
    assert code == 0
    prefix = parse_system(out)
    assert [g.order for g in prefix.groups] == [2]


def test_build_wreath_bad_spec(capsys):
    code = main(["build-wreath", "S3", "--depth", "2"])
    err = capsys.readouterr().err
    assert code == 2
    assert "bad base spec" in err


def test_build_wreath_unknown_base(capsys):
    code = main(["build-wreath", "B7:7", "--depth", "1"])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error:")


# -- lattice subcommand ---------------------------------------------------------


def test_lattice_default_stage(capsys):
    code = main(["lattice", str(PREFIX_PATH)])
    out = capsys.readouterr().out
    assert code == 0
    assert out.splitlines() == [
        "stage 0: order 6, degree 3",
        "normal subgroup orders: 1, 3, 6",
        "minimal normal orders: 3",
        "maximal normal orders: 3",
        "critical pairs (top, bottom): (3, 1), (6, 3)",
        "chief series orders: 1, 3, 6",
        "composition factors: C2 x 1, C3 x 1",
    ]


def test_lattice_deeper_stage(capsys):
    code = main(["lattice", str(PREFIX_PATH), "--stage", "1"])
    out = capsys.readouterr().out
    assert code == 0
    assert "stage 1: order 24, degree 4" in out
    assert "normal subgroup orders: 1, 4, 12, 24" in out
    assert "critical pairs (top, bottom): (4, 1), (12, 4), (24, 12)" in out
    assert "composition factors: C2 x 3, C3 x 1" in out


def test_lattice_stage_out_of_range(capsys):
    code = main(["lattice", str(PREFIX_PATH), "--stage", "5"])
    err = capsys.readouterr().err
    assert code == 2
    assert "out of range" in err


@pytest.fixture(scope="module")
def chain_tower(tmp_path_factory):
    path = tmp_path_factory.mktemp("chain") / "a5_tower.json"
    assert main(["build-wreath", "A5:5", "--depth", "2", "-o", str(path)]) == 0
    return path


def test_check_wilson_on_chain_stage_is_bounded(chain_tower, tmp_path, capsys):
    out = tmp_path / "report.json"
    code = main(["check", str(chain_tower), "--wilson", "--json", str(out)])
    capsys.readouterr()
    assert code == 3
    report = parse_report(out.read_bytes())
    assert report["completeness"] == "bounded"
    stage0, stage1 = report["stages"]
    assert stage0["checks"]["wilson_i"]["status"] == "not-applicable"
    for name in ("wilson_i", "wilson_ii"):
        check = stage1["checks"][name]
        assert check["status"] == "bounded"
        assert "stage 1 of order 46656000000" in check["note"]
        assert "--dense-bound" in check["note"]


def test_lattice_above_the_dense_bound_is_an_input_error(chain_tower, capsys):
    # the normal lattice of a stage of order 60^6 needs its element table
    code = main(["lattice", str(chain_tower), "--stage", "1"])
    out, err = capsys.readouterr()
    assert code == 2
    assert "stage 1: order 46656000000, degree 25" in out
    assert err == "error: group order 46656000000 exceeds dense bound 2000000\n"


def test_count_class_of_p_groups_above_the_dense_bound(tmp_path, capsys):
    # a p-group's composition factors are read off its order, with no table
    path = tmp_path / "c2_tower.json"
    assert main(["build-wreath", "C2:2", "--depth", "4", "-o", str(path)]) == 0
    capsys.readouterr()
    code = main(["check", str(path), "--dense-bound", "1000", "--count-class", "C2,C3"])
    out = capsys.readouterr().out
    assert code == 0
    assert "stage 3: order 32768, degree 16" in out
    assert "class factors (C2, C3): 1, 3, 7, 15 (strictly increasing)" in out


@pytest.mark.parametrize("flag", [["--chain"], ["--dense-bound", "100"]])
def test_build_wreath_takes_no_table_options(flag, capsys):
    # building lists no element table, so there is no bound to choose
    with pytest.raises(SystemExit) as exc:
        main(["build-wreath", "S3:3", "--depth", "2", *flag])
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


@pytest.mark.parametrize("prefix_path", [PREFIX_PATH, None])
def test_check_seed_has_no_effect(prefix_path, chain_tower, tmp_path, capsys):
    """Map validation is exact, so check takes no seed and reports none."""
    path = str(prefix_path or chain_tower)
    with pytest.raises(SystemExit) as exc:
        main(["check", path, "--wilson", "--seed", "5"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --seed 5" in capsys.readouterr().err
    out = tmp_path / "report.json"
    main(["check", path, "--wilson", "--json", str(out)])
    capsys.readouterr()
    assert "seed" not in parse_report(out.read_bytes())["options"]


@pytest.mark.parametrize(
    "marked_stages,code",
    [((0, 1, 2), 1), ((1, 2), 3)],
    ids=["all-stages", "chain-stages"],
)
def test_check_pair_checks_on_chain_stage_are_bounded(tmp_path, capsys, marked_stages, code):
    prefix = build_wreath_tower([("A5", 5), ("A5", 5), ("C2", 2)], 3)
    marks = {n: prefix.groups[n] for n in marked_stages}
    b0 = PermGroup.trivial(prefix.groups[0].degree) if 0 in marked_stages else None
    path, out = tmp_path / "tower.json", tmp_path / "report.json"
    path.write_text(serialize_system(prefix.with_marks(marks, b0=b0)))
    assert main(["check", str(path), "--json", str(out)]) == code
    capsys.readouterr()
    stage0, stage1, _ = parse_report(out.read_bytes())["stages"]
    for name in ("critical_pair", "centralizer_product"):
        assert stage1["checks"][name]["status"] == "bounded"
        assert "stage 1 of order 46656000000" in stage1["checks"][name]["note"]
    if 0 in marked_stages:
        # A5 times its centralizer escapes the trivial bottom mark: a real failure
        assert stage0["checks"]["critical_pair"]["status"] == "pass"
        assert stage0["checks"]["centralizer_product"]["status"] == "fail"
    else:
        assert stage0["checks"]["critical_pair"]["status"] == "not-applicable"


def _raise_defect(*args, **kwargs):
    raise KernelBugError("cross-check failed")


@pytest.mark.parametrize(
    "target",
    ["jicert.prefixes.graph_chain", "jicert.prefixes.subgroup_generated"],
    ids=["map-validation", "mark-subgroup"],
)
def test_check_internal_defect_exits_4(monkeypatch, capsys, target):
    monkeypatch.setattr(target, _raise_defect)
    assert main(CHECK_ARGS) == 4
    assert capsys.readouterr().err == "internal error: cross-check failed\n"


def test_check_unexpected_exception_exits_4(monkeypatch, capsys):
    def boom(*args, **kwargs):
        raise RuntimeError("boom")

    monkeypatch.setattr(cli, "certify_system", boom)
    assert main(CHECK_ARGS) == 4
    err = capsys.readouterr().err
    assert err.startswith("internal error: RuntimeError: boom\n")
    assert "Traceback (most recent call last)" in err
