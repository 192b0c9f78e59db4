from __future__ import annotations

import json
import re
import shlex
import time
from pathlib import Path

import pytest

from robustpac.cli import build_parser, main


README = Path(__file__).resolve().parent.parent / "README.md"
GOLDEN = Path(__file__).resolve().parent / "golden"


def test_construct_then_dims_flow(tmp_path, capsys):
    inst_path = str(tmp_path / "inst.json")
    assert main(["construct", "vc-blowup", "--m", "3", "--out", inst_path]) == 0
    capsys.readouterr()
    assert main(["dims", inst_path]) == 0
    out = capsys.readouterr().out
    assert "vc = 1" in out
    assert "loss_vc = 3" in out


def test_dims_output_file(tmp_path, capsys):
    inst_path = str(tmp_path / "pair.json")
    main(["construct", "pair-gap", "--p", "2", "--out", inst_path])
    out_path = str(tmp_path / "dims.json")
    assert main(["dims", inst_path, "--out", out_path]) == 0
    doc = json.loads(Path(out_path).read_text())
    assert doc["disjoint_robust_shattering"]["value"] == 0
    assert doc["robust_shattering"]["value"] == 2


@pytest.mark.parametrize(
    "argv, written",
    [
        (
            ["dims", str(GOLDEN / "vc_blowup_3.json"), "--format", "csv"],
            "dimension,value,capped\nvc,1,0\ndual_vc,1,0\nloss_vc,3,0\n"
            "disjoint_robust_shattering,1,0\nrobust_shattering,1,0\n",
        ),
        (
            ["bound", "--k", "3", "--m", "50"],
            '{\n  "delta": 0.05,\n  "kind": "compression",\n  "m": 50,\n  "value": 0.3134425806348602\n}\n',
        ),
        (
            ["bound", "--sc-re", "5", "--m", "10000", "--delta", "0.1"],
            '{\n  "delta": 0.1,\n  "kind": "agnostic",\n  "m": 10000,\n  "value": 2.8571549610317244\n}\n',
        ),
    ],
    ids=["dims-csv", "bound-compression", "bound-agnostic"],
)
def test_out_files_hold_exactly_what_the_command_computed(tmp_path, capsys, argv, written):
    out = tmp_path / "out.txt"
    assert main([*argv, "--out", str(out)]) == 0
    assert capsys.readouterr().out.endswith(f"wrote {out}\n")
    assert out.read_text() == written


def test_construct_union_and_agnostic_generators(tmp_path, capsys):
    union_path = str(tmp_path / "union.json")
    assert main(["construct", "union-truncation", "--blocks", "1,2", "--out", union_path]) == 0
    capsys.readouterr()
    assert main(["dims", union_path]) == 0
    assert "vc = 1" in capsys.readouterr().out

    ag_path = str(tmp_path / "ag.json")
    assert main(
        ["construct", "agnostic-lower-bound", "--d", "2", "--alpha", "1/2", "--out", ag_path]
    ) == 0
    doc = json.loads(Path(ag_path).read_text())
    assert len(doc["distributions"]) == 4
    assert doc["distributions"][0]["atoms"][0]["p"] in {"1/8", "0.125", "3/8", "0.375"}


def test_bound_prints_the_compression_value(capsys):
    assert main(["bound", "--k", "3", "--m", "50", "--delta", "0.05"]) == 0
    out = capsys.readouterr().out.strip()
    assert out.startswith("0.3134")


def test_bound_agnostic_variant(capsys):
    assert main(["bound", "--sc-re", "5", "--m", "10000", "--delta", "0.05"]) == 0
    out = capsys.readouterr().out.strip()
    assert out.startswith("2.857")


def test_bound_requires_exactly_one_kind(capsys):
    assert main(["bound", "--m", "50"]) == 2
    err = capsys.readouterr().err
    assert "exactly one of" in err


def test_learn_subcommand_runs(tmp_path, capsys):
    inst_path = str(tmp_path / "pf.json")
    main(["construct", "proper-failure", "--m", "2", "--out", inst_path])
    out_path = str(tmp_path / "learn.json")
    assert main(["learn", inst_path, "--m", "16", "--seed", "4", "--out", out_path]) == 0
    doc = json.loads(Path(out_path).read_text())
    assert doc["empirical_robust_risk"] == 0.0
    assert doc["compression_size"] >= 1


def test_learn_needs_distributions(tmp_path, capsys):
    inst_path = str(tmp_path / "blowup.json")
    main(["construct", "vc-blowup", "--m", "2", "--out", inst_path])
    assert main(["learn", inst_path, "--m", "4"]) == 2
    assert "no distributions" in capsys.readouterr().err


def test_agnostic_subcommand_runs(tmp_path, capsys):
    inst_path = str(tmp_path / "pf.json")
    main(["construct", "proper-failure", "--m", "1", "--out", inst_path])
    assert main(["agnostic", inst_path, "--m", "8", "--seed", "2"]) == 0
    out = capsys.readouterr().out
    assert "agnostic: empirical robust risk" in out


def test_experiment_separation_is_reproducible(tmp_path, capsys):
    args = [
        "experiment", "separation", "--m", "2", "--trials", "25",
        "--budget", "16", "--seed", "7",
    ]
    assert main(args) == 0
    first = capsys.readouterr().out
    assert main(args) == 0
    second = capsys.readouterr().out
    assert first == second

    out_path = str(tmp_path / "sep.json")
    assert main(args + ["--out", out_path]) == 0
    doc = json.loads(Path(out_path).read_text())
    assert set(doc) == {"proper", "improper"}
    assert doc["proper"]["trials"] == 25


def test_experiment_csv_outputs(tmp_path):
    out_path = str(tmp_path / "sep.csv")
    args = [
        "experiment", "separation", "--m", "2", "--trials", "5",
        "--budget", "8", "--seed", "1", "--format", "csv", "--out", out_path,
    ]
    assert main(args) == 0
    proper = (tmp_path / "sep_proper.csv").read_text().splitlines()
    improper = (tmp_path / "sep_improper.csv").read_text().splitlines()
    assert proper[0] == improper[0] == "trial,risk,failed"
    assert len(proper) == 6


@pytest.mark.parametrize(
    "out, proper, improper",
    [
        ("sep.csv", "sep_proper.csv", "sep_improper.csv"),
        ("sep", "sep_proper", "sep_improper"),
        ("./sep", "./sep_proper", "./sep_improper"),
        ("res.v2/sep", "res.v2/sep_proper", "res.v2/sep_improper"),
        (".hidden", ".hidden_proper", ".hidden_improper"),
    ],
    ids=["sep.csv", "sep", "./sep", "res.v2/sep", ".hidden"],
)
def test_separation_csv_names_one_file_per_arm_by_the_last_extension(tmp_path, monkeypatch, out, proper, improper):
    # only an extension of the file name moves: dots in a directory or a leading dot stay in the stem
    monkeypatch.chdir(tmp_path)
    (tmp_path / "res.v2").mkdir()
    args = ["experiment", "separation", "--trials", "2", "--budget", "8", "--format", "csv", "--out", out]
    assert main(args) == 0
    for path in (proper, improper):
        assert (tmp_path / path).read_text().splitlines()[0] == "trial,risk,failed"
    written = {str(p.relative_to(tmp_path)) for p in tmp_path.rglob("*") if p.is_file()}
    assert written == {str(Path(proper)), str(Path(improper))}


def test_experiment_bound_check_csv(tmp_path):
    out_path = tmp_path / "bc.csv"
    args = ["experiment", "bound-check", "--trials", "4", "--seed", "5", "--format", "csv", "--out", str(out_path)]
    assert main(args) == 0
    lines = out_path.read_text().splitlines()
    assert lines[0] == "trial,risk,failed"
    assert [line.split(",")[0] for line in lines[1:]] == ["0", "1", "2", "3"]


def test_experiment_k_scaling_csv(tmp_path):
    out_path = str(tmp_path / "scaling.csv")
    args = [
        "experiment", "k-scaling", "--k-list", "1,2", "--m", "10",
        "--trials", "2", "--seed", "3", "--format", "csv", "--out", out_path,
    ]
    assert main(args) == 0
    lines = Path(out_path).read_text().splitlines()
    assert lines[0].startswith("k,trials,m")
    assert len(lines) == 3


@pytest.mark.parametrize("kind, m", [("separation", 2), ("bound-check", 50), ("k-scaling", 20)])
def test_each_experiment_kind_runs_at_its_defaults(capsys, kind, m):
    assert build_parser().parse_args(["experiment", kind]).m == m
    assert main(["experiment", kind, "--trials", "3"]) == 0
    assert "error" not in capsys.readouterr().err


def test_unknown_subcommand_exits_two(capsys):
    with pytest.raises(SystemExit) as err:
        main(["frobnicate"])
    assert err.value.code == 2


def test_threads_flag_is_gone(capsys):
    with pytest.raises(SystemExit) as err:
        main(["experiment", "separation", "--trials", "1", "--threads", "2"])
    assert err.value.code == 2
    assert "--threads" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv, flag",
    [
        (["construct", "lower-bound", "--d", "3", "--epsilon", "abc"], "--epsilon"),
        (["construct", "lower-bound", "--d", "3", "--epsilon", "1/0"], "--epsilon"),
        (["construct", "agnostic-lower-bound", "--d", "3", "--alpha", "0.5.5"], "--alpha"),
        (["construct", "union-truncation", "--blocks", "1,x"], "--blocks"),
        (["experiment", "k-scaling", "--k-list", "1,x"], "--k-list"),
        (["construct", "lower-bound", "--d", "2", "--epsilon", "1e-99999999"], "--epsilon"),
        (["construct", "lower-bound", "--d", "2", "--epsilon", "1_0/300"], "--epsilon"),
        (["construct", "agnostic-lower-bound", "--d", "2", "--alpha", "+1/2"], "--alpha"),
        (["construct", "lower-bound", "--d", "1000000", "--epsilon", "1/16"], "p=1000000"),
    ],
)
def test_malformed_flag_values_exit_two_without_a_traceback(capsys, argv, flag):
    # A flag argparse rejects is named as "argument --flag"; a value argparse
    # accepts but the generator refuses exits 2 through main with its message.
    start = time.perf_counter()
    try:
        status = main(argv)
    except SystemExit as exc:
        status = exc.code
    assert status == 2
    assert time.perf_counter() - start < 1
    stderr = capsys.readouterr().err
    if flag.startswith("--"):
        assert f"argument {flag}" in stderr
    else:
        assert stderr.startswith(f"error: {flag} exceeds the cap")
    assert "Traceback" not in stderr


@pytest.mark.parametrize(
    "argv, flag",
    [
        (["construct", "pair-gap", "--p", "2", "--m", "7"], "--m"),
        (["construct", "vc-blowup", "--m", "3", "--seed", "1"], "--seed"),
        (["dims", "inst.json", "--seed", "1"], "--seed"),
        (["learn", "inst.json", "--m", "4", "--format", "csv"], "--format"),
        (["bound", "--k", "3", "--m", "50", "--format", "csv"], "--format"),
        (["experiment", "bound-check", "--budget", "3"], "--budget"),
        (["experiment", "separation", "--k-list", "1,2"], "--k-list"),
    ],
)
def test_flags_a_command_does_not_read_are_rejected(tmp_path, monkeypatch, capsys, argv, flag):
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as err:
        main(argv)
    assert err.value.code == 2
    assert f"unrecognized arguments: {flag}" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_flags_go_after_the_experiment_kind(capsys):
    with pytest.raises(SystemExit) as err:
        main(["experiment", "--trials", "5", "separation"])
    assert err.value.code == 2


def test_every_readme_cli_line_parses():
    block = re.search(r"## CLI\n.*?```bash\n(.*?)```", README.read_text(), re.S).group(1)
    lines = [line.split("#")[0] for line in block.splitlines() if line.startswith("robustpac ")]
    assert len(lines) >= 9
    parser = build_parser()
    for line in lines:
        args = parser.parse_args(shlex.split(line)[1:])
        assert callable(args.func), line


def test_dims_negative_cap_exits_two(tmp_path, capsys):
    inst_path = str(tmp_path / "inst.json")
    assert main(["construct", "vc-blowup", "--m", "3", "--out", inst_path]) == 0
    assert main(["dims", inst_path, "--cap", "-1"]) == 2
    assert "cap must be >= 0" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv, message",
    [
        (["bound", "--sc-re", "1", "--m", "0"], "integer m >= 1"),
        (["experiment", "separation", "--trials", "1", "--seed", "-1"], "seed=-1"),
        (["experiment", "separation", "--trials", "1", "--seed", str(2**64)], f"seed={2**64}"),
        (["learn", "PF", "--m", "4", "--seed", "-1"], "seed=-1"),
        (["learn", "PF", "--m", "4", "--seed", str(2**64)], f"seed={2**64}"),
    ],
)
def test_out_of_range_numbers_exit_two_without_traceback(tmp_path, capsys, argv, message):
    path = str(tmp_path / "pf.json")
    assert main(["construct", "proper-failure", "--m", "2", "--out", path]) == 0
    capsys.readouterr()
    assert main([path if a == "PF" else a for a in argv]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err
    assert "Traceback" not in err


def test_contract_violation_exits_two_with_message(capsys):
    assert main(["construct", "vc-blowup", "--m", "99"]) == 2
    err = capsys.readouterr().err
    assert "cap" in err


@pytest.mark.parametrize("m, status", [("3", 0), ("4", 0), ("5", 2)])
def test_proper_failure_allows_m_up_to_four(tmp_path, capsys, m, status):
    path = tmp_path / "pf.json"
    assert main(["construct", "proper-failure", "--m", m, "--out", str(path)]) == status
    err = capsys.readouterr().err
    assert "Traceback" not in err
    if status:
        assert err == "error: 3m=15 exceeds the cap 12\n"
        assert not path.exists()
    else:
        assert err == ""
        assert json.loads(path.read_text())["anchors"]["anchors"] == list(range(3 * int(m)))


def test_missing_instance_file_exits_two(tmp_path, capsys):
    assert main(["dims", "/nonexistent/inst.json"]) == 2
    assert main(["dims", str(tmp_path)]) == 2  # a directory, not a file
    assert "Is a directory" in capsys.readouterr().err


def _corrupted_instance(tmp_path, name, edit):
    path = tmp_path / "pf.json"
    assert main(["construct", "proper-failure", "--m", "1", "--out", str(path)]) == 0
    text = path.read_text()
    bad = tmp_path / name
    if edit is None:
        bad.write_text(text[: len(text) // 2])
    else:
        doc = json.loads(text)
        edit(doc)
        bad.write_text(json.dumps(doc))
    return str(bad)


@pytest.mark.parametrize(
    "name, edit",
    [
        ("truncated.json", None),
        ("size.json", lambda doc: doc["space"].update(size="abc")),
        ("member.json", lambda doc: doc["family"]["members"].__setitem__(0, 5)),
        ("huge.json", lambda doc: doc["space"].update(size=float("inf"))),
        ("atom.json", lambda doc: doc["distributions"][0]["atoms"][0].pop("p")),
        ("size_float.json", lambda doc: doc["space"].update(size=6.9)),
        ("ball_float.json", lambda doc: doc["perturbations"][0].__setitem__(1, 3.5)),
        ("label_float.json", lambda doc: doc["family"]["members"][0].__setitem__(0, 1.0)),
        ("label_bool.json", lambda doc: doc["family"]["members"][0].__setitem__(0, True)),
        ("atom_point_float.json", lambda doc: doc["distributions"][0]["atoms"][0].update(point=0.7)),
        ("atom_label_float.json", lambda doc: doc["distributions"][0]["atoms"][0].update(label=-1.5)),
        ("atom_outside.json", lambda doc: doc["distributions"][0]["atoms"][0].update(point=999)),
        ("p_bool.json", lambda doc: doc["distributions"][0]["atoms"][0].update(p=True)),
        ("anchor_outside.json", lambda doc: doc["anchors"]["anchors"].append(999)),
        ("anchor_float.json", lambda doc: doc["anchors"]["anchors"].append(1.5)),
        ("anchor_string.json", lambda doc: doc["anchors"]["anchors"].append("x")),
        ("anchors_list.json", lambda doc: doc.update(anchors=[0, 1])),
        ("anchor_scalar.json", lambda doc: doc["anchors"].update(anchors=5)),
        ("metadata_list.json", lambda doc: doc.update(metadata=[0])),
    ],
)
def test_malformed_instance_file_exits_two(tmp_path, capsys, name, edit):
    path = _corrupted_instance(tmp_path, name, edit)
    capsys.readouterr()
    assert main(["dims", path]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: instance document ")
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "text, message",
    [
        ('"1e999999999"', "error: cannot parse probability '1e999999999'"),
        ("9" * 5000, "error: instance document is not valid JSON"),
    ],
    ids=["exponent-probability", "over-long-integer"],
)
def test_oversized_numbers_in_an_instance_exit_two_at_once(tmp_path, capsys, text, message):
    edit = lambda doc: doc["distributions"][0]["atoms"][0].update(p="HUGE")  # noqa: E731
    path = Path(_corrupted_instance(tmp_path, "huge_number.json", edit))
    path.write_text(path.read_text().replace('"HUGE"', text))
    capsys.readouterr()
    start = time.perf_counter()
    assert main(["dims", str(path)]) == 2
    assert time.perf_counter() - start < 1
    err = capsys.readouterr().err
    assert err.startswith(message)
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "content, message",
    [
        (b"\xff\xfe{", "error: instance document is not valid UTF-8"),
        (b"[" * 100000, "error: instance document is not valid JSON"),
    ],
    ids=["not-utf8", "too-deep"],
)
def test_an_unreadable_instance_file_exits_two(tmp_path, capsys, content, message):
    path = tmp_path / "unreadable.json"
    path.write_bytes(content)
    capsys.readouterr()
    assert main(["dims", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(message)
    assert "Traceback" not in err
