"""End-to-end tests of the command-line interface."""

import copy
import csv
import functools
import io
import json
import math
import operator
import os
import random
import resource
import signal
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import mtsc_bounds
from mtsc_bounds import (
    AuxSystem,
    Channel,
    JointPmf,
    SourceModel,
    __version__,
    optimize_bt_inner_sum_rate,
)
from mtsc_bounds import cli
from mtsc_bounds.cli import main

LN2 = math.log(2.0)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_version_is_single_sourced(capsys):
    with pytest.raises(SystemExit) as exit_info:
        main(["--version"])
    assert exit_info.value.code == 0
    assert capsys.readouterr().out.strip() == f"mtsc-bounds {__version__}"
    # The package metadata reads the version from __version__.
    tomllib = pytest.importorskip("tomllib")
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    project = tomllib.loads(pyproject.read_text())["project"]
    assert "version" in project["dynamic"] and "version" not in project


def test_info(capsys):
    code, out, _ = run(capsys, "info")
    assert code == 0
    assert "casebook" in out


def test_repro_targets_pass(capsys):
    for target in ("toy", "appendix-c", "appendix-e"):
        code, out, _ = run(capsys, "repro", target)
        assert code == 0, out
        assert out.strip().endswith("PASS")


def test_repro_erasure_figure(tmp_path, capsys):
    out_path = tmp_path / "curve.csv"
    code, out, _ = run(capsys, "repro", "erasure-figure", "--out", str(out_path))
    assert code == 0
    assert out.strip().endswith("PASS")
    lines = out_path.read_text().strip().splitlines()
    assert lines[0] == "D,L,sum_rate_nats"
    assert len(lines) == 1 + 4 * 1000


@pytest.mark.parametrize("target", ["toy", "appendix-c", "appendix-e"])
def test_repro_out_with_a_target_that_writes_nothing_exits_1(tmp_path, capsys, target):
    out_path = tmp_path / "missing" / "x.csv"
    for path in (str(out_path), ""):
        code, out, err = run(capsys, "repro", target, "--out", path)
        assert code == 1 and out == ""
        assert "--out" in err and "erasure-figure" in err
    assert not out_path.parent.exists()


def test_info_out_without_dump_exits_1(tmp_path, capsys):
    code, out, err = run(capsys, "info", "--out", str(tmp_path / "case"))
    assert code == 1 and out == ""
    assert "--out" in err and "--dump" in err
    assert list(tmp_path.iterdir()) == []


def test_erasure_ceo_value(capsys):
    code, out, _ = run(capsys, "erasure-ceo", "--p", "0.5", "--L", "2", "--D", "0.6")
    assert code == 0
    payload = json.loads(out)
    assert payload["sum_rate_nats"] == pytest.approx(0.656283897, abs=1e-9)


def test_erasure_ceo_bits_flag(capsys):
    _, out_nats, _ = run(capsys, "erasure-ceo", "--p", "0.5", "--L", "2", "--D", "0.6")
    _, out_bits, _ = run(
        capsys, "erasure-ceo", "--p", "0.5", "--L", "2", "--D", "0.6", "--bits"
    )
    nats = json.loads(out_nats)["sum_rate_nats"]
    bits = json.loads(out_bits)["sum_rate_bits"]
    assert bits == pytest.approx(nats / LN2, abs=1e-9)


def test_erasure_ceo_curve_csv(capsys):
    code, out, _ = run(
        capsys, "erasure-ceo", "--p", "0.5", "--L", "1,2", "--curve", "5",
        "--format", "csv",
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "D,L,sum_rate_nats"
    assert len(lines) == 11


def test_erasure_ceo_curve_starts_at_the_distortion_floor(capsys):
    # (p^L)^{1/L} rounds below p here; the floor D = p^L is in the domain.
    code, out, err = run(capsys, "erasure-ceo", "--p", "0.1", "--L", "5", "--curve", "10")
    assert code == 0, err
    rows = json.loads(out)
    assert len(rows) == 10 and rows[0]["D"] == pytest.approx(1e-5, rel=1e-9)


def test_erasure_ceo_rejects_bad_domain(capsys):
    code, _, err = run(capsys, "erasure-ceo", "--p", "0.5", "--L", "2", "--D", "0.1")
    assert code == 1
    assert "error" in err


def test_gaussian_ceo_min_sum_rate(capsys):
    code, out, _ = run(
        capsys, "gaussian-ceo", "--sigma2", "1", "--noise", "1,1", "--D", "0.5"
    )
    assert code == 0
    assert json.loads(out)["min_sum_rate_nats"] == pytest.approx(1.5 * LN2, abs=1e-8)


def test_gaussian_ceo_membership(capsys):
    common = ["gaussian-ceo", "--sigma2", "1", "--noise", "1,1", "--D", "0.5",
              "--witness", f"{0.5 * LN2},{0.5 * LN2}"]
    code, out, _ = run(capsys, *common, "--rates", f"{0.75 * LN2},{0.75 * LN2}")
    assert code == 0 and json.loads(out) == {"contains": True}
    code, out, _ = run(capsys, *common, "--rates", "0.4,0.4")
    assert code == 0 and json.loads(out) == {"contains": False}


def test_gaussian_ceo_csv_min_sum_rate(capsys):
    argv = ["gaussian-ceo", "--sigma2", "1", "--noise", "1,0.5,2", "--D", "0.5", "--format", "csv"]
    code, nats, _ = run(capsys, *argv)
    assert code == 0
    header, row = nats.splitlines()
    assert header == "sigma2,noise_vars,D,min_sum_rate_nats"
    sigma2, noise, D, rate = row.split(",")
    assert (float(sigma2), noise, float(D)) == (1.0, "1.0;0.5;2.0", 0.5)
    # The same value as the JSON output, at full precision.
    want = json.loads(run(capsys, *argv[:-2])[1])["min_sum_rate_nats"]
    assert float(rate) == pytest.approx(want, rel=1e-8)
    code, bits, _ = run(capsys, *argv, "--bits")
    assert code == 0
    header_bits, row_bits = bits.splitlines()
    assert header_bits == "sigma2,noise_vars,D,min_sum_rate_bits"
    *head_bits, rate_bits = row_bits.split(",")
    assert head_bits == [sigma2, noise, D]
    assert float(rate_bits) == float(rate) / LN2


def test_gaussian_ceo_csv_membership(capsys):
    common = ["gaussian-ceo", "--sigma2", "1", "--noise", "1,1", "--D", "0.5",
              "--witness", f"{0.5 * LN2},{0.5 * LN2}", "--format", "csv"]
    code, out, _ = run(capsys, *common, "--rates", f"{0.75 * LN2},{0.75 * LN2}")
    assert code == 0 and out == "contains\ntrue\n"
    code, out, _ = run(capsys, *common, "--rates", "0.4,0.4")
    assert code == 0 and out == "contains\nfalse\n"


@pytest.mark.parametrize(
    "argv, named",
    [
        (["--sigma2", "nan", "--noise", "1,2", "--D", "0.5"], "sigma2"),
        (["--sigma2", "1", "--noise", "1,inf", "--D", "0.5"], "noise variance"),
        (["--sigma2", "1", "--noise", "1,1", "--D", "nan"], "D must be a number"),
        (["--sigma2", "1", "--noise", "1,1", "--D", "0.5", "--witness", "nan,0",
          "--rates", "1,1"], "witness"),
        (["--sigma2", "1", "--noise", "1,1", "--D", "nan", "--witness", "0.3,0.3",
          "--rates", "0,0"], "D > 0"),
        (["--sigma2", "1", "--noise", "1,1", "--D", "inf"], "D must be a number"),
        (["--sigma2", "1", "--noise", "1,1", "--D=-inf"], "D must be a number"),
        (["--sigma2", "1", "--noise", "1,1", "--D", "inf", "--witness", "0.3,0.3",
          "--rates", "0.8,0.8"], "D > 0"),
    ],
)
def test_gaussian_ceo_rejects_nan(capsys, argv, named):
    code, out, err = run(capsys, "gaussian-ceo", *argv)
    assert code == 1 and out == ""
    assert named in err


def test_bounds_round_trip_through_files(tmp_path, capsys):
    prefix = str(tmp_path / "erasure")
    code, _, _ = run(
        capsys, "info", "--dump", "erasure", "--out", prefix,
        "--p", "0.5", "--L", "2", "--D", "0.6",
    )
    assert code == 0
    code, out, _ = run(
        capsys, "bounds",
        "--model", prefix + ".model.json",
        "--gamma", prefix + ".gamma.json",
        "--x", prefix + ".x.json",
        "--kind", "new-outer",
    )
    assert code == 0
    payload = json.loads(out)
    full = [row for row in payload["bounds"] if row["A"] == "0b11"][0]
    assert full["bound_nats"] == pytest.approx(0.656283897, abs=1e-9)
    assert payload["distortions"][0] == pytest.approx(0.6, abs=1e-9)


def test_bounds_markov_failure_exits_2(tmp_path, capsys):
    prefix = str(tmp_path / "appc")
    run(capsys, "info", "--dump", "appendix_c", "--out", prefix)
    code, _, err = run(
        capsys, "bounds",
        "--model", prefix + ".model.json",
        "--gamma", prefix + ".gamma.json",
        "--kind", "bt-inner",
    )
    assert code == 2
    assert "residual" in err


def test_bounds_csv_format(tmp_path, capsys):
    prefix = str(tmp_path / "toybt")
    run(capsys, "info", "--dump", "toy_bt_gamma", "--out", prefix)
    code, out, _ = run(
        capsys, "bounds",
        "--model", prefix + ".model.json",
        "--gamma", prefix + ".gamma.json",
        "--kind", "bt-inner",
        "--format", "csv",
    )
    assert code == 0
    assert out.splitlines()[0] == "subset,bound"



def test_bounds_csv_bits_are_labelled_bits(tmp_path, capsys):
    prefix = str(tmp_path / "erasure")
    run(capsys, "info", "--dump", "erasure", "--L", "3", "--out", prefix)
    argv = ["bounds", "--model", prefix + ".model.json", "--gamma", prefix + ".gamma.json",
            "--x", prefix + ".x.json", "--kind", "new-outer", "--format", "csv"]
    _, nats, _ = run(capsys, *argv)
    code, bits, _ = run(capsys, *argv, "--bits")
    assert code == 0
    nats, bits = nats.splitlines(), bits.splitlines()
    assert nats[0] == "subset,bound" and bits[0] == "subset,bound_bits"
    assert len(bits) == len(nats) == 8
    for row_nats, row_bits in zip(nats[1:], bits[1:]):
        (subset, value), (subset_bits, value_bits) = row_nats.split(","), row_bits.split(",")
        assert subset_bits == subset
        assert float(value_bits) == float(value) / LN2


@pytest.mark.parametrize("mode", [["--D", "0.6"], ["--curve", "4"]])
def test_erasure_ceo_csv_bits_are_labelled_bits(capsys, mode):
    argv = ["erasure-ceo", "--p", "0.5", "--L", "2", *mode, "--format", "csv"]
    _, nats, _ = run(capsys, *argv)
    code, bits, _ = run(capsys, *argv, "--bits")
    assert code == 0
    nats, bits = nats.splitlines(), bits.splitlines()
    assert nats[0] == "D,L,sum_rate_nats" and bits[0] == "D,L,sum_rate_bits"
    assert len(bits) == len(nats) == (2 if mode[0] == "--D" else 5)
    for row_nats, row_bits in zip(nats[1:], bits[1:]):
        *head, value = row_nats.split(",")
        *head_bits, value_bits = row_bits.split(",")
        assert head_bits == head
        assert float(value_bits) == float(value) / LN2


def test_erasure_ceo_curve_json_bits(capsys):
    argv = ["erasure-ceo", "--p", "0.5", "--L", "2", "--curve", "4"]
    nats = json.loads(run(capsys, *argv)[1])
    bits = json.loads(run(capsys, *argv, "--bits")[1])
    assert [set(row) for row in bits] == [{"D", "L", "sum_rate_bits"}] * 4
    for row_nats, row_bits in zip(nats, bits):
        assert row_bits["sum_rate_bits"] == pytest.approx(row_nats["sum_rate_nats"] / LN2, abs=1e-8)

def test_malformed_json_exits_1_with_location(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"variables": [,]}')
    code, _, err = run(
        capsys, "bounds", "--model", str(bad), "--gamma", str(bad), "--kind", "bt-inner"
    )
    assert code == 1
    assert "line 1" in err and "column" in err


def test_missing_file_exits_1(capsys):
    code, _, err = run(
        capsys, "bounds", "--model", "/nonexistent.json",
        "--gamma", "/nonexistent.json", "--kind", "bt-inner",
    )
    assert code == 1
    assert "error" in err


def test_usage_error_exits_1(capsys):
    code, _, err = run(capsys, "bounds", "--kind", "bt-inner")
    assert code == 1


def test_optimize_deterministic_output(tmp_path, capsys):
    prefix = str(tmp_path / "er")
    run(capsys, "info", "--dump", "erasure", "--out", prefix,
        "--p", "0.5", "--L", "2", "--D", "0.6")
    args = [
        "optimize", "--model", prefix + ".model.json", "--caps", "0.6",
        "--cardinalities", "3,3", "--budget", "1500", "--seed", "4",
    ]
    code1, out1, _ = run(capsys, *args)
    code2, out2, _ = run(capsys, *args)
    assert code1 == code2 == 0
    assert out1 == out2
    payload = json.loads(out1)
    assert payload["feasible"] is True
    assert payload["sum_rate_nats"] <= 0.68


def test_numeric_output_has_nine_significant_digits(capsys):
    _, out, _ = run(capsys, "erasure-ceo", "--p", "0.5", "--L", "2", "--D", "0.6")
    assert "0.656283897" in out


def test_model_without_joint_field_exits_1(tmp_path, capsys):
    bad = tmp_path / "model.json"
    bad.write_text(json.dumps({"L": 2, "K": 1}))
    code, _, err = run(
        capsys, "bounds", "--model", str(bad), "--gamma", str(bad), "--kind", "bt-inner"
    )
    assert code == 1
    assert "'joint'" in err


def test_top_level_json_list_exits_1(tmp_path, capsys):
    bad = tmp_path / "model.json"
    bad.write_text("[1, 2, 3]")
    code, _, err = run(
        capsys, "optimize", "--model", str(bad), "--caps", "0.6",
        "--cardinalities", "3,3", "--budget", "100", "--seed", "1",
    )
    assert code == 1
    assert "JSON object" in err and "list" in err


def test_optimize_csv_without_a_feasible_system_is_a_header(tmp_path, capsys):
    # No system meets D = 0.1 on the L = 2 erasure model within 50 evaluations:
    # the CSV has its header and no rows, and the search's message goes to stderr.
    prefix = str(tmp_path / "er")
    run(capsys, "info", "--dump", "erasure", "--out", prefix,
        "--p", "0.5", "--L", "2", "--D", "0.6")
    code, out, err = run(
        capsys, "optimize", "--model", prefix + ".model.json", "--caps", "0.1",
        "--cardinalities", "3,3", "--budget", "50", "--seed", "1", "--format", "csv",
    )
    assert code == 0
    reader = csv.DictReader(io.StringIO(out))
    assert list(reader) == []
    assert reader.fieldnames == ["subset", "bound"]
    assert "no system met caps (0.1,) within budget 50" in err


def test_bounds_over_the_table_cap_exit_1(tmp_path, capsys):
    # The erasure system at L = 8 with a uniform binary W that the encoders
    # ignore: with W not trivial the Berger-Tung lattice table keeps its
    # V = Y axis, over all 3^8 observation tuples, so it would have 9^8
    # cells.  Run as a process, so that stderr shows whatever escapes main.
    prefix = str(tmp_path / "er")
    run(capsys, "info", "--dump", "erasure", "--out", prefix,
        "--p", "0.5", "--L", "8", "--D", "0.3")
    gamma = mtsc_bounds.casebook("erasure", p=0.5, L=8, D=0.3).gamma
    encoders = tuple(
        Channel((k.inputs[0], ("W", 2), ("T", 1)), k.output, np.repeat(k.rows, 2, axis=0))
        for k in gamma.encoder_kernels
    )
    wt = JointPmf((("W", 2), ("T", 1)), np.array([0.5, 0.5]))
    Path(prefix + ".gamma.json").write_text(
        json.dumps(AuxSystem(wt, encoders, gamma.decoder_kernel).to_json())
    )
    src = os.path.dirname(os.path.dirname(os.path.abspath(mtsc_bounds.__file__)))
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    for kind in ("bt-inner", "bt-outer"):
        done = subprocess.run(
            [sys.executable, "-m", "mtsc_bounds.cli", "bounds", "--model", prefix + ".model.json",
             "--gamma", prefix + ".gamma.json", "--kind", kind],
            env=dict(os.environ, PYTHONPATH=path), capture_output=True, text=True,
        )
        assert done.returncode == 1, (kind, done.stderr)
        assert "43,046,721 cells" in done.stderr and "cap of 33,554,432" in done.stderr
        assert "Traceback" not in done.stderr


def test_optimize_json_is_in_full_precision(tmp_path, capsys):
    # Above 1 nat, 9 significant digits would move the sum rate by up to 5e-9,
    # more than the 1e-9 a result may sit below the closed form.
    prefix = str(tmp_path / "er")
    run(capsys, "info", "--dump", "erasure", "--out", prefix,
        "--p", "0.5", "--L", "3", "--D", "0.6")
    code, out, _ = run(
        capsys, "optimize", "--model", prefix + ".model.json", "--caps", "0.4",
        "--cardinalities", "3,3,3", "--budget", "1000", "--seed", "1",
    )
    model = SourceModel.from_json(json.loads(Path(prefix + ".model.json").read_text()))
    result = optimize_bt_inner_sum_rate(model, [0.4], [3, 3, 3], budget=1000, seed=1)
    assert code == 0 and result.sum_rate > 1.0
    assert float(f"{result.sum_rate:.9g}") != result.sum_rate
    assert json.loads(out)["sum_rate_nats"] == result.sum_rate


def test_bounds_json_is_in_full_precision(tmp_path, capsys):
    prefix = str(tmp_path / "er")
    run(capsys, "info", "--dump", "erasure", "--out", prefix,
        "--p", "0.5", "--L", "3", "--D", "0.6")
    code, out, _ = run(
        capsys, "bounds", "--model", prefix + ".model.json", "--gamma", prefix + ".gamma.json",
        "--x", prefix + ".x.json", "--kind", "new-outer", "--format", "json",
    )
    model, gamma, x = (
        cls.from_json(json.loads(Path(prefix + suffix).read_text()))
        for cls, suffix in ((SourceModel, ".model.json"), (AuxSystem, ".gamma.json"),
                            (mtsc_bounds.XChannel, ".x.json"))
    )
    want = mtsc_bounds.new_outer_constraints(model, x, gamma)
    assert code == 0 and float(f"{want.full_set:.9g}") != want.full_set
    rows = {row["A"]: row["bound_nats"] for row in json.loads(out)["bounds"]}
    assert rows["0b111"] == want.full_set
    assert json.loads(out) == want.to_json()


def test_erasure_ceo_json_is_in_full_precision(capsys):
    want = mtsc_bounds.erasure_sum_rate(mtsc_bounds.ErasureParams(0.5, 2, 0.6))
    assert float(f"{want:.9g}") != want
    code, out, _ = run(capsys, "erasure-ceo", "--p", "0.5", "--L", "2", "--D", "0.6")
    assert code == 0 and json.loads(out)["sum_rate_nats"] == want
    code, out, _ = run(capsys, "erasure-ceo", "--p", "0.5", "--L", "2,3", "--curve", "7")
    rows = [(row["D"], row["L"], row["sum_rate_nats"]) for row in json.loads(out)]
    assert code == 0 and rows == mtsc_bounds.sum_rate_curve(0.5, (2, 3), 7)


def test_gaussian_ceo_json_is_in_full_precision(capsys):
    params = mtsc_bounds.GaussianParams(1.0, (1.0, 0.5, 2.0))
    want = mtsc_bounds.gaussian_min_sum_rate(params, 0.45)
    assert float(f"{want:.9g}") != want
    code, out, _ = run(capsys, "gaussian-ceo", "--sigma2", "1", "--noise", "1,0.5,2", "--D", "0.45")
    assert code == 0 and json.loads(out)["min_sum_rate_nats"] == want


@pytest.mark.parametrize("mode", [["--curve", "3"], ["--curve", "3", "--format", "csv"], ["--D", "0.6"]])
@pytest.mark.parametrize("encoders", [",", ""])
def test_erasure_ceo_without_encoder_counts_exits_1(capsys, mode, encoders):
    code, out, err = run(capsys, "erasure-ceo", "--p", "0.5", "--L", encoders, *mode)
    assert code == 1 and out == ""
    assert "--L needs at least one encoder count" in err


def test_optimize_beyond_the_encoder_limit_exits_1(tmp_path, capsys):
    # The search's forward table over (side, c, U_1..U_10) has 1 + |Z| = 4
    # channels: 4 * 6^10 cells for |U_l| = 6.
    prefix = str(tmp_path / "er")
    run(capsys, "info", "--dump", "erasure", "--out", prefix,
        "--p", "0.5", "--L", "10", "--D", "0.6")
    code, _, err = run(
        capsys, "optimize", "--model", prefix + ".model.json", "--caps", "0.6",
        "--cardinalities", ",".join(["6"] * 10), "--budget", "100", "--seed", "1",
    )
    assert code == 1
    assert "search's forward table would have 241,864,704 cells" in err
    assert "cap of 33,554,432" in err and "Traceback" not in err


def run_process(*argv, **kwargs):
    """The CLI as a process, so that stderr shows whatever escapes main;
    ``kwargs`` go to ``subprocess.run``."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(mtsc_bounds.__file__)))
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    return subprocess.run(
        [sys.executable, "-m", "mtsc_bounds.cli", *argv],
        env=dict(os.environ, PYTHONPATH=path), capture_output=True, text=True, **kwargs,
    )


def test_integer_field_too_large_exits_1(tmp_path):
    inst = mtsc_bounds.casebook("erasure", p=0.5, L=2, D=0.6)
    model = json.dumps(inst.model.to_json())
    path = tmp_path / "model.json"
    (tmp_path / "gamma.json").write_text(json.dumps(inst.gamma.to_json()))
    for field, bad in (
        # JSON reads 1e400 as an infinite float, which no integer holds.
        ('"reproduction_sizes": [3]', '"reproduction_sizes": [1e400]'),
        ('"L": 2', '"L": NaN'),
        ('"probs": [', '"probs": ["half", '),
    ):
        assert field in model
        path.write_text(model.replace(field, bad, 1))
        done = run_process("bounds", "--model", str(path), "--gamma", str(tmp_path / "gamma.json"),
                           "--kind", "bt-inner")
        assert done.returncode == 1, (bad, done.stderr)
        assert f"{path}: malformed SourceModel" in done.stderr and "Traceback" not in done.stderr


def test_erasure_casebook_over_the_table_cap_exits_1(tmp_path):
    # 2 * 3^17 * 3 distortion cells, refused before anything is built.
    done = run_process("info", "--dump", "erasure", "--L", "17", "--out", str(tmp_path / "er"))
    assert done.returncode == 1, done.stderr
    assert "distortion table would have 774,840,978 cells" in done.stderr
    assert "cap of 33,554,432" in done.stderr and "Traceback" not in done.stderr


@pytest.mark.parametrize("L", ["0", "-1"])
def test_erasure_casebook_with_no_encoder_names_L(tmp_path, capsys, L):
    out = tmp_path / "er"
    code, _, err = run(capsys, "info", "--dump", "erasure", "--L", L, "--out", str(out))
    assert code == 1
    assert f"need L >= 1, got L={L}" in err and "p^L" not in err
    assert not list(tmp_path.iterdir())


def test_optimize_nan_caps_exit_1(tmp_path, capsys):
    prefix = str(tmp_path / "er")
    run(capsys, "info", "--dump", "erasure", "--out", prefix,
        "--p", "0.5", "--L", "2", "--D", "0.6")
    code, out, err = run(
        capsys, "optimize", "--model", prefix + ".model.json", "--caps", "nan",
        "--cardinalities", "3,3", "--budget", "200", "--seed", "1",
    )
    assert code == 1 and out == ""
    assert "distortion caps, none NaN" in err


def test_optimize_negative_seed_exits_1(tmp_path, capsys):
    prefix = str(tmp_path / "er")
    run(capsys, "info", "--dump", "erasure", "--out", prefix,
        "--p", "0.5", "--L", "2", "--D", "0.6")
    code, out, err = run(
        capsys, "optimize", "--model", prefix + ".model.json", "--caps", "0.6",
        "--cardinalities", "3,3", "--budget", "200", "--seed", "-1",
    )
    assert code == 1 and out == ""
    assert "seed must be a non-negative integer, got -1" in err


def test_bounds_and_optimize_over_the_support_cap_exit_1(tmp_path):
    # The erasure system at L = 10 with every encoder mixed with the uniform
    # kernel at 1e-3: a support of 2 * 6^10 cells.  The optimizer's result
    # has no zero encoder entry after two evaluations either.
    inst = mtsc_bounds.casebook("erasure", p=0.5, L=10, D=0.3)
    encoders = tuple(
        Channel(k.inputs, k.output, (1 - 1e-3) * k.rows + 1e-3 / 3)
        for k in inst.gamma.encoder_kernels
    )
    gamma = AuxSystem(inst.gamma.wt_pmf, encoders, inst.gamma.decoder_kernel)
    model_path, gamma_path = str(tmp_path / "model.json"), str(tmp_path / "gamma.json")
    Path(model_path).write_text(json.dumps(inst.model.to_json()))
    Path(gamma_path).write_text(json.dumps(gamma.to_json()))
    for argv in (
        ("bounds", "--model", model_path, "--gamma", gamma_path, "--kind", "bt-inner"),
        ("optimize", "--model", model_path, "--caps", "0.6", "--cardinalities",
         ",".join(["3"] * 10), "--budget", "2", "--seed", "1"),
    ):
        done = run_process(*argv)
        assert done.returncode == 1, (argv[0], done.stderr)
        assert "120,932,352 cells" in done.stderr and "cap of 33,554,432" in done.stderr
        assert "Traceback" not in done.stderr


OUT_ARGV = {
    "info": ("info",),
    "bounds": ("bounds", "--model", "{prefix}.model.json", "--gamma", "{prefix}.gamma.json",
               "--kind", "bt-outer"),
    "erasure-ceo": ("erasure-ceo", "--p", "0.5", "--L", "2", "--D", "0.6"),
    "gaussian-ceo": ("gaussian-ceo", "--sigma2", "1", "--noise", "1,1", "--D", "0.5"),
    "repro": ("repro", "erasure-figure"),
    "optimize": ("optimize", "--model", "{prefix}.model.json", "--caps", "0.6",
                 "--cardinalities", "3,3", "--budget", "50", "--seed", "1"),
}


@pytest.mark.parametrize("command", list(OUT_ARGV))
def test_empty_out_exits_1(tmp_path, capsys, command):
    prefix = str(tmp_path / "er")
    run(capsys, "info", "--dump", "erasure", "--out", prefix, "--p", "0.5", "--L", "2", "--D", "0.6")
    code, out, err = run(capsys, *(a.format(prefix=prefix) for a in OUT_ARGV[command]), "--out", "")
    assert code == 1 and out == ""
    assert "--out" in err
    assert sorted(os.listdir(tmp_path)) == ["er.gamma.json", "er.model.json", "er.x.json"]


def erasure_files():
    inst = mtsc_bounds.casebook("erasure", p=0.5, L=2, D=0.6)
    return json.dumps(inst.model.to_json()), json.dumps(inst.gamma.to_json())


def bounds_on(tmp_path, model, gamma, **kwargs):
    (tmp_path / "model.json").write_text(model)
    (tmp_path / "gamma.json").write_text(gamma)
    return run_process("bounds", "--model", str(tmp_path / "model.json"),
                       "--gamma", str(tmp_path / "gamma.json"), "--kind", "bt-inner", **kwargs)


def test_model_file_with_no_reproduction_sizes_exits_1(tmp_path):
    model, gamma = erasure_files()
    field = '"reproduction_sizes": [3]'
    assert field in model
    done = bounds_on(tmp_path, model.replace(field, '"reproduction_sizes": []'), gamma)
    assert done.returncode == 1, done.stderr
    assert "reproduction_sizes needs 1 entries, got 0" in done.stderr
    assert "Traceback" not in done.stderr


def cap_address_space():
    resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))


def test_model_file_with_a_huge_L_exits_1_at_once(tmp_path):
    # L is compared with the joint's variable count before any name is built
    # from it.  The process is capped at 1 GiB and 60 s, so a build of 10^9
    # names fails rather than filling the host's memory.
    model, gamma = erasure_files()
    assert '"L": 2' in model
    done = bounds_on(tmp_path, model.replace('"L": 2', '"L": 1e9', 1), gamma,
                     timeout=60, preexec_fn=cap_address_space)
    assert done.returncode == 1, done.stderr
    assert "must cover exactly Y0..Y1000000001 for L=1000000000" in done.stderr
    assert "Traceback" not in done.stderr


@pytest.mark.parametrize("L", ["10000000", "1000000000"])
def test_info_dump_with_a_huge_L_exits_1_at_once(tmp_path, L):
    # The erasure casebook compares L with the largest L the table cap
    # admits before any power of 3 is taken; 3^(10^9) has 477 M digits.
    done = run_process("info", "--dump", "erasure", "--out", str(tmp_path / "er"), "--L", L,
                       timeout=60, preexec_fn=cap_address_space)
    assert done.returncode == 1, done.stderr
    assert f"at L = {int(L):,}, over the cap of 33,554,432; L must be at most 14" in done.stderr
    assert "Traceback" not in done.stderr


@pytest.mark.parametrize(
    "in_gamma, field, bad, named",
    [
        (False, '"L": 2', '"L": 2.5', "L must be an integer, got 2.5"),
        (False, '"K": 1', '"K": 1.5', "K must be an integer, got 1.5"),
        (False, '"reproduction_sizes": [3]', '"reproduction_sizes": [3.5]',
         "reproduction_sizes must be an integer, got 3.5"),
        (False, '{"name": "Y0", "size": 2}', '{"name": "Y0", "size": 2.5}',
         "alphabet size of 'Y0' must be an integer, got 2.5"),
        (True, '"output": {"name": "U1", "size": 3}', '"output": {"name": "U1", "size": 3.5}',
         "alphabet size of 'U1' must be an integer, got 3.5"),
    ],
)
def test_non_integral_field_exits_1_naming_it(tmp_path, in_gamma, field, bad, named):
    files = list(erasure_files())
    assert field in files[in_gamma]
    files[in_gamma] = files[in_gamma].replace(field, bad, 1)
    done = bounds_on(tmp_path, *files)
    assert done.returncode == 1, (bad, done.stderr)
    assert named in done.stderr and "Traceback" not in done.stderr


# A flag fuzz of the closed-form subcommands: one flag at a time is
# set to a value at or past the ends of the float range, or to malformed
# text.  Each case must exit 0 with finite, parseable output, or exit 1 with
# an ``error:`` line that names the problem.
FUZZ_BASES = {
    "gaussian-sum": ("gaussian-ceo", {"--sigma2": "1", "--noise": "1,0.5,2", "--D": "0.5"}),
    "gaussian-member": ("gaussian-ceo", {"--sigma2": "1", "--noise": "1,1", "--D": "0.5",
                                         "--witness": "0.3,0.3", "--rates": "0.8,0.8"}),
    "erasure-D": ("erasure-ceo", {"--p": "0.5", "--L": "2", "--D": "0.6"}),
    "erasure-curve": ("erasure-ceo", {"--p": "0.5", "--L": "1,2", "--curve": "5"}),
}
FUZZ_VALUES = ("nan", "inf", "-inf", "0", "-1", "1e308", "-1e308", "1e-308", "5e-324",
               "1000000000", "100000000000000000000000", "", ",", "x", "1,,2")


def _refuse_constant(name):
    raise ValueError(f"non-JSON constant {name}")


def _assert_finite_csv(text):
    for row in list(csv.reader(io.StringIO(text)))[1:]:
        for field in row:
            for part in field.split(";"):
                if part not in ("true", "false"):
                    assert math.isfinite(float(part)), text


@pytest.mark.parametrize("base", list(FUZZ_BASES))
@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_closed_form_flag_fuzz(capsys, base, fmt):
    command, flags = FUZZ_BASES[base]
    for flag in flags:
        for value in FUZZ_VALUES:
            argv = [command, *(f"{f}={value if f == flag else v}" for f, v in flags.items()),
                    "--format", fmt]
            code, out, err = run(capsys, *argv)
            assert code in (0, 1), (argv, code, err)
            assert "Traceback" not in out + err, argv
            if code == 1:
                assert "error:" in err and "math domain error" not in err, (argv, err)
            elif fmt == "json":
                json.loads(out, parse_constant=_refuse_constant)
            else:
                _assert_finite_csv(out)


# The same fuzz of the numeric and list flags of info and optimize, each run
# under the file mutator's alarm.  An encoder count that info would build a
# casebook from runs in a process capped at 1 GiB instead: an alarm does not
# interrupt a power of 3 being taken.
FLAG_FUZZ = {
    "info": {"--p": "0.5", "--L": "2", "--D": "0.6", "--lam": "1e6"},
    "optimize": {"--caps": "0.6", "--cardinalities": "3,3", "--budget": "20", "--seed": "1"},
}


def builds_by_L(flag, value):
    return flag == "--L" and value.isdigit() and int(value) > 0


@pytest.mark.parametrize("command", list(FLAG_FUZZ))
def test_info_and_optimize_flag_fuzz(tmp_path, capsys, command):
    prefix = str(tmp_path / "er")
    assert run(capsys, "info", "--dump", "erasure", "--out", prefix)[0] == 0
    fixed = {"info": ("--dump", "erasure", "--out", prefix + ".fuzz"),
             "optimize": ("--model", prefix + ".model.json")}[command]
    flags = FLAG_FUZZ[command]
    previous = signal.signal(signal.SIGALRM, raise_hung)
    try:
        for flag in flags:
            for value in FUZZ_VALUES:
                argv = [command, *fixed, *(f"{f}={value if f == flag else v}" for f, v in flags.items())]
                if builds_by_L(flag, value):
                    done = run_process(*argv, timeout=60, preexec_fn=cap_address_space)
                    code, out, err = done.returncode, done.stdout, done.stderr
                else:
                    signal.setitimer(signal.ITIMER_REAL, 2.0)
                    try:
                        code, out, err = run(capsys, *argv)
                    except Exception as exc:
                        pytest.fail(f"{exc!r} escaped main on {argv}")
                    finally:
                        signal.setitimer(signal.ITIMER_REAL, 0)
                assert code in (0, 1), (argv, code, err)
                assert "Traceback" not in out + err, argv
                if code == 1:
                    assert "error:" in err and "math domain error" not in err, (argv, err)
                elif command == "optimize":
                    json.loads(out, parse_constant=_refuse_constant)
    finally:
        signal.signal(signal.SIGALRM, previous)


def test_sum_rate_curve_over_the_table_cap_exits_1_at_once():
    # 10^9 grid points would ask numpy for 7.45 GiB; the process is capped at
    # 1 GiB, so only a refusal before any grid is built exits cleanly.
    done = run_process("erasure-ceo", "--p", "0.5", "--L", "2", "--curve", "1000000000",
                       timeout=60, preexec_fn=cap_address_space)
    assert done.returncode == 1, done.stderr
    assert "sum-rate curve would have 1,000,000,000 cells" in done.stderr
    assert "cap of 33,554,432" in done.stderr and "Traceback" not in done.stderr


# Every subcommand that writes JSON or CSV gives the same values in both,
# bit for bit, and --out FILE holds the bytes it would print to stdout.


def hexed(value):
    return float(value).hex()


def both_formats(capsys, tmp_path, *argv):
    """The JSON payload and the CSV table (header first) of one invocation."""
    texts = {}
    for fmt in ("json", "csv"):
        code, out, err = run(capsys, *argv, "--format", fmt)
        assert code == 0, err
        path = tmp_path / f"written.{fmt}"
        assert run(capsys, *argv, "--format", fmt, "--out", str(path))[:2] == (0, "")
        text = path.read_text()
        # stdout alone gets a final newline when the text lacks one.
        assert out == (text if text.endswith("\n") else text + "\n")
        texts[fmt] = text
    return json.loads(texts["json"]), list(csv.reader(io.StringIO(texts["csv"])))


def bits_flag(bits):
    return ("--bits",) if bits else ()


@pytest.mark.parametrize("kind", ["bt-inner", "bt-outer", "new-outer"])
@pytest.mark.parametrize("bits", [False, True])
def test_bounds_json_and_csv_agree_bit_for_bit(tmp_path, capsys, kind, bits):
    prefix = str(tmp_path / "er")
    run(capsys, "info", "--dump", "erasure", "--out", prefix, "--p", "0.5", "--L", "3", "--D", "0.3")
    payload, table = both_formats(
        capsys, tmp_path, "bounds", "--model", prefix + ".model.json", "--gamma",
        prefix + ".gamma.json", "--x", prefix + ".x.json", "--kind", kind, *bits_flag(bits))
    key = "bound_bits" if bits else "bound_nats"
    assert table[0] == ["subset", "bound_bits" if bits else "bound"]
    assert len(table) == 1 + 7
    assert [[row["A"], hexed(row[key])] for row in payload["bounds"]] == [
        [label, hexed(value)] for label, value in table[1:]]


@pytest.mark.parametrize("mode", [("--L", "3", "--D", "0.4"), ("--L", "1,2,5", "--curve", "7")])
@pytest.mark.parametrize("bits", [False, True])
def test_erasure_ceo_json_and_csv_agree_bit_for_bit(tmp_path, capsys, mode, bits):
    payload, table = both_formats(capsys, tmp_path, "erasure-ceo", "--p", "0.3", *mode, *bits_flag(bits))
    key = "sum_rate_bits" if bits else "sum_rate_nats"
    assert table[0] == ["D", "L", key]
    records = payload if isinstance(payload, list) else [payload]
    assert len(records) == (21 if "--curve" in mode else 1)
    assert [[hexed(r["D"]), str(r["L"]), hexed(r[key])] for r in records] == [
        [hexed(D), L, hexed(rate)] for D, L, rate in table[1:]]


@pytest.mark.parametrize("bits", [False, True])
def test_gaussian_ceo_json_and_csv_agree_bit_for_bit(tmp_path, capsys, bits):
    payload, table = both_formats(capsys, tmp_path, "gaussian-ceo", "--sigma2", "1.3",
                                  "--noise", "1,0.5,2", "--D", "0.4", *bits_flag(bits))
    assert table[0] == list(payload) and len(table) == 2
    sigma2, noise, D, rate = table[1]
    assert [hexed(v) for v in noise.split(";")] == [hexed(v) for v in payload["noise_vars"]]
    key = table[0][3]
    assert key == ("min_sum_rate_bits" if bits else "min_sum_rate_nats")
    assert [hexed(sigma2), hexed(D), hexed(rate)] == [
        hexed(payload["sigma2"]), hexed(payload["D"]), hexed(payload[key])]
    for rates, contains in (("0.52,0.52", True), ("0.1,0.1", False)):
        payload, table = both_formats(capsys, tmp_path, "gaussian-ceo", "--sigma2", "1", "--noise", "1,1",
                                      "--D", "0.5", "--witness", "0.3466,0.3466", "--rates", rates,
                                      *bits_flag(bits))
        assert payload == {"contains": contains}
        assert table == [["contains"], [json.dumps(contains)]]


@pytest.mark.parametrize("caps, feasible", [("0.6", True), ("0.01", False)])
def test_optimize_json_and_csv_agree_bit_for_bit(tmp_path, capsys, caps, feasible):
    prefix = str(tmp_path / "er")
    run(capsys, "info", "--dump", "erasure", "--out", prefix, "--p", "0.5", "--L", "2", "--D", "0.6")
    payload, table = both_formats(capsys, tmp_path, "optimize", "--model", prefix + ".model.json",
                                  "--caps", caps, "--cardinalities", "3,3", "--budget", "60",
                                  "--seed", "3")
    assert payload["feasible"] is feasible and table[0] == ["subset", "bound"]
    bounds = payload["constraints"]["bounds"] if feasible else []
    assert (payload["constraints"] is not None) is feasible and len(table) == 1 + len(bounds)
    assert [[row["A"], hexed(row["bound_nats"])] for row in bounds] == [
        [label, hexed(value)] for label, value in table[1:]]


# main parses with one parser per process, built on first use; each parse
# makes a fresh Namespace.  A run of calls through it gives the same exit
# codes and bytes as the same calls through a fresh parser each.


@pytest.fixture
def uncached_parser():
    """An empty parser cache before and after the test."""
    cli._parser.cache_clear()
    yield
    cli._parser.cache_clear()


def outcome(capsys, argv):
    """Exit code, stdout and stderr of ``main(argv)``, whether it returns or
    exits (``--help`` and ``--version`` exit through argparse)."""
    try:
        code = main(list(argv))
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def through_both_parsers(monkeypatch, capsys, argvs, files=()):
    """Exit code, stdout, stderr and the bytes of ``files`` (removed after)
    of each argv in turn: first through the cached parser, then through a
    fresh parser per call."""
    results = []
    for fresh in (False, True):
        with monkeypatch.context() as patch:
            if fresh:
                patch.setattr(cli, "_parser", cli.build_parser)
            calls = []
            for argv in argvs:
                result = outcome(capsys, argv)
                written = [Path(f).read_bytes() if os.path.exists(f) else None for f in files]
                calls.append((*result, written))
                for f in files:
                    if os.path.exists(f):
                        os.remove(f)
            results.append(calls)
    return results


def test_main_builds_one_parser_per_process(monkeypatch, capsys, uncached_parser):
    built = []
    build = cli.build_parser
    monkeypatch.setattr(cli, "build_parser", lambda: built.append(1) or build())
    for argv in (["info"], ["erasure-ceo", "--p", "0.5", "--L", "2", "--D", "0.6"], ["repro", "nope"],
                 ["gaussian-ceo", "--sigma2", "1", "--noise", "1,1", "--D", "0.5"], ["--help"]):
        outcome(capsys, argv)
    assert len(built) == 1
    assert cli._parser() is cli._parser()
    # build_parser still returns a new parser on each call.
    assert build() is not build()


def test_no_parsed_value_carries_over_between_calls(tmp_path, monkeypatch, capsys, uncached_parser):
    prefix = str(tmp_path / "er")
    main(["info", "--dump", "erasure", "--out", prefix, "--p", "0.5", "--L", "3", "--D", "0.3"])
    capsys.readouterr()
    model, gamma, x = (f"{prefix}.{part}.json" for part in ("model", "gamma", "x"))
    csv_out, dumped = str(tmp_path / "bounds.csv"), str(tmp_path / "P")
    argvs = [
        ["bounds", "--model", model, "--gamma", gamma, "--x", x, "--kind", "new-outer", "--bits",
         "--format", "csv", "--out", csv_out],
        ["bounds", "--model", model, "--gamma", gamma, "--kind", "bt-inner"],
        ["repro", "toy", "--out", str(tmp_path / "x")],
        ["repro", "toy"],
        ["info", "--dump", "erasure", "--L", "3", "--out", dumped],
        ["info"],
        ["erasure-ceo", "--p", "0.5", "--curve", "3", "--L", "1,2"],
        ["erasure-ceo", "--p", "0.5", "--D", "0.6", "--L", "2"],
    ]
    files = [csv_out] + [f"{dumped}.{part}.json" for part in ("model", "gamma", "x")]
    cached, fresh = through_both_parsers(monkeypatch, capsys, argvs, files)
    assert cached == fresh
    assert [code for code, _, _, _ in cached] == [0, 0, 1, 0, 0, 0, 0, 0]
    # The second call of each pair reads none of the first's flags.
    (_, _, _, csv_written), (_, bounds_json, _, bounds_written) = cached[0:2]
    assert csv_written[0].startswith(b"subset,bound_bits\n") and bounds_written == [None] * 4
    assert json.loads(bounds_json)["bounds"][0].keys() == {"A", "bound_nats"}
    assert cached[3][1].endswith("PASS\n") and not (tmp_path / "x").exists()
    (_, _, _, dump_written), (_, _, _, info_written) = cached[4:6]
    assert dump_written[0] is None and None not in dump_written[1:] and info_written == [None] * 4
    assert isinstance(json.loads(cached[6][1]), list)
    assert json.loads(cached[7][1]).keys() == {"p", "L", "D", "sum_rate_nats"}
    # Two parses in a row give two namespaces, the second without the first's flags.
    first = cli._parser().parse_args(["erasure-ceo", "--p", "0.5", "--curve", "3", "--L", "1,2"])
    second = cli._parser().parse_args(["info"])
    assert first is not second and not hasattr(second, "curve") and second.dump is None


# One --help, --version and usage error of the CLI and of each subcommand.
HELP_AND_USAGE = (
    ["--help"], ["--version"], [], ["nope"],
    *([command, "--help"] for command in ("info", "bounds", "erasure-ceo", "gaussian-ceo", "repro",
                                          "optimize")),
    ["info", "--L", "two"],
    ["bounds", "--kind", "bt-inner"],
    ["erasure-ceo", "--p", "0.5", "--L", "2"],
    ["gaussian-ceo", "--sigma2", "1", "--noise", "1,1"],
    ["repro", "nope"],
    ["optimize", "--model", "m.json", "--caps", "0.6"],
)


def test_help_and_usage_text_is_the_same_through_the_cached_parser(monkeypatch, capsys, uncached_parser):
    cached, fresh = through_both_parsers(monkeypatch, capsys, HELP_AND_USAGE)
    assert cached == fresh
    for argv, (code, out, err, _) in zip(HELP_AND_USAGE, cached):
        if "--help" in argv or "--version" in argv:
            assert code == 0 and out and err == "", argv
        else:
            assert code == 1 and out == "" and err.startswith("usage: mtsc"), argv
            assert "error:" in err, argv


# A seeded mutator of the files that `bounds` and `optimize` read: one field
# of a dumped casebook file at a time is replaced or deleted, and every
# command that reads the file must exit 0, 1 or 2, saying why on a nonzero
# exit, with no exception out of main and no hang.
MUTANT_VALUES = (None, "x", -1, 0, 1e308, math.nan, math.inf, [], [[0.5, [1.0]], [2]], "Y9")
DELETE = object()


class Hung(BaseException):
    """The per-mutant alarm.  Not an ``Exception``: a ``TimeoutError`` is an
    ``OSError``, which main reports as exit 1, so it would hide a hang."""


def raise_hung(signum, frame):
    raise Hung()


def field_paths(node, path=()):
    """The key or index path of every value under ``node``, parents first."""
    items = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, child in items:
        yield path + (key,)
        yield from field_paths(child, path + (key,))


def mutated(doc, path, value):
    doc = copy.deepcopy(doc)
    parent = functools.reduce(operator.getitem, path[:-1], doc)
    if value is DELETE:
        del parent[path[-1]]
    else:
        parent[path[-1]] = value
    return doc


def readers(files, part):
    """The argv of every command that reads the ``part`` file."""
    kinds = ("new-outer",) if part == "x" else ("bt-inner", "bt-outer", "new-outer")
    argvs = [("bounds", "--model", files["model"], "--gamma", files["gamma"], "--x", files["x"],
              "--kind", kind) for kind in kinds]
    if part == "model":
        argvs.append(("optimize", "--model", files["model"], "--caps", "0.6", "--cardinalities", "3,3",
                      "--budget", "5", "--seed", "1"))
    return argvs


# Mutants that found a defect, kept whatever the seeded sample draws.
FOUND_MUTANTS = (
    # A distortion near the float maximum overflowed the search's gradient.
    ("appendix_c", "model", ("distortions", 0, 41), 1e308),
)


def test_file_mutants_exit_cleanly(tmp_path, capsys):
    # 700 mutated files, each through every command that reads it: over
    # 2,000 runs, all through the process's one parser.
    cases, docs, runs = [], {}, 0
    for name in ("toy_bt_gamma", "appendix_c"):
        inst = mtsc_bounds.casebook(name)
        for part in ("model", "gamma", "x"):
            doc = docs[name, part] = getattr(inst, part).to_json()
            (tmp_path / f"{name}.{part}.json").write_text(json.dumps(doc))
            cases += [(name, part, path, value)
                      for path in field_paths(doc) for value in MUTANT_VALUES + (DELETE,)]
    mutants = random.Random(25).sample(cases, 700) + list(FOUND_MUTANTS)
    previous = signal.signal(signal.SIGALRM, raise_hung)
    try:
        for name, part, path, value in mutants:
            doc = docs[name, part]
            files = {p: str(tmp_path / f"{name}.{p}.json") for p in ("model", "gamma", "x")}
            files[part] = str(tmp_path / f"mutant.{part}.json")
            Path(files[part]).write_text(json.dumps(mutated(doc, path, value)))
            for argv in readers(files, part):
                label = (name, part, path, "deleted" if value is DELETE else value, argv[0], argv[-1])
                signal.setitimer(signal.ITIMER_REAL, 2.0)
                try:
                    code, _, err = run(capsys, *argv)
                except Exception as exc:
                    pytest.fail(f"{exc!r} escaped main on {label}")
                finally:
                    signal.setitimer(signal.ITIMER_REAL, 0)
                assert code in (0, 1, 2), label
                if code:
                    assert "error:" in err or "Markov check failed:" in err, (label, err)
                runs += 1
    finally:
        signal.signal(signal.SIGALRM, previous)
    assert runs >= 2000
