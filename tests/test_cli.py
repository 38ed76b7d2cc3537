"""End-to-end command-line behavior: JSON envelopes, exit codes, files."""

import csv
import dataclasses
import itertools
import json
import os
import subprocess
import sys
import time
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import powcorr
from powcorr import DyadicRational
from powcorr import cli
from powcorr.cli import _resolve, build_parser, main
from powcorr.config import (ExperimentConfig, parse_config_file,
                            resolve_config)
from powcorr import hpgen, probe, quad


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def payload_of(stdout: str) -> dict:
    return json.loads(stdout)


def test_gen_writes_the_canonical_small_sample(tmp_path, capsys):
    path = tmp_path / "sample.txt"
    code, out, err = run(capsys, "gen", "--x", "3/2", "--N", "3",
                         "--out", str(path))
    assert code == 0
    lines = path.read_text().splitlines()
    assert lines[1:] == ["0.5", "0.25", "0.375"]
    header = dict(item.split("=", 1) for item in lines[0].split())
    assert int(header["N"]) == 3
    assert DyadicRational.parse(header["x"]) == DyadicRational(3, 1)
    payload = payload_of(out)
    assert payload["schema"] == 1
    assert payload["command"] == "gen"
    assert payload["config"]["x"] == "3/2"


def test_gen_requires_out(capsys):
    code, _, err = run(capsys, "gen", "--x", "3/2", "--N", "3")
    assert code == 2
    assert "out" in err


def test_envelope_embeds_resolved_config(tmp_path, capsys):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text("A = 1.02\nn_values = 2000  # one size\ns_grid = 0.5,1\n"
                   "samples = 3\n")
    code, out, _ = run(capsys, "paircorr", "--config", str(cfg),
                       "--samples", "4")
    assert code == 0
    payload = payload_of(out)
    # flag wins over file, file wins over default
    assert payload["config"]["samples"] == 4
    assert payload["config"]["A"] == "1.02"
    assert payload["config"]["n_values"] == [2000]
    assert len(payload["results"]["rows"]) == 4 * 1 * 2


def test_unknown_config_key_is_a_usage_error(tmp_path, capsys):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text("frobnicate = 7\n")
    code, _, err = run(capsys, "paircorr", "--config", str(cfg))
    assert code == 2
    assert "frobnicate" in err


@pytest.mark.parametrize("line, argv", [
    ("flavor = inmer", ("fourier-check", "--N", "10")),
    ("parity = bogus", ("probe", "moment")),
    ("control = bogus", ("paircorr", "--N", "100")),
], ids=["flavor", "parity", "control"])
def test_a_bad_name_in_a_config_file_is_a_usage_error(tmp_path, capsys,
                                                      line, argv):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(line + "\n")
    code, out, err = run(capsys, *argv, "--config", str(cfg))
    assert code == 2
    assert out == ""
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("usage error:")


#: a non-default text for every setting; the switch takes no text
SETTING_TEXTS = {
    "A": "5/4", "x": "3/2", "xi": "3", "mantissa_bits": "32", "seed": "7",
    "n_values": "10,20", "s_grid": "0.5,1", "guard_bits": "12",
    "delta": "1/2^10", "flavor": "inner", "smoothed": "true",
    "control": "uniform", "samples": "3", "q": "0.5", "tol": "0.2",
    "work_cap": "1000", "k": "2", "j": "3", "atom_index": "4",
    "parity": "even", "mc_samples": "5",
    "sample_count": "6", "l_values": "1,2", "n_powers": "3,4",
    "m_powers": "1,2", "m1": "3", "m2": "2", "a": "5/4", "b": "9/4",
    "out": "report", "workers": "2",
}
SWITCHES = ("smoothed",)


def test_one_flag_per_setting_reads_text_as_a_config_line(tmp_path):
    names = [f.name for f in dataclasses.fields(ExperimentConfig)]
    assert sorted(SETTING_TEXTS) == sorted(names)
    parser = build_parser()
    commands = parser._subparsers._group_actions[0].choices
    for sp in commands.values():
        dests = [a.dest for a in sp._actions if a.dest != "help"
                 and a.option_strings]
        assert sorted(dests) == sorted(names + ["config"])
    flag_of = {a.dest: a.option_strings
               for a in commands["paircorr"]._actions}
    short = {"n_values": "--N", "s_grid": "--s", "l_values": "--l"}
    for key, text in SETTING_TEXTS.items():
        flag = short.get(key, "--" + key.replace("_", "-"))
        assert flag_of[key] == [flag]
        argv = ["paircorr", flag] + ([] if key in SWITCHES else [text])
        from_flag = _resolve(parser.parse_args(argv))
        path = tmp_path / f"{key}.cfg"
        path.write_text(f"{key} = {text}\n")
        from_file = resolve_config(parse_config_file(path), {})
        assert from_flag == from_file != ExperimentConfig(), key


def test_bad_rational_is_a_usage_error(capsys):
    code, _, err = run(capsys, "gen", "--x", "1/3", "--N", "5",
                       "--out", "/tmp/never.txt")
    assert code == 2


def test_a_reported_x_is_accepted_back_as_input(capsys):
    # reports print bases as p/2^e; --x must take that form verbatim and
    # rebuild the very sample the sweep measured
    code, out, err = run(capsys, "sweep", "--A", "1.02", "--N", "200",
                         "--samples", "10", "--workers", "1")
    assert code in (0, 1), err
    row = payload_of(out)["results"]["rows"][3]
    assert "/2^" in row["x"]
    code, out, err = run(capsys, "paircorr", "--x", row["x"], "--N", "200",
                         "--s", str(row["s"]))
    assert code == 0, err
    again = payload_of(out)["results"]["rows"]
    assert [r["r2"] for r in again] == [row["r2"]]


@pytest.mark.parametrize("argv", [
    ("paircorr", "--N", "abc"),
    ("paircorr", "--s", "x"),
    ("paircorr", "--config", "/nonexistent"),
    ("gen", "--x", "3/2", "--N", "5", "--out", "/no/dir/f"),
    ("paircorr", "--control", "uniform", "--N", "100", "--samples", "1",
     "--out", "/no/dir/f"),
    ("paircorr", "--x", "inf", "--N", "100"),
    ("paircorr", "--x", "1e400", "--N", "100"),
    ("paircorr", "--x", "nan", "--N", "100"),
    ("paircorr", "--A", "inf", "--N", "100", "--samples", "1"),
    ("paircorr", "--x", "3/2", "--xi=-inf", "--N", "100"),
    ("sweep", "--A", "inf", "--N", "100", "--samples", "10"),
    ("paircorr", "--samples", "abc"),
    ("fourier-check", "--flavor", "inmer"),
    ("probe", "moment", "--parity", "bogus"),
    ("paircorr", "--frobnicate", "1"),
    ("probe", "bogus"),
    (),
    ("paircorr", "--tol", "nan", "--N", "100"),
    ("paircorr", "--tol=-0.1", "--N", "100"),
    ("sweep", "--tol", "inf", "--N", "100"),
    ("sweep", "--A", "1.02", "--N", "2000", "--samples", "10",
     "--work-cap", "-5"),
], ids=["bad-N", "bad-s", "missing-config", "unwritable-gen-out",
        "unwritable-out", "x-inf", "x-overflow", "x-nan", "A-inf", "xi-inf",
        "sweep-A-inf", "samples-abc", "flavor-inmer", "parity-bogus",
        "unknown-flag", "unknown-probe-mode", "no-command", "tol-nan",
        "tol-negative", "tol-inf", "work-cap-negative"])
def test_bad_values_and_paths_are_usage_errors(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("usage error:")


def test_help_still_exits_zero(capsys):
    with pytest.raises(SystemExit) as stop:
        main(["probe", "--help"])
    assert stop.value.code == 0
    assert "overlap" in capsys.readouterr().out


def test_probe_count_certifies_a_window_end_next_to_g_of_a(capsys):
    # one window end lies within binary64 rounding of g(A): exact signs
    # put it inside (A, A + 1), where a float bracket check refused it
    code, out, err = run(capsys, "probe", "count", "--m1", "6", "--m2", "3",
                         "--A", "944338296909/2^39",
                         "--s", "0.09486551160935515", "--N", "1")
    assert code == 0, err
    results = payload_of(out)["results"]
    assert 0 < results["window_measure"] <= results["window_bound"]
    assert all(r["lo"] < r["hi"] for r in results["rows"])


def test_a_failed_out_write_is_a_usage_error(tmp_path, capsys):
    (tmp_path / "f.json").mkdir()  # the directory exists; the file cannot
    code, out, err = run(capsys, "paircorr", "--control", "uniform", "--N",
                         "100", "--samples", "1", "--out",
                         str(tmp_path / "f"))
    assert code == 2
    assert out == ""
    assert err.splitlines()[-1].startswith("usage error: cannot write")


@pytest.mark.parametrize("flags", [("--x", "3/2"), ("--control", "nalpha"),
                                   ("--control", "uniform")])
def test_sweep_rejects_a_pinned_x_and_controls(capsys, flags):
    code, out, err = run(capsys, "sweep", "--N", "200", "--samples", "10",
                         "--workers", "1", *flags)
    assert code == 2
    assert out == ""
    assert err.startswith("usage error:") and "sweep" in err


@pytest.mark.parametrize("argv", [
    ("paircorr", "--A", "1.02", "--N", "300,500", "--s", "0.5,1",
     "--samples", "3", "--smoothed"),
    ("spacings", "--A", "1.02", "--N", "300,500", "--samples", "3"),
    ("triple", "--control", "uniform", "--N", "300,500", "--s", "0.5,1",
     "--samples", "3"),
    ("sweep", "--A", "1.02", "--N", "300", "--s", "0.5,1",
     "--samples", "10"),
], ids=["paircorr", "spacings", "triple", "sweep"])
def test_rows_do_not_depend_on_the_worker_count(capsys, argv):
    results = []
    for workers in ("1", "2"):
        code, out, err = run(capsys, *argv, "--workers", workers)
        assert code in (0, 1), err
        results.append(payload_of(out)["results"])
    assert results[0] == results[1]
    assert results[0]["rows"]


@pytest.mark.parametrize("argv", [
    ("paircorr", "--control", "uniform", "--N", "2000,5000",
     "--s", "0.5,1,2", "--samples", "3", "--smoothed"),
    ("paircorr", "--A", "1.02", "--N", "1000", "--s", "0.25,1,3",
     "--samples", "3", "--smoothed", "--delta", "1/4194304"),
    ("triple", "--control", "uniform", "--N", "2000,5000",
     "--s", "0.5,1,2", "--samples", "3"),
    ("triple", "--A", "1.02", "--N", "1000", "--s", "0.25,1,3",
     "--samples", "3"),
], ids=["paircorr-uniform", "paircorr-ladder", "triple-uniform",
        "triple-ladder"])
def test_shared_enumeration_rows_are_byte_identical_across_workers(
        capsys, argv):
    rows = []
    for workers in ("1", "2"):
        code, out, err = run(capsys, *argv, "--workers", workers)
        assert code == 0, err
        rows.append(json.dumps(payload_of(out)["results"]["rows"]))
    assert rows[0] == rows[1]


def watch_counting(monkeypatch):
    """Record the width of every offset pass, one per chunk of a counting
    pass (the widest of its widths and window edges), and of every
    enumeration."""
    from powcorr import corr
    passes, enumerations = [], []
    offset_pass, enumerate_pairs = corr._offset_pass, corr.forward_window_pairs
    monkeypatch.setattr(
        corr, "_offset_pass", lambda ys, doubled, width, *a: passes.append(
            width) or offset_pass(ys, doubled, width, *a))
    monkeypatch.setattr(
        corr, "forward_window_pairs", lambda pts, w: enumerations.append(w)
        or enumerate_pairs(pts, w))
    return passes, enumerations


@pytest.mark.parametrize("argv, samples", [
    (("paircorr", "--smoothed", "--control", "uniform", "--samples", "2"), 2),
    (("paircorr", "--control", "uniform", "--samples", "1"), 1),
    (("triple", "--control", "uniform", "--samples", "2"), 2),
    (("sweep", "--A", "1.02", "--samples", "10"), 10),
], ids=["paircorr-smoothed", "paircorr", "triple", "sweep"])
def test_one_enumeration_per_point_set(capsys, monkeypatch, argv,
                                       samples):
    """One counting pass per point set, at the widest s/N of the grid, or
    with --smoothed at the outer edge of the largest s, in one chunk with
    --workers 1; no command enumerates pairs."""
    passes, enumerations = watch_counting(monkeypatch)
    code, _, err = run(capsys, *argv, "--N", "1000,2000", "--s", "0.5,1,2",
                       "--workers", "1")
    assert code == 0, err
    # sample by sample, N = 1000 then N = 2000 (`cli._sweep_sample`)
    from powcorr.mollify import make_outer
    widest = ([make_outer(2.0, 1000).edge_f, make_outer(2.0, 2000).edge_f]
              if "--smoothed" in argv else [2.0 / 1000, 2.0 / 2000])
    assert passes == widest * samples
    assert enumerations == []


@pytest.mark.parametrize("argv, code", [
    (("paircorr", "--smoothed", "--s", "0.5,600"), 3),
    (("paircorr", "--smoothed", "--s", "0.5,x"), 2),
    (("triple", "--s", "1,500"), 3),
    (("paircorr", "--s", "0.5,1", "--smoothed", "--delta", "1/64"), 3),
], ids=["wrap-around-s", "unparsable-s", "triple-wrap-around-s",
        "ramp-wider-than-plateau"])
def test_a_bad_s_exits_before_any_enumeration(capsys, monkeypatch, argv,
                                              code):
    passes, enumerations = watch_counting(monkeypatch)
    got, out, err = run(capsys, *argv, "--control", "uniform", "--N", "1000",
                        "--samples", "1")
    assert got == code, err
    assert out == ""
    assert passes == [] and enumerations == []


def test_a_capped_smoothed_paircorr_exits_5_without_pair_arrays(
        capsys, monkeypatch):
    """At N = 10^6, s = 100 the runs hold about 10^8 candidate pairs: the
    one counting pass, one chunk per allowed CPU, refuses at the cap, and
    no pair array is built."""
    passes, enumerations = watch_counting(monkeypatch)
    code, out, err = run(capsys, "paircorr", "--smoothed", "--control",
                         "uniform", "--N", "1000000", "--s", "100",
                         "--samples", "1")
    assert code == 5
    assert out == ""
    from powcorr.mollify import make_outer
    assert passes == [make_outer(100, 1000000).edge_f] * hpgen.allowed_cpus()
    assert enumerations == []
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("resource cap:")
    assert "candidate pairs at offset" in lines[0]


def test_json_and_csv_written_next_to_each_other(tmp_path, capsys):
    prefix = tmp_path / "report"
    code, out, _ = run(capsys, "paircorr", "--control", "uniform",
                       "--N", "500", "--s", "1", "--samples", "2",
                       "--out", str(prefix))
    assert code == 0
    assert out == ""  # report went to the file, stdout stays clean
    payload = json.loads((tmp_path / "report.json").read_text())
    assert payload["schema"] == 1
    csv_lines = (tmp_path / "report.csv").read_text().splitlines()
    assert csv_lines[0].startswith("sample,")
    assert len(csv_lines) == 1 + 2


def test_nalpha_control_flags_non_poissonian(capsys):
    code, out, err = run(capsys, "paircorr", "--control", "nalpha",
                         "--N", "5000", "--s", "1")
    assert code == 0
    payload = payload_of(out)
    assert payload["results"]["non_poissonian"] is True
    assert payload["results"]["rows"][0]["r2"] == 1.294
    assert "PASS" in err


def test_probe_requires_tenth_power_n(capsys):
    code, _, err = run(capsys, "probe", "y", "--N", "1000")
    assert code == 2
    assert "10th power" in err


def test_probe_partition_emits_the_hand_example(capsys):
    code, out, _ = run(capsys, "probe", "partition", "--A", "3/2",
                       "--N", "1024", "--k", "1")
    assert code == 0
    res = payload_of(out)["results"]
    assert res["atoms"] == 5
    assert res["z"] == ["3/2^1", "2/2^0", "17/2^3", "9/2^2", "19/2^3",
                        "5/2^1"]
    assert res["mus"] == [1, 3, 3, 3, 3]


def test_probe_partition_refuses_by_the_exact_atom_bound(capsys):
    # 2^mu(A) atoms at least: no float estimate A^((k+1/2)K) to overflow
    code, out, err = run(capsys, "probe", "partition", "--A", "3/2",
                         "--N", "1024", "--k", "900")
    assert code == 5
    assert out == ""
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("resource cap:")


@pytest.mark.parametrize("argv", [
    ("count", "--N", "1000", "--m1", "40", "--m2", "1"),
    ("overlap", "--N", "1000", "--n-powers", "30", "--m1", "29", "--m2", "29"),
])
def test_probe_level_sets_refuse_too_many_windows_before_allocating(
        capsys, argv):
    # about 2.5^40 and 2.5^30 integer windows M over [3/2, 5/2]
    code, out, err = run(capsys, "probe", *argv, "--A", "3/2")
    assert code == 5
    assert out == ""
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("resource cap:")
    assert f"exceed the cap {probe.WINDOW_CAP}" in lines[0]


def test_probe_overlap_of_touching_windows(capsys):
    # s = 1/2, N = 2: plateau 1/4, ramp 1/4, so F.edge = 1/2 and the
    # windows of neighbouring integers touch; the value is a dense
    # 4 * 10^7-point trapezoid's
    code, out, err = run(capsys, "probe", "overlap", "--A", "3/2", "--N", "2",
                         "--s", "0.5", "--n-powers", "6", "--m1", "3",
                         "--m2", "3")
    assert code == 0, err
    value = payload_of(out)["results"]["value"]
    assert value == pytest.approx(0.6855969688054252, rel=1e-12)


def test_probe_overlap_below_threshold_maps_to_domain_exit(capsys):
    code, _, err = run(capsys, "probe", "overlap", "--A", "3/2",
                       "--N", "100", "--s", "1", "--n-powers", "8",
                       "--m1", "5", "--m2", "3")
    assert code == 3
    assert "domain error" in err


@pytest.mark.parametrize("count", ["0", "-3"])
def test_probe_condexp_without_sampled_atoms_is_a_domain_error(capsys, count):
    code, out, err = run(capsys, "probe", "condexp", "--N", "1024", "--j",
                         "1", "--k", "3", "--sample-count", count)
    assert code == 3
    assert out == ""
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("domain error:")


def test_numerical_certification_failure_maps_to_exit_4(capsys, monkeypatch):
    # an envelope constant planted at half the measured value: the real
    # check fails, and its record names what, by how much and the margin
    argv = ("probe", "overlap", "--A", "3/2", "--N", "100", "--s", "1",
            "--n-powers", "6", "--m1", "3", "--m2", "3")
    code, out, _ = run(capsys, *argv)
    assert code == 0
    value = payload_of(out)["results"]["value"]
    monkeypatch.setattr(probe, "C_OVERLAP_EQUAL", 0.5 * value * 100)
    code, out, err = run(capsys, *argv)
    assert (code, out) == (4, "")
    assert err == (f"numerical certification failed: overlap integral "
                   f"against its fitted envelope: {value:.3g} > "
                   f"{0.5 * value:.3g} (margin 2)\n")


def test_probe_vdc_refuses_powers_beyond_binary64_before_quadrature(
        capsys, monkeypatch):
    # (5/2)^800 is near 2^1058: its cycle counts leave binary64
    def explode(*args, **kwargs):
        raise AssertionError("quadrature ran past the binary64 range")
    monkeypatch.setattr(quad, "_power_panels", explode)
    code, out, err = run(capsys, "probe", "vdc", "--n-powers", "800",
                         "--a", "3/2", "--b", "5/2")
    assert (code, out) == (5, "")
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("resource cap:")
    assert "2^1020" in lines[0]


def test_probe_z_reports_tower_property(capsys):
    code, out, err = run(capsys, "probe", "z", "--A", "3/2", "--N", "1024",
                         "--k", "1")
    assert code == 0
    res = payload_of(out)["results"]
    assert res["tower_ok"] is True
    assert res["tower_rel_gap"] <= 1e-9
    assert "PASS" in err


def test_probe_z_refuses_an_oversized_tower_check_before_quadrature(
        capsys, monkeypatch):
    # level 8 at A = 3/2, N = 1024: 595,287 atoms x 29 (n, m) terms
    def explode(*args, **kwargs):
        raise AssertionError("quadrature ran before the work cap")
    monkeypatch.setattr(probe, "cond_exp_Z", explode)
    monkeypatch.setattr(probe, "tower_check", explode)
    code, out, err = run(capsys, "probe", "z", "--A", "3/2", "--N", "1024",
                         "--k", "8")
    assert code == 5
    assert out == ""
    assert f"595287 atoms x 29 terms exceeds {probe.TOWER_WORK_CAP}" in err
    # far above the cap, the lower bound 2^mu(A) on the count refuses
    # before the runs are walked
    monkeypatch.setattr(probe, "filtration_runs", explode)
    code, _, err = run(capsys, "probe", "z", "--A", "3/2", "--N", "1024",
                       "--k", "500")
    assert code == 5
    lower = 1 << probe.mu(DyadicRational(3, 1), 500, 2)
    assert f"at least {lower} atoms x 1997 terms" in err


def test_probe_vdc_rows(capsys):
    code, out, _ = run(capsys, "probe", "vdc", "--l", "1,2",
                       "--n-powers", "2,3", "--m-powers", "1",
                       "--a", "3/2", "--b", "5/2")
    assert code == 0
    rows = payload_of(out)["results"]["rows"]
    assert len(rows) == 4
    assert all(r["within"] for r in rows)


def test_mollifier_check_passes(capsys):
    code, _, err = run(capsys, "mollifier-check", "--N", "10,100,1000",
                       "--s", "1")
    assert code == 0
    assert err.count("PASS") == 6
    assert "FAIL" not in err


def test_fourier_check_reports_honest_slope_failure(capsys):
    code, out, err = run(capsys, "fourier-check", "--N", "10,20,40",
                         "--s", "1")
    assert code == 1
    payload = payload_of(out)
    assert payload["results"]["sup_non_increasing"] is True
    assert payload["results"]["jackson"]["slope"] > 1.15
    assert "FAIL" in err


def test_sweep_needs_ten_samples(capsys):
    code, _, err = run(capsys, "sweep", "--N", "2000", "--samples", "9")
    assert code == 2
    assert "10" in err


def test_sweep_gates_on_the_fraction(tmp_path, capsys):
    prefix = tmp_path / "sw"
    code, _, err = run(capsys, "sweep", "--A", "1.02", "--N", "2000",
                       "--s", "1", "--samples", "10", "--seed", "1",
                       "--workers", "1", "--out", str(prefix))
    assert code == 0
    payload = json.loads((tmp_path / "sw.json").read_text())
    res = payload["results"]
    assert res["poissonian"] is True
    assert res["partial"] is False
    assert len(res["rows"]) == 10
    assert [r["sample"] for r in res["rows"]] == sorted(
        r["sample"] for r in res["rows"])
    # sample idx draws its x at seed + idx, as the benchmark's sweep repeats
    assert [r["x"] for r in res["rows"]] == [
        str(hpgen.sample_x(DyadicRational.parse("1.02"), 64, 1 + idx))
        for idx in range(10)]


def test_sweep_work_cap_yields_partial_report_and_exit_5(tmp_path, capsys):
    prefix = tmp_path / "cap"
    code, _, err = run(capsys, "sweep", "--A", "1.02", "--N", "2000",
                       "--s", "1", "--samples", "12", "--seed", "1",
                       "--workers", "1", "--work-cap", "8000000",
                       "--out", str(prefix))
    assert code == 5
    payload = json.loads((tmp_path / "cap.json").read_text())
    res = payload["results"]
    assert res["partial"] is True
    assert 0 < res["samples_run"] < 12
    assert "partial" in err


@pytest.mark.parametrize("argv", [
    ("sweep", "--A", "1.02", "--s", "0.5,1", "--samples", "10"),
    ("paircorr", "--A", "1.02", "--s", "0.5,1", "--samples", "3",
     "--smoothed"),
    ("paircorr", "--control", "uniform", "--s", "0.5,1", "--samples", "2"),
    ("triple", "--control", "nalpha", "--s", "0.5,1"),
    ("spacings", "--x", "3/2", "--xi", "5/4"),
], ids=["sweep", "paircorr-ladder", "paircorr-uniform", "triple-nalpha",
        "spacings-x"])
def test_one_point_set_per_sample_read_by_every_smaller_n(
        capsys, monkeypatch, argv):
    """A job builds its point set once, at the largest N, and the rows of
    a smaller N read its prefix: they equal the rows of a run at that N
    alone, and come out in --N order."""
    built = []
    for owner, name in ((hpgen, "ladder_frac_powers"),
                        (cli.corr, "uniform_control"),
                        (cli.corr, "control_nalpha")):
        make = getattr(owner, name)
        monkeypatch.setattr(owner, name, lambda *a, make=make: built.append(
            next(v for v in a if isinstance(v, int))) or make(*a))
    code, out, err = run(capsys, *argv, "--N", "500,2000,500", "--seed", "3",
                         "--workers", "1")
    assert code in (0, 1), err
    rows = payload_of(out)["results"]["rows"]
    assert built == [2000] * len({r["sample"] for r in rows})
    first = [r["N"] for r in rows if r["sample"] == 0]
    assert [n for n, _ in itertools.groupby(first)] == [500, 2000, 500]
    code, out, err = run(capsys, *argv, "--N", "500", "--seed", "3",
                         "--workers", "1")
    assert code in (0, 1), err
    alone = payload_of(out)["results"]["rows"]

    def at(rows, N):
        return [[r for r in rows if r["sample"] == i and r["N"] == N]
                for i in sorted({r["sample"] for r in rows})]
    assert at(rows, 500) == [rs + rs for rs in at(alone, 500)]


def test_a_failed_gate_hints_the_guard_bits_of_the_largest_n(capsys):
    """At --guard-bits 32 the N = 500 and N = 2000 gates at s = 0.01 of the
    first sample both fail: the refusal (exit 3, the documented code of
    the gate) is the largest N's, and at the hinted guard bits that sample
    passes.  A sweep checks every sample's ladder at the largest N before
    any runs, and refuses with the largest bound and the largest hint
    among its ten samples."""
    grid = ("--N", "500,2000", "--s", "0.01,1", "--workers", "1")
    xs = [hpgen.sample_x(DyadicRational.parse("1.02"), 64, 1 + idx)
          for idx in range(10)]
    ladders = [hpgen.ladder_frac_powers(x, 1, 2000, 32) for x in xs]
    ladder = ladders[0]
    hint = hpgen.required_guard_bits(ladder, 0.01)
    assert hint > hpgen.required_guard_bits(ladder.prefix(500), 0.01)
    worst = max(smp.err_bound for smp in ladders)
    sweep_hint = max(hpgen.required_guard_bits(smp, 0.01) for smp in ladders)
    assert sweep_hint > hint
    for argv, bound, g in (
            (("sweep", "--A", "1.02", "--samples", "10", "--seed", "1"),
             worst, sweep_hint),
            (("paircorr", "--x", str(xs[0])), ladder.err_bound, hint)):
        code, out, err = run(capsys, *argv, *grid, "--guard-bits", "32")
        assert (code, out) == (3, "")
        assert err.endswith(f"(margin {bound / 5e-8:.3g}); "
                            f"regenerate with guard bits >= {g}\n")
    code, out, err = run(capsys, "paircorr", "--x", str(xs[0]), *grid,
                         "--guard-bits", str(hint))
    assert code == 0, err
    assert len(payload_of(out)["results"]["rows"]) == 4


@pytest.mark.parametrize("command, start", [
    pytest.param(command, start,
                 id=f"{command}-{start}" if command != "sweep" else str(start))
    for command in ("sweep", "paircorr", "triple") for start in (32, 37, 38)])
def test_a_sweep_passes_its_gates_at_the_hinted_guard_bits(capsys, command,
                                                           start):
    """Whatever guard bits a run over drawn x's is refused at, a rerun at
    its hint passes every gate of every sample (exit 0 or 1, the verdict);
    one bit fewer is refused with the same hint.  sweep, paircorr and
    triple check one plan of samples, so they give one hint."""
    argv = (command, "--A", "1.02", "--N", "500,2000", "--s", "0.01,1",
            "--samples", "10", "--seed", "1", "--workers", "1")
    code, out, err = run(capsys, *argv, "--guard-bits", str(start))
    assert (code, out) == (3, "")
    hint = int(err.rsplit(">= ", 1)[1])
    assert hint == 40
    code, out, err = run(capsys, *argv, "--guard-bits", str(hint))
    assert code in (0, 1), err
    assert len(payload_of(out)["results"]["rows"]) == 10 * 2 * 2
    code, out, err = run(capsys, *argv, "--guard-bits", str(hint - 1))
    assert (code, out) == (3, "")
    assert err.endswith(f"regenerate with guard bits >= {hint}\n")


@pytest.mark.parametrize("argv", [
    ("gen", "--out", "{tmp}/sample.txt"),
    ("paircorr",),
    ("triple",),
    ("spacings",),
    ("sweep",),
    ("probe", "y"),
], ids=["gen", "paircorr", "triple", "spacings", "sweep", "probe-y"])
def test_guard_bits_below_32_are_one_refusal(tmp_path, capsys, argv):
    """Every command that runs a ladder refuses --guard-bits below 32 with
    the same line, before any gate."""
    code, out, err = run(capsys, *[a.format(tmp=tmp_path) for a in argv],
                         "--A", "1.02", "--N", "1024", "--samples", "10",
                         "--workers", "1", "--guard-bits", "12")
    assert (code, out) == (3, "")
    assert err == "domain error: guard bits must be >= 32, got 12\n"
    assert list(tmp_path.iterdir()) == []


def test_the_work_cap_funds_one_ladder_per_sample(capsys):
    """A sample costs the modelled work of its one ladder, at the largest
    N: a cap of the first four samples' costs runs exactly four."""
    xs = [hpgen.sample_x(DyadicRational.parse("1.02"), 64, 1 + i)
          for i in range(4)]
    cap = sum(hpgen.ladder_work(x, 2000) for x in xs)
    code, out, err = run(capsys, "sweep", "--A", "1.02", "--N", "500,2000",
                         "--s", "1", "--samples", "10", "--seed", "1",
                         "--workers", "1", "--work-cap", str(cap))
    assert code == 5, err
    res = payload_of(out)["results"]
    assert (res["samples_run"], res["partial"]) == (4, True)
    assert len(res["rows"]) == 8


def test_the_plan_draws_no_x_past_the_one_that_breaks_the_cap(
        capsys, monkeypatch, tmp_path):
    """sweep draws the funded x's and the one that breaks the cap, not every
    requested sample's; gen draws the one x it writes."""
    draws = []
    real = hpgen.sample_x
    monkeypatch.setattr(hpgen, "sample_x",
                        lambda *a: draws.append(a) or real(*a))
    xs = [real(DyadicRational.parse("1.02"), 64, 1 + i) for i in range(4)]
    cap = sum(hpgen.ladder_work(x, 2000) for x in xs)
    code, out, err = run(capsys, "sweep", "--A", "1.02", "--N", "2000",
                         "--s", "1", "--samples", "1000", "--seed", "1",
                         "--workers", "1", "--work-cap", str(cap))
    assert code == 5, err
    assert payload_of(out)["results"]["samples_run"] == 4
    assert len(draws) == 5
    draws.clear()
    code, _, err = run(capsys, "gen", "--A", "1.02", "--N", "50",
                       "--samples", "1000", "--out", str(tmp_path / "s"))
    assert code == 0, err
    assert len(draws) == 1


def test_a_ladder_past_the_cap_is_refused_before_it_runs(capsys):
    """A pinned x whose one ladder costs more than the default cap (about
    3.8e11 modelled units at N = 3e7, 22 times 2^34) is refused at once."""
    t0 = time.perf_counter()
    code, out, err = run(capsys, "paircorr", "--x", "3/2", "--N", "30000000",
                         "--s", "1")
    assert time.perf_counter() - t0 < 1.0
    assert (code, out) == (5, "")
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("resource cap:")


@pytest.mark.parametrize("command", ["paircorr", "triple"])
def test_a_capped_drawn_plan_emits_the_funded_prefix(capsys, command):
    """Under a cap of the first three samples' ladders every ladder command
    runs those three, as a run of three samples does, and exits 5 after
    one partial line."""
    xs = [hpgen.sample_x(DyadicRational.parse("1.02"), 64, 1 + i)
          for i in range(3)]
    cap = sum(hpgen.ladder_work(x, 2000) for x in xs)
    argv = (command, "--A", "1.02", "--N", "500,2000", "--s", "0.5,1",
            "--seed", "1", "--workers", "1")
    code, out, err = run(capsys, *argv, "--samples", "10",
                         "--work-cap", str(cap))
    assert code == 5, err
    assert [line for line in err.splitlines() if "partial" in line] == [
        "FAIL plan stopped at the work cap after 3 of 10 samples; "
        "report is partial"]
    rows = payload_of(out)["results"]["rows"]
    code, out, err = run(capsys, *argv, "--samples", "3")
    assert code in (0, 1), err
    assert rows == payload_of(out)["results"]["rows"]


def test_gen_past_the_cap_writes_no_file(tmp_path, capsys):
    code, out, err = run(capsys, "gen", "--x", "3/2", "--N", "100000",
                         "--work-cap", "1000", "--out",
                         str(tmp_path / "sample.txt"))
    assert (code, out) == (5, "")
    assert err.startswith("resource cap:")
    assert list(tmp_path.iterdir()) == []


def test_spacings_and_triple_smoke(tmp_path, capsys):
    code, out, _ = run(capsys, "spacings", "--control", "uniform",
                       "--N", "1500", "--samples", "2")
    assert code == 0
    res = payload_of(out)["results"]
    assert len(res["rows"]) == 2
    assert all(r["sup_exponential"] < 0.1 for r in res["rows"])

    code, out, _ = run(capsys, "triple", "--control", "uniform",
                       "--N", "800", "--s", "1", "--samples", "2")
    assert code == 0
    rows = payload_of(out)["results"]["rows"]
    assert all(abs(r["r3"] / r["poisson_value"] - 1.0) < 0.8 for r in rows)


def test_smoothed_paircorr_reports_both_windows(capsys):
    code, out, _ = run(capsys, "paircorr", "--control", "uniform",
                       "--N", "2000", "--s", "1", "--samples", "1",
                       "--smoothed")
    assert code == 0
    row = payload_of(out)["results"]["rows"][0]
    assert row["r2_inner"] <= row["r2"] <= row["r2_outer"]


# ---------------------------------------------------------------------------
# report text: json.dumps(indent=2, default=str), byte for byte


def rows_of(table: cli._Columns) -> list:
    """The list of row dicts a column table stands for, holding the values
    such a list holds (a numpy column's values as tolist() gives them)."""
    columns = [c.tolist() if isinstance(c, np.ndarray) else list(c)
               for c in table.columns]
    return [dict(zip(table.keys, values)) for values in zip(*columns)]


def reference_dumps(value) -> str:
    # a column table is written as its list of row dicts
    return json.dumps(value, indent=2, default=lambda o: (
        rows_of(o) if isinstance(o, cli._Columns) else str(o)))


def dumps(value) -> str:
    """The report text as _emit writes it, from its pieces."""
    return "".join(cli._pieces(value))


def reference_csv(fh, rows) -> None:
    if isinstance(rows, cli._Columns):
        rows = rows_of(rows)
    writer = csv.DictWriter(fh, fieldnames=list(rows[0]))
    writer.writeheader()
    writer.writerows(rows)


TRICKY_TEXT = st.sampled_from(["", "},\n  {", "},\n      {", "}", "{", "[",
                               "]", "}]", "[{", "\n", "é ü 漢 \U0001f600",
                               "\x00\x1f\x7f", '"\\'])
SCALARS = st.one_of(st.none(), st.booleans(), st.integers(),
                    st.floats(allow_nan=True, allow_infinity=True),
                    st.text(max_size=8), TRICKY_TEXT)
# values json.dumps passes through default=str (np.float64 is a float)
DEFAULTED = st.one_of(
    st.builds(DyadicRational, st.integers(-99, 99), st.integers(0, 9)),
    st.integers(-2 ** 63, 2 ** 63 - 1).map(np.int64),
    st.booleans().map(np.bool_),
    st.floats(allow_nan=True, allow_infinity=True).map(np.float64))
KEYS = st.one_of(st.text(max_size=6), TRICKY_TEXT, st.integers(),
                 st.floats(allow_nan=True, allow_infinity=True),
                 st.booleans(), st.none())
ROWS = st.dictionaries(KEYS, SCALARS, max_size=4)
TABLES = st.lists(ROWS, max_size=5) | st.lists(
    st.dictionaries(KEYS, SCALARS, min_size=1, max_size=4), min_size=2,
    max_size=5)
PAYLOADS = st.recursive(
    SCALARS | DEFAULTED | TABLES,
    lambda inner: (st.lists(inner, max_size=4)
                   | st.lists(inner, max_size=3).map(tuple)
                   | st.dictionaries(KEYS, inner, max_size=4)
                   | st.lists(ROWS | st.lists(SCALARS, max_size=3),
                              max_size=4)),
    max_leaves=24)


@settings(max_examples=400, deadline=None)
@given(PAYLOADS)
@example({None: [{"a": 1, "b": "},\n      {"}, {"a": 2, "b": None}]})
@example([{"t": 1.5}, {}, {"t": float("nan")}])
@example([{"t": 1.5}, [1.5], {"t": -float("inf")}])
@example([[], {}, [[]], [{}], {"x": {}}])
def test_report_text_is_json_dumps_indent_2(value):
    assert dumps(value) == reference_dumps(value)


@st.composite
def column_tables(draw, rows):
    keys = tuple(draw(st.dictionaries(KEYS, st.none(), max_size=4)))
    n = draw(rows) if keys else 0
    floats = st.floats(allow_nan=True, allow_infinity=True)
    column = (st.lists(SCALARS | DEFAULTED, min_size=n, max_size=n)
              | st.lists(floats, min_size=n, max_size=n).map(np.array)
              | st.lists(st.integers(-2 ** 63, 2 ** 63 - 1), min_size=n,
                         max_size=n).map(lambda v: np.array(v, np.int64)))
    return cli._Columns(keys, tuple(draw(column) for _ in keys))


def chunked_payloads(chunk: int):
    # tables of no row, one row and one row either side of the chunk, at
    # the top, as list items and as dict values at several indents
    tables = column_tables(st.sampled_from([0, 1, chunk - 1, chunk,
                                            chunk + 1]))
    return st.tuples(st.just(chunk), st.recursive(
        tables | SCALARS,
        lambda inner: (st.lists(inner, max_size=3)
                       | st.dictionaries(KEYS, inner, max_size=3)),
        max_leaves=6))


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 4).flatmap(chunked_payloads))
@example((2, cli._Columns(("t", "},\n    {"), ([0.5, float("nan"), -0.0],
                                              np.array([1.0, 2.0, 3.0])))))
@example((3, {"ecdf": cli._Columns((), ())}))
def test_column_tables_are_written_as_their_rows(case):
    chunk, value = case
    with mock.patch.object(cli, "_CHUNK_ROWS", chunk):
        assert dumps(value) == reference_dumps(value)


@pytest.mark.parametrize("extra", [-1, 0, 1])
def test_column_tables_split_at_the_chunk_size(tmp_path, extra):
    n = cli._CHUNK_ROWS + extra
    t = np.random.default_rng(n).random(n)
    table = cli._Columns(("t", 2.5, None), (t, (t * n).tolist(),
                                            ["a\nb"] * n))
    value = {"rows": [1], "ecdf": [table]}
    assert dumps(value) == reference_dumps(value)
    for write in (cli._write_csv, reference_csv):
        with open(tmp_path / write.__name__, "w", newline="") as fh:
            write(fh, table)
    assert ((tmp_path / "_write_csv").read_bytes()
            == (tmp_path / "reference_csv").read_bytes())


@pytest.mark.parametrize("argv", [
    ("gen", "--x", "3/2", "--N", "3", "--out", "{tmp}/sample.txt"),
    ("paircorr", "--smoothed", "--control", "uniform", "--N", "500",
     "--s", "0.5,1", "--samples", "2"),
    ("spacings", "--N", "300", "--samples", "2"),
    ("spacings", "--control", "uniform", "--N", "300", "--samples", "1",
     "--out", "{tmp}/sp"),
    ("spacings", "--control", "uniform", "--N", "300", "--samples", "2",
     "--workers", "2", "--out", "{tmp}/sp"),
    ("triple", "--control", "uniform", "--N", "500", "--s", "1",
     "--samples", "2"),
    ("sweep", "--A", "1.02", "--N", "200", "--s", "1", "--samples", "10",
     "--workers", "1"),
    ("mollifier-check", "--N", "100", "--s", "1"),
    ("fourier-check", "--N", "10,20,40", "--s", "1"),
    ("probe", "partition", "--A", "3/2", "--N", "1024", "--k", "2"),
    ("probe", "vdc", "--l", "1,2", "--n-powers", "2,3", "--m-powers", "1",
     "--a", "3/2", "--b", "5/2"),
    ("probe", "count", "--m1", "3", "--m2", "2", "--A", "3/2", "--N", "10"),
    ("probe", "overlap", "--A", "3/2", "--N", "100", "--s", "1",
     "--n-powers", "8", "--m1", "6", "--m2", "2"),
    ("probe", "condexp", "--N", "1024", "--j", "1", "--k", "3",
     "--sample-count", "2"),
    ("probe", "z", "--A", "3/2", "--N", "1024", "--k", "2"),
    ("probe", "y", "--N", "1024", "--k", "3", "--samples", "2"),
    ("probe", "moment", "--N", "1024", "--mc-samples", "100",
     "--workers", "1"),
], ids=["gen", "paircorr-smoothed", "spacings", "spacings-out",
        "spacings-pooled", "triple",
        "sweep", "mollifier-check", "fourier-check", "probe-partition",
        "probe-vdc", "probe-count", "probe-overlap", "probe-condexp",
        "probe-z", "probe-y", "probe-moment"])
def test_reports_match_json_dumps_byte_for_byte(tmp_path, capsys,
                                                monkeypatch, argv):
    # the --out path is part of the report, so both runs write to it; the
    # reference writes the CSV of row dicts through csv.DictWriter
    def outputs():
        got = run(capsys, *[a.format(tmp=tmp_path) for a in argv])
        return got, {p.name: p.read_bytes() for p in tmp_path.iterdir()}

    fast = outputs()
    # the reference must reach the writer, or both runs are the fast one
    laid_out = []
    monkeypatch.setattr(cli, "_pieces", lambda value: laid_out.append(
        value) or [reference_dumps(value)])
    monkeypatch.setattr(cli, "_write_csv", reference_csv)
    assert fast == outputs()
    assert len(laid_out) == 1
    assert fast[0][1] or fast[1]


def test_a_report_is_not_held_twice_while_written(tmp_path):
    # about 2 MB of column table; a small chunk keeps one chunk's
    # encoding, which is bounded apart from the report, out of the peak
    t = np.random.default_rng(2).random(20000)
    table = cli._Columns(("t", "ecdf", "model"), (t, t / 2, (1 - t).tolist()))
    cfg = resolve_config({}, {"out": str(tmp_path / "report")})
    with mock.patch.object(cli, "_CHUNK_ROWS", 1024):
        tracemalloc.start()
        try:
            cli._emit("spacings", cfg, {"ecdf": table}, None)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    size = (tmp_path / "report.json").stat().st_size
    assert size > 2_000_000
    assert peak < 1.5 * size


def test_a_closed_stdout_is_one_usage_error_line():
    src = os.path.dirname(os.path.dirname(powcorr.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    # a report far larger than a pipe buffer, cut after 100 bytes
    proc = subprocess.Popen(
        [sys.executable, "-m", "powcorr.cli", "spacings", "--N", "20000",
         "--samples", "1", "--control", "uniform"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    head = proc.stdout.read(100)
    proc.stdout.close()
    err = proc.stderr.read().decode()
    proc.stderr.close()
    assert proc.wait(timeout=120) == 2
    assert len(head) == 100
    assert len(err.splitlines()) == 1 and err.endswith("\n")
    assert err.startswith("usage error:") and "Traceback" not in err


def test_a_stdout_closed_before_the_start_is_one_usage_error_line():
    src = os.path.dirname(os.path.dirname(powcorr.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    # fd 1 closed in the child before Python starts: sys.stdout is None
    proc = subprocess.run(
        [sys.executable, "-m", "powcorr.cli", "probe", "partition", "--A",
         "3/2", "--N", "1024", "--k", "1"],
        stdin=subprocess.DEVNULL, stderr=subprocess.PIPE, env=env,
        preexec_fn=lambda: os.close(1), timeout=120)
    err = proc.stderr.decode().splitlines()
    assert proc.returncode == 2
    assert err[-1].startswith("usage error:") and len(err) == 2
    assert err[0].startswith("PASS partition")


class RecordingPool:
    """Stands in for ProcessPoolExecutor: records the pool size asked for
    and maps in this process, so no process is started."""

    sizes: list = []

    def __init__(self, max_workers):
        self.sizes.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, jobs):
        return map(fn, jobs)


@pytest.mark.parametrize("argv, sizes", [
    (("sweep", "--A", "1.02", "--N", "200", "--samples", "10",
      "--workers", "5000"), [10]),
    (("sweep", "--A", "1.02", "--N", "200", "--samples", "10",
      "--workers", "0"), [min(hpgen.allowed_cpus(), 10)]),
    (("sweep", "--A", "1.02", "--N", "200", "--samples", "10",
      "--workers", "3"), [3]),
    (("sweep", "--A", "1.02", "--N", "200", "--samples", "10",
      "--workers", "1"), []),
    (("paircorr", "--x", "3/2", "--N", "200", "--workers", "4"), []),
    (("probe", "y", "--x", "3/2", "--N", "1024", "--samples", "3",
      "--workers", "4"), []),
    (("probe", "y", "--control", "nalpha", "--N", "1024", "--samples", "3",
      "--workers", "4"), []),
    (("probe", "moment", "--N", "1024", "--mc-samples", "100",
      "--workers", "5000"), [100]),
], ids=["sweep-5000", "sweep-cpus", "sweep-3", "sweep-1", "one-job",
        "probe-y-x", "probe-y-nalpha", "moment-5000"])
def test_one_job_runner_sizes_its_pool_by_the_jobs(capsys, monkeypatch, argv,
                                                   sizes):
    # under fork every max_workers process starts at the first submit, so
    # a pool larger than its job list would start processes for nothing
    monkeypatch.setattr(hpgen, "ProcessPoolExecutor", RecordingPool)
    monkeypatch.setattr(RecordingPool, "sizes", [])
    code, out, err = run(capsys, *argv)
    assert RecordingPool.sizes == sizes
    code_1, out_1, err_1 = run(capsys, *argv[:-1], "1")   # --workers 1
    assert (code_1, err_1) == (code, err)
    assert payload_of(out_1)["results"] == payload_of(out)["results"]


SWEEP_200 = ("sweep", "--A", "1.02", "--N", "200", "--s", "0.5,1",
             "--samples", "10")
UNIFORM_200 = ("--control", "uniform", "--N", "200", "--s", "0.5,1",
               "--samples")


@pytest.mark.parametrize("argv, chunks, point_sets", [
    (SWEEP_200, 1, 10),
    ((*SWEEP_200, "--workers", "3"), 1, 10),
    ((*SWEEP_200, "--workers", "1"), 1, 10),
    (("paircorr", "--smoothed", *UNIFORM_200, "2"), 1, 2),
    (("paircorr", "--smoothed", *UNIFORM_200, "1"), "all", 1),
    (("triple", *UNIFORM_200, "1", "--workers", "0"), "all", 1),
    (("triple", *UNIFORM_200, "1", "--workers", "5000"), "all", 1),
    (("paircorr", *UNIFORM_200, "1", "--workers", "1"), 1, 1),
    (("triple", *UNIFORM_200, "3", "--workers", "1"), 1, 3),
], ids=["sweep-pooled", "sweep-3", "sweep-1", "paircorr-pooled",
        "paircorr-one-job", "triple-0", "triple-5000", "paircorr-1",
        "triple-1"])
def test_the_thread_budget_of_a_counting_pass(capsys, monkeypatch, argv,
                                              chunks, point_sets):
    """Pooled jobs count in one chunk, so no process runs threads on top of
    the pool's; one job in this process counts in one chunk per allowed
    CPU (never more, whatever --workers asks), and --workers 1 in one."""
    monkeypatch.setattr(hpgen, "ProcessPoolExecutor", RecordingPool)
    monkeypatch.setattr(RecordingPool, "sizes", [])
    passes, _ = watch_counting(monkeypatch)
    code, out, err = run(capsys, *argv)
    assert code in (0, 1), err
    chunks = hpgen.allowed_cpus() if chunks == "all" else chunks
    assert len(passes) == chunks * point_sets
    assert len(set(passes)) == 1
