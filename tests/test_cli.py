import json
import logging
import subprocess
import sys
from dataclasses import fields

import numpy as np
import pytest

from dtwsearch import (
    EmptyFile,
    NonFiniteValue,
    RaggedRows,
    SearchStats,
    TimeSeries,
    dtw_matrix_full,
    upper_bound_matrix,
)
from dtwsearch.cli import emit_csv, ingest_csv, main


def write(path, text):
    path.write_text(text)
    return str(path)


def test_ingest_plain(tmp_path):
    ts = ingest_csv(write(tmp_path / "a.csv", "0,0\n1,2\n"))
    assert ts.values.tolist() == [[0.0, 0.0], [1.0, 2.0]]


def test_ingest_header_skipped(tmp_path):
    ts = ingest_csv(write(tmp_path / "a.csv", "x,y\n0,0\n1,2\n"))
    assert ts.values.tolist() == [[0.0, 0.0], [1.0, 2.0]]


def test_ingest_ragged_cites_line(tmp_path):
    with pytest.raises(RaggedRows, match=":2:"):
        ingest_csv(write(tmp_path / "a.csv", "0,0\n1\n"))


def test_ingest_rejects_non_finite_and_empty(tmp_path):
    with pytest.raises(NonFiniteValue):
        ingest_csv(write(tmp_path / "a.csv", "0,nan\n"))
    with pytest.raises(EmptyFile):
        ingest_csv(write(tmp_path / "b.csv", "\n\n"))
    with pytest.raises(EmptyFile):
        ingest_csv(write(tmp_path / "c.csv", "x,y\n"))


def test_csv_round_trip_full_precision(tmp_path, rng):
    ts = TimeSeries(values=rng.normal(size=(40, 3)) * 1e3)
    path = tmp_path / "rt.csv"
    emit_csv(ts, path)
    back = ingest_csv(path)
    assert np.array_equal(back.values, ts.values)


def worked_example_files(tmp_path):
    a = write(tmp_path / "u.csv", "0\n1\n3\n")
    b = write(tmp_path / "w.csv", "0\n2\n")
    return a, b


def test_search_command_worked_example(tmp_path):
    a, b = worked_example_files(tmp_path)
    out = tmp_path / "res.json"
    rc = main(["search", "--a", a, "--b", b, "--wa", "2", "--wb", "2", "--out", str(out)])
    assert rc == 0
    doc = json.loads(out.read_text())
    assert doc["solutions"] == [{"a": 1, "b": 1}]
    assert doc["shortest_dist"] == 1.0
    assert doc["swapped"] is False
    assert doc["band_radius"] is None


def test_search_dump_bounds(tmp_path):
    a, b = worked_example_files(tmp_path)
    out = tmp_path / "res.json"
    prefix = tmp_path / "bounds"
    rc = main([
        "search", "--a", a, "--b", b, "--wa", "2", "--wb", "2",
        "--out", str(out), "--dump-bounds", str(prefix),
    ])
    assert rc == 0
    minpath = (tmp_path / "bounds.minpath.csv").read_text().splitlines()
    maxpath = (tmp_path / "bounds.maxpath.csv").read_text().splitlines()
    assert minpath[0].startswith("#") and maxpath[0].startswith("#")
    assert [ln for ln in minpath if not ln.startswith("#")] == ["1.0", "2.0"]
    assert [ln for ln in maxpath if not ln.startswith("#")] == ["1.0", "2.0"]


def test_search_dump_bounds_banded(tmp_path):
    # Windows 6x3 with radius 1: the in-band path (columns 0,1,1,1,1,2)
    # differs from the unbanded diagonal-then-last-column one.
    u = np.sin(np.arange(12.0))
    w = np.cos(np.arange(9.0))
    a = write(tmp_path / "u.csv", "\n".join(map(repr, u.tolist())) + "\n")
    b = write(tmp_path / "w.csv", "\n".join(map(repr, w.tolist())) + "\n")
    out = tmp_path / "res.json"
    prefix = tmp_path / "bounds"
    rc = main([
        "search", "--a", a, "--b", b, "--wa", "6", "--wb", "3", "--band", "1",
        "--out", str(out), "--dump-bounds", str(prefix),
    ])
    assert rc == 0
    m = np.abs(u[:, None] - w[None, :])
    maxpath = np.loadtxt(tmp_path / "bounds.maxpath.csv", delimiter=",", comments="#")
    minpath = np.loadtxt(tmp_path / "bounds.minpath.csv", delimiter=",", comments="#")
    assert np.array_equal(maxpath, upper_bound_matrix(m, 6, 3, radius=1))
    assert not np.allclose(maxpath, upper_bound_matrix(m, 6, 3))
    banded = dtw_matrix_full(m, 6, 3, radius=1)
    assert np.all(minpath <= banded + 1e-9) and np.all(banded <= maxpath + 1e-9)
    doc = json.loads(out.read_text())
    assert doc["band_radius"] == 1
    assert doc["shortest_dist"] == pytest.approx(banded.min(), abs=1e-12)


def test_topk_command(tmp_path):
    a, b = worked_example_files(tmp_path)
    out = tmp_path / "topk.json"
    rc = main(["topk", "--a", a, "--b", b, "--wa", "2", "--wb", "2", "--k", "2", "--out", str(out)])
    assert rc == 0
    doc = json.loads(out.read_text())
    assert doc == [
        {"rank": 1, "a": 1, "b": 1, "distance": 1.0},
        {"rank": 2, "a": 2, "b": 1, "distance": 2.0},
    ]


def test_topk_more_than_placements_warns(tmp_path, caplog):
    a, b = worked_example_files(tmp_path)
    out = tmp_path / "topk.json"
    argv = ["topk", "--a", a, "--b", b, "--wa", "2", "--wb", "2", "--k", "5", "--out", str(out)]
    with caplog.at_level(logging.WARNING, logger="dtwsearch"):
        assert main(argv) == 0
    warning = "warning: fewer than k=5 matches exist; returning 2"
    assert [(r.name, r.levelname, r.getMessage()) for r in caplog.records] == [("dtwsearch", "WARNING", warning)]
    assert len(json.loads(out.read_text())) == 2
    # A fresh process prints the same line on stderr.
    proc = subprocess.run([sys.executable, "-m", "dtwsearch", *argv], capture_output=True, text=True)
    assert proc.returncode == 0
    assert proc.stderr == warning + "\n"


def test_simulate_then_evaluate_round_trip(tmp_path):
    out_a, out_b, out_gt = (str(tmp_path / n) for n in ("a.csv", "b.csv", "gt.json"))
    rc = main([
        "simulate", "--len-a", "240", "--len-b", "240", "--motif-a", "30", "--motif-b", "40",
        "--delay", "10", "--gamma", "0.0", "--seed", "5", "--out-a", out_a, "--out-b", out_b,
        "--out-gt", out_gt,
    ])
    assert rc == 0
    gt = json.loads((tmp_path / "gt.json").read_text())
    assert gt["interval_u"][1] - gt["interval_u"][0] + 1 == 30
    assert gt["spec"]["seed"] == 5

    res_json = str(tmp_path / "res.json")
    rc = main(["search", "--a", out_a, "--b", out_b, "--wa", "30", "--wb", "40", "--out", res_json])
    assert rc == 0

    score_json = str(tmp_path / "score.json")
    rc = main(["evaluate", "--pred", res_json, "--gt", out_gt, "--out", score_json])
    assert rc == 0
    score = json.loads((tmp_path / "score.json").read_text())
    assert score["f1"] >= 0.9


def test_evaluate_perfect_prediction(tmp_path):
    gt_path = tmp_path / "gt.json"
    gt_path.write_text(json.dumps({"interval_u": [5, 10], "interval_w": [7, 12]}))
    pred_path = tmp_path / "pred.json"
    pred_path.write_text(json.dumps({"interval_u": [5, 10], "interval_w": [7, 12]}))
    out = tmp_path / "score.json"
    rc = main(["evaluate", "--pred", str(pred_path), "--gt", str(gt_path), "--out", str(out)])
    assert rc == 0
    assert json.loads(out.read_text())["f1"] == 1.0


def test_simulate_determinism_byte_identical(tmp_path):
    args = lambda sfx: [
        "simulate", "--len-a", "120", "--len-b", "120", "--motif-a", "20", "--motif-b", "25",
        "--gamma", "0.2", "--seed", "9",
        "--out-a", str(tmp_path / f"a{sfx}.csv"), "--out-b", str(tmp_path / f"b{sfx}.csv"),
        "--out-gt", str(tmp_path / f"g{sfx}.json"),
    ]
    assert main(args("1")) == 0
    assert main(args("2")) == 0
    assert (tmp_path / "a1.csv").read_bytes() == (tmp_path / "a2.csv").read_bytes()
    assert (tmp_path / "b1.csv").read_bytes() == (tmp_path / "b2.csv").read_bytes()
    assert (tmp_path / "g1.json").read_bytes() == (tmp_path / "g2.json").read_bytes()


def test_search_determinism_excluding_runtime(tmp_path):
    a, b = worked_example_files(tmp_path)
    docs = []
    for name in ("r1.json", "r2.json"):
        out = tmp_path / name
        assert main(["search", "--a", a, "--b", b, "--wa", "2", "--wb", "2", "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        doc["stats"] = {k: v for k, v in doc["stats"].items() if not k.endswith("_ms")}
        docs.append(doc)
    assert docs[0] == docs[1]


def test_lead_command_grid(tmp_path, rng):
    d = tmp_path / "ind"
    d.mkdir()
    for name in ("one", "two", "three"):
        vals = rng.normal(size=(60, 2))
        emit_csv(TimeSeries(values=vals), d / f"{name}.csv")
    out = tmp_path / "lead.csv"
    rc = main([
        "lead", "--dir", str(d), "--window", "8", "--k", "10",
        "--from", "1", "--to", "50", "--out", str(out),
    ])
    assert rc == 0
    lines = out.read_text().splitlines()
    ids = sorted(["one", "two", "three"])
    assert lines[0] == "leader," + ",".join(ids)
    grid = {}
    for ln in lines[1:]:
        cells = ln.split(",")
        for fid, v in zip(ids, cells[1:]):
            grid[(cells[0], fid)] = int(v)
    for i in ids:
        assert grid[(i, i)] == 0
        for j in ids:
            assert grid[(i, j)] == -grid[(j, i)]


def test_bench_command_counters(tmp_path):
    out = tmp_path / "bench.csv"
    rc = main([
        "bench", "--lengths", "120", "--windows", "20x25", "--gammas", "0.0",
        "--methods", "bruteforce,sp", "--seeds", "0", "--warmup", "0", "--reps", "1",
        "--out", str(out),
    ])
    assert rc == 0
    lines = out.read_text().splitlines()
    header = lines[0].split(",")
    # The stats columns are SearchStats' fields, in order, after the settings.
    settings = ["method", "length", "window_a", "window_b", "gamma", "seed", "band_radius"]
    assert header == settings + [f.name for f in fields(SearchStats)]
    rows = [dict(zip(header, ln.split(","))) for ln in lines[1:]]
    by_method = {r["method"]: r for r in rows}
    assert set(by_method) == {"bruteforce", "sp"}
    sp, bf = by_method["sp"], by_method["bruteforce"]
    assert int(sp["dtw_evaluations"]) <= int(bf["pairs_total"])
    assert int(sp["pairs_after_prune"]) <= int(sp["pairs_total"])
    assert int(bf["dtw_evaluations"]) == int(bf["pairs_total"])


def test_bench_all_methods_agree_on_band_radius(tmp_path):
    out = tmp_path / "bench.csv"
    rc = main([
        "bench", "--lengths", "100", "--windows", "15", "--gammas", "0.1",
        "--methods", "bruteforce,sakoe_chiba,sp,sp_sakoe_chiba", "--seeds", "1",
        "--warmup", "0", "--reps", "1", "--out", str(out),
    ])
    assert rc == 0
    lines = out.read_text().splitlines()
    assert len(lines) == 5  # header + 4 methods


def test_bench_rejects_zero_reps(tmp_path, capsys):
    # Also a zero band, which would fall back to the default radius, and a negative warm-up.
    for bad in (["--reps", "0"], ["--band", "0"], ["--warmup", "-3"]):
        rc = main([
            "bench", "--lengths", "60", "--windows", "10", "--gammas", "0.1", "--methods", "sp,sp_sakoe_chiba",
            "--seeds", "0", "--warmup", "0", "--reps", "1", *bad, "--out", str(tmp_path / "bench.csv"),
        ])
        assert rc == 1, bad
        assert json.loads(capsys.readouterr().err.strip())["error"] == "InvalidSpec"
    assert not (tmp_path / "bench.csv").exists()


def test_missing_input_reports_error_json(tmp_path, capsys):
    rc = main(["search", "--a", str(tmp_path / "nope.csv"), "--b", str(tmp_path / "nope.csv"),
               "--wa", "2", "--wb", "2", "--out", str(tmp_path / "o.json")])
    assert rc == 1
    err = json.loads(capsys.readouterr().err.strip())
    assert "error" in err and "message" in err


def test_missing_output_directory_reports_error_json(tmp_path, capsys):
    a, b = worked_example_files(tmp_path)
    rc = main(["search", "--a", a, "--b", b, "--wa", "2", "--wb", "2",
               "--out", str(tmp_path / "no_such_dir" / "o.json")])
    assert rc == 1
    err = json.loads(capsys.readouterr().err.strip())
    assert err["error"] == "InvalidSpec"
    assert not (tmp_path / "no_such_dir").exists()


def test_window_too_large_reports_error(tmp_path, capsys):
    a, b = worked_example_files(tmp_path)
    rc = main(["search", "--a", a, "--b", b, "--wa", "11", "--wb", "2", "--out", str(tmp_path / "o.json")])
    assert rc == 1
    err = json.loads(capsys.readouterr().err.strip())
    assert err["error"] == "WindowTooLarge"
