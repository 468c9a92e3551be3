"""Self-tests of the benchmark: generator, tracer, span arithmetic, smoke runs.

    python3 -m pytest perfbench -q

They import the package from ``src/`` and run each workload at the smoke
scale, so they take about a minute. They are not part of the package's
own test suite.
"""

from __future__ import annotations

import csv
import filecmp
import inspect
import json
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))
sys.path.insert(0, str(ROOT / "src"))

import gen  # noqa: E402
import tracer as tr  # noqa: E402


def _read_rows(path):
    with open(path, newline="", encoding="utf-8") as handle:
        return list(csv.DictReader(handle))


def test_generator_is_deterministic(tmp_path):
    a = gen.make_corpus(tmp_path / "a", 7, 400, 30)
    b = gen.make_corpus(tmp_path / "b", 7, 400, 30)
    c = gen.make_corpus(tmp_path / "c", 8, 400, 30)
    for key in ("records", "columns", "predictions"):
        assert filecmp.cmp(a["paths"][key], b["paths"][key], shallow=False)
    assert a["sizes"] == b["sizes"]
    assert not filecmp.cmp(a["paths"]["records"], c["paths"]["records"], shallow=False)


def test_generator_schema_children_and_prediction_ids(tmp_path):
    from multippi import ingest

    corpus = gen.make_corpus(tmp_path, 3, 3000, 20)
    rows = _read_rows(corpus["paths"]["records"])
    causes = {r["gs_text34"] for r in rows}
    assert causes <= set(ingest.CAUSE_MAP) and "malaria" in causes
    children = {r["newid"] for r in rows if float(r["g1_07a"]) < ingest.ADULT_MIN_AGE}
    assert len(children) == corpus["sizes"]["child_rows"] > 0
    predicted = {r["record_id"] for r in _read_rows(corpus["paths"]["predictions"])}
    assert predicted == {r["newid"] for r in rows} - children
    entries = ingest.parse_config_file(corpus["paths"]["columns"])
    loaded = ingest.load_records(corpus["paths"]["records"],
                                 ingest.column_map_from_config(entries))
    assert len(loaded.records) == corpus["sizes"]["adult_rows"]
    assert loaded.n_filtered_age == corpus["sizes"]["child_rows"]


def _snapshot(modules):
    snap = {}
    for module in modules:
        for name, value in vars(module).items():
            snap[(module.__name__, name)] = value
            if inspect.isclass(value):
                for attr, member in vars(value).items():
                    snap[(module.__name__, name, attr)] = member
    return snap


def test_install_uninstall_restores_every_attribute():
    tracer = tr.Tracer()
    modules = list(tracer.modules.values())
    before = _snapshot(modules)
    tracer.install()
    from multippi import experiment, ingest, textpred
    assert experiment.split is not before[("multippi.experiment", "split")]
    assert experiment.split is ingest.split
    assert textpred.NbModel.predict_many is not before[
        ("multippi.textpred", "NbModel", "predict_many")]
    assert "mlogit.nll_hess" in tracer.targets
    tracer.uninstall()
    after = _snapshot(modules)
    assert before.keys() == after.keys()
    assert all(after[k] is v for k, v in before.items())


def test_self_times_of_children_add_up_to_parent():
    # root [0, 10] with children [1, 4] and [5, 9]; [5, 9] has a child [6, 7]
    spans = [(1, "root", 0.0, 10.0, None, 0, None), (2, "a", 1.0, 4.0, 1, 0, None),
             (3, "b", 5.0, 9.0, 1, 0, None), (4, "c", 6.0, 7.0, 3, 0, None)]
    selfs = tr.self_times(spans)
    assert selfs == {1: 3.0, 2: 3.0, 3: 3.0, 4: 1.0}
    assert sum(selfs.values()) == 10.0
    # overlapping children (two pool workers) count their union once
    spans = [(1, "pool", 0.0, 10.0, None, 0, None), (2, "t", 1.0, 6.0, 1, 1, None),
             (3, "t", 2.0, 8.0, 1, 2, None), (4, "t", 3.0, 5.0, 1, 1, None)]
    assert tr.self_times(spans)[1] == pytest.approx(3.0)


def test_traced_calls_nest_and_self_times_sum():
    from multippi import ppi, simulate

    spec = simulate.default_spec(seed=1, n_labeled=150, n_unlabeled=300)
    data = simulate.generate(spec)
    tracer = tr.Tracer()
    tracer.install()
    try:
        ppi.fit_classical(data.x_labeled, data.y_labeled, 3)
    finally:
        tracer.uninstall()
    spans = tracer.spans
    roots = [s for s in spans if s[4] is None]
    assert [s[1] for s in roots] == ["ppi.fit_classical"]
    assert {"mlogit.fit_mle", "mlogit.newton_minimize", "mlogit.nll_hess"} <= {s[1] for s in spans}
    selfs = tr.self_times(spans)
    root = roots[0]
    assert sum(selfs.values()) == pytest.approx(root[3] - root[2], rel=1e-9, abs=1e-9)
    newton = [s for s in spans if s[1] == "mlogit.newton_minimize"][0][6]
    assert newton["evals"] == 1 + newton["hess"] + newton["backtracks"]


def test_pool_tasks_inherit_the_submitting_span():
    from multippi import simulate

    spec = simulate.default_spec(seed=2, n_labeled=60, n_unlabeled=120)
    tracer = tr.Tracer()
    tracer.install()
    try:
        simulate.coverage_experiment(spec, simulate.ASYMMETRIC_3CLASS, reps=100, threads=2)
    finally:
        tracer.uninstall()
    by_id = {s[0]: s for s in tracer.spans}
    roots = {s[0] for s in tracer.spans if s[4] is None}
    assert [by_id[r][1] for r in roots] == ["simulate.coverage_experiment"]
    assert len({s[5] for s in tracer.spans}) >= 2


def test_nonconverged_replications_count_each_replication_once():
    import run

    def fit(sid, start, thread, status):
        return (sid, "ppi.fit_naive", start, start + 1, None, thread, {"status": status})

    spans = [(1, "simulate.generate", 0.0, 1.0, None, 1, None),
             (2, "simulate.generate", 0.5, 1.5, None, 2, None),
             fit(3, 2.0, 1, "stalled"), fit(4, 2.5, 2, "converged"),
             fit(5, 3.0, 1, "max_iterations"),
             (6, "ppi.fit_classical", 3.5, 4.0, None, 2, {"error": "ShapeError"}),
             (7, "simulate.generate", 5.0, 6.0, None, 2, None), fit(8, 6.5, 2, "stalled")]
    assert run.nonconverged_replications(spans) == 2


def test_git_commit_reads_loose_and_packed_refs(tmp_path, monkeypatch):
    import run

    monkeypatch.setattr(run, "ROOT", tmp_path)
    assert run.git_commit() == "unknown"
    git = tmp_path / ".git"
    git.mkdir()
    (git / "HEAD").write_text("ref: refs/heads/main\n")
    (git / "packed-refs").write_text("# pack-refs with: peeled\n"
                                     "aaa refs/heads/other\nbbb refs/heads/main\n")
    assert run.git_commit() == "bbb"
    (git / "refs" / "heads").mkdir(parents=True)
    (git / "refs" / "heads" / "main").write_text("ccc\n")
    assert run.git_commit() == "ccc"


@pytest.mark.parametrize("workload", ["coverage", "infer_large", "loso_text"])
@pytest.mark.parametrize("trace", [0, 1])
def test_smoke_run_completes(workload, trace):
    proc = subprocess.run([sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
                           "--seed", "5", "--seconds", "1", "--trace", str(trace),
                           "--scale", "smoke"],
                          capture_output=True, text=True, cwd=ROOT, timeout=170)
    assert proc.returncode == 0, proc.stderr[-2000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["attempted"] >= 1
    # Tiny LOSO sites can lack a class in the labeled split, which fails the
    # labeled-only pilot fit (a real failure, counted); no other check may fail.
    assert result["correct"] or (workload == "loso_text" and result["failed"] > 0
                                 and proc.stdout.count("check FAIL") == 1
                                 and "check FAIL operations_failed" in proc.stdout)
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    kind = "per_layer" if trace else "end_to_end"
    assert list(result["metrics"]) == [m["name"] for m in declared[kind]]
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())


def test_benchmark_json_shape():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(bench) == {"command", "paths", "run_seconds", "workloads",
                          "end_to_end", "per_layer"}
    assert 2 <= len(bench["workloads"]) <= 8 and len(bench["per_layer"]) <= 128
    assert all(0 < m["bound"] <= 0.25 for m in bench["end_to_end"])
    assert {"name": "setup_s", "unit": "s", "better": "lower"} == {
        k: v for k, v in next(m for m in bench["end_to_end"]
                              if m["name"] == "setup_s").items() if k != "bound"}
    names = [m["name"] for kind in ("workloads", "end_to_end", "per_layer")
             for m in bench[kind]]
    assert all(len(n) <= 64 for n in names)
    assert all(len(w["why"]) <= 200 for w in bench["workloads"])
    # A run measured about 10-25 s beyond run_seconds (inputs, set-up, last iteration).
    runs = 4 + 22 * len(bench["workloads"])
    assert runs * (bench["run_seconds"] + 25) < 3420
    assert all(isinstance(v, str) for v in bench["command"])
