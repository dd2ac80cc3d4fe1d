"""``jobs/run.py``: each runner gets exactly the flags given, its tables print,
and only a run with no flags writes the runner's CSVs."""
import importlib.util
from pathlib import Path

import pandas as pd
import pytest

from repro.experiments import tables

ROOT = Path(__file__).resolve().parents[1]
RUNNERS = ["table2_stats", "table3_effectiveness", "table4_negative_classes",
           "table5_design_choices", "table6_memory", "table7_ml",
           "table10_clustering", "scalability_sweep"]


@pytest.fixture
def job(monkeypatch, tmp_path):
    """``jobs/run.py`` loaded by path, with a stand-in session, runners that
    record their keywords instead of running a pipeline, and its results
    directory moved to ``tmp_path / "results"``."""
    spec = importlib.util.spec_from_file_location("jobs_run", ROOT / "jobs" / "run.py")
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    calls = []

    class Session:
        def stop(self):
            calls.append("stop")

    def runner(name):
        def run(spark, **kwargs):
            calls.append((name, kwargs))
            df = pd.DataFrame({c: [0] for c in mod.ML_DETAIL_COLS + ["starmie_tid"]})
            return (df, df) if name == "table7_ml" else df
        return run

    monkeypatch.setattr(mod, "get_spark", lambda app: calls.append(app) or Session())
    monkeypatch.setattr(mod, "RESULTS", tmp_path / "results")
    for name in RUNNERS:
        monkeypatch.setattr(tables, name, runner(name))
    return mod, calls


@pytest.mark.parametrize("argv, kwargs", [([name], {}) for name in RUNNERS] + [
    (["table2_stats", "--scale", "0.5"], {"scale": 0.5}),
    (["table3_effectiveness", "--epochs", "4"], {"epochs": 4}),
    (["table3_effectiveness", "--scale", "2", "--benchmarks", "a", "b"],
     {"scale": 2.0, "benchmarks": ["a", "b"]}),
    (["table4_negative_classes", "--classes", "2", "3", "--epochs", "1"],
     {"classes": [2, 3], "epochs": 1}),
    (["table5_design_choices", "--scale", "1", "--bench", "wdc_lite", "--k", "5",
      "--epochs", "2"], {"scale": 1.0, "bench": "wdc_lite", "k": 5, "epochs": 2}),
    (["table6_memory", "--scale", "0.25"], {"scale": 0.25}),
    (["table7_ml", "--n-tasks", "3", "--gbt-iter", "2"], {"n_tasks": 3, "gbt_iter": 2}),
    (["table10_clustering", "--scale", "0.5"], {"scale": 0.5}),
    (["scalability_sweep", "--bench", "wdc_lite", "--scale", "0.5"],
     {"bench": "wdc_lite", "scale": 0.5}),
])
def test_runner_gets_the_flags_given(job, argv, kwargs, capsys):
    mod, calls = job
    mod.main(argv)
    assert calls == [argv[0], (argv[0], kwargs), "stop"]
    assert capsys.readouterr().out.startswith("\n=== ")


def test_table7_prints_detail_then_summary(job, capsys):
    mod, _ = job
    mod.main(["table7_ml"])
    out = capsys.readouterr().out
    assert out.index("=== Table 11 (lite): per-task MSE ===") < out.index(
        "=== Table 7 (lite): summary ===")
    assert out.count("starmie_tid") == 1  # shown in the summary only


@pytest.mark.parametrize("argv", [[], ["table9_nope"], ["table2_stats", "--epochs", "3"],
                                  ["table7_ml", "--scale", "1"]])
def test_unknown_runner_or_flag_exits_nonzero(job, argv):
    mod, calls = job
    with pytest.raises(SystemExit) as exc:
        mod.main(argv)
    assert exc.value.code != 0
    assert calls == []


def test_results_written_only_without_flags(job, tmp_path):
    """``results/`` holds each runner's defaults: a run with a flag writes
    nothing, and the runs without flags write every committed CSV name."""
    mod, _ = job
    results = tmp_path / "results"
    mod.main(["table7_ml", "--n-tasks", "2", "--gbt-iter", "2"])
    assert not results.exists()
    mod.main(["table7_ml"])
    assert sorted(p.name for p in results.iterdir()) == [
        "table11_ml_detail.csv", "table7_ml_summary.csv"]
    assert list(pd.read_csv(results / "table11_ml_detail.csv").columns) == \
        mod.ML_DETAIL_COLS + ["starmie_tid"]  # the whole frame, not the printed columns
    for name in RUNNERS:
        mod.main([name])
    committed = {p.name for p in (ROOT / "results").glob("*.csv")}
    assert committed <= {p.name for p in results.iterdir()}
