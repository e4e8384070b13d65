"""Tests of the benchmark itself. Run with ``python3 -m pytest perfbench``."""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
from spans import WRAPPED, MissingWrappedName, Tracer, layer_metric_units  # noqa: E402
from workloads import Command, Gate, build_commands, load_expected  # noqa: E402


@pytest.fixture(scope="module")
def cli():
    return run.import_cli()


def _corrupt(entry: dict) -> dict:
    if "sha256" in entry:
        return {"sha256": "0" * 64}
    name = next(iter(entry))
    return {**entry, name: entry[name] + 1}


@pytest.mark.parametrize(
    "workload, kind",
    [("simulate", "simulate"), ("trace-phases", "phases"),
     ("sweep", "sweep"), ("exact-search", "brute-force")],
)
def test_corrupted_expectation_fails_exactly_that_command(cli, tmp_path, workload, kind):
    commands = build_commands(workload, 7, tmp_path)
    victim = next(cmd.key for cmd in commands if cmd.kind == kind)
    expected = load_expected()
    expected[victim] = _corrupt(expected[victim])
    runner = run.Runner(cli, commands, Gate(expected, 7))
    runner.one_pass()
    assert runner.attempted == len(commands)
    assert len(runner.failures) == 1 and runner.failures[0].startswith(victim)
    assert len(runner.failures) / runner.attempted > 0


def test_missing_wrapped_name_fails_the_traced_run(cli, tmp_path, monkeypatch):
    monkeypatch.delattr(cli, "partition_phases")
    runner = run.Runner(cli, build_commands("sweep", 1, tmp_path), Gate(load_expected(), 1))
    with pytest.raises(MissingWrappedName, match="partition_phases"):
        run.per_layer(runner, 0.0, tmp_path / "spans.json")
    assert runner.attempted == 0


def _tiny_commands(workdir: Path) -> list[Command]:
    """One small command per CLI path, so that every wrapped layer is called."""
    trace = workdir / "trace.txt"
    argvs = {
        "simulate": ["simulate", "-m", "5", "-n", "4", "-k", "3", "-S", "9", "--alg", "alg-c",
                     "--trace-out", str(trace)],
        "phases": ["phases", "-m", "5", "-n", "4", "-k", "3", "-S", "9", "--trace-in", str(trace)],
        "sweep": ["sweep", "--sizes", "8,16", "--capacities", "9"],
        "brute-force": ["brute-force", "-m", "2", "-n", "2", "-k", "1", "-S", "4"],
    }
    return [
        Command(kind, tuple(argv + ["-o", str(workdir / kind)]), kind, workdir / kind)
        for kind, argv in argvs.items()
    ]


def test_traced_run_reports_every_per_layer_metric(cli, tmp_path):
    runner = run.Runner(cli, _tiny_commands(tmp_path), Gate({}, 1))
    metrics = run.per_layer(runner, 0.0, tmp_path / "spans.json")
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
    assert [m["name"] for m in declared] == list(metrics)
    units = layer_metric_units()
    for m in declared:
        assert (m["unit"], m["better"]) == units[m["name"]]
        assert metrics[m["name"]][1] == m["unit"]
    for name, (layer, _, extra) in WRAPPED.items():
        assert metrics[f"{layer}.{name}.s"][0] > 0, name
        assert metrics[f"{layer}.{name}.errors"][0] == 0, name
        for metric in extra:
            assert metrics[f"{layer}.{name}.{metric}"][0] > 0, (name, metric)
    assert metrics["cli.self_s"][0] > 0
    spans = json.loads((tmp_path / "spans.json").read_text())
    names = {span["name"] for span in spans}
    assert {f"{layer}.{name}" for name, (layer, _, _) in WRAPPED.items()} <= names
    for span in spans:
        if span["parent"] is not None:
            parent = spans[span["parent"]]
            assert parent["name"].startswith("cli.")
            assert parent["start"] <= span["start"] <= span["end"] <= parent["end"]


def test_layer_counts_repeat_exactly_across_passes(cli, tmp_path):
    tracer = Tracer(cli)
    runner = run.Runner(cli, _tiny_commands(tmp_path), Gate({}, 1))
    with tracer.installed():
        runner.one_pass(tracer, 0)
        runner.one_pass(tracer, 1)
    counts = tracer.pass_counts()
    assert counts[0] == counts[1]
    assert counts[0]["execute"]["fmas"] == 5 * 4 * 3


def test_end_to_end_metrics_match_the_declared_ones(cli, tmp_path):
    runner = run.Runner(cli, _tiny_commands(tmp_path), Gate({}, 1))
    metrics = run.end_to_end(runner, "sweep", 1, 0.0)
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    assert sorted(m["name"] for m in declared) == sorted(metrics)
    for m in declared:
        value, unit = metrics[m["name"]]
        assert unit == m["unit"] and value > 0


def test_exits_nonzero_without_the_program_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "sweep", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode != 0
    assert done.stdout == ""
