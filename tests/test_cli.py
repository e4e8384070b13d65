"""CLI behavior: exit codes, wire formats, determinism, and the verify
suite's failure reporting."""

import collections
import contextlib
import dataclasses
import hashlib
import io
import itertools
import json
import os
import re
import subprocess
import sys
import threading
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import iomma.algorithms
import iomma.bounds
import iomma.cli as cli
import iomma.memsim
import iomma.phases
import iomma.tracefile
import iomma.verify
from iomma import (
    Algorithm,
    MemoryConfig,
    PredictedIO,
    ProblemDims,
    SimulationError,
    build_schedule,
    dump_trace,
    execute,
    parse_trace,
    phases_to_csv,
    seeded_matrices,
)
from iomma.cli import main
from iomma.memsim import decode_trace, trace_line, write_trace
from iomma.phases import PhaseConfig, partition_phases

GOLDEN_DIR = Path(__file__).parent / "data" / "cli_golden"
GOLDEN_TRACE = GOLDEN_DIR / "simulate_trace.txt"
_DIMS_6 = ["-m", "6", "-n", "6", "-k", "6", "-S", "16"]
_DIMS_60 = ["-m", "60", "-n", "60", "-k", "60", "-S", "16"]
_GOTO_96 = ["-m", "96", "-n", "96", "-k", "96", "--n-c", "48", "--k-c", "12",
            "--m-c", "12", "--s2", "144", "--s3", "576"]

# The README's documented commands at small sizes. Each file holds the exact
# stdout bytes recorded before the CLI payloads were rebuilt from the report
# dataclasses, so any drift in key order, float text or CSV flattening fails.
# The two simulate files were re-recorded when the per-operand reads joined
# the report; test_simulate_keeps_every_earlier_key pins the rest of them.
# sweep_repeats.csv was recorded before sweep built each shape's dims and
# each (shape, S) bound once; it pins the rows of repeated values.
GOLDEN = {
    "simulate.json": ["simulate", *_DIMS_6, "--alg", "alg-c"],
    "simulate.csv": ["simulate", *_DIMS_6, "--alg", "alg-c", "--format", "csv"],
    "predict.json": ["predict", *_DIMS_60, "--alg", "alg-c"],
    "predict.csv": ["predict", *_DIMS_60, "--alg", "alg-c", "--format", "csv"],
    "bounds.json": ["bounds", *_DIMS_6],
    "bounds.csv": ["bounds", *_DIMS_6, "--format", "csv"],
    "phases.csv": ["phases", *_DIMS_6, "--alg", "alg-c"],
    "phases.json": ["phases", *_DIMS_6, "--alg", "alg-c", "--format", "json"],
    "phases_trace.csv": ["phases", *_DIMS_6, "--trace-in", str(GOLDEN_TRACE)],
    "phases_trace.json": ["phases", *_DIMS_6, "--trace-in", str(GOLDEN_TRACE),
                          "--format", "json"],
    "goto.json": ["goto", *_GOTO_96],
    "goto.csv": ["goto", *_GOTO_96, "--format", "csv"],
    "sweep_sizes.csv": ["sweep", "--algs", "alg-c,alg-b", "--sizes", "60,120,240",
                        "--capacities", "16,64"],
    "sweep_lists.csv": ["sweep", "--algs", "naive", "--m-list", "4,8", "--n-list", "4",
                        "--k-list", "2,4", "--capacities", "9"],
    "sweep_repeats.csv": ["sweep", "--algs", "alg-c,naive,alg-c", "--sizes", "60,5,60",
                          "--capacities", "16,9,16"],
    "brute_force.json": ["brute-force", "-m", "2", "-n", "2", "-k", "1", "-S", "4"],
}


def _run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_documented_command_output_is_golden(capsys, name):
    code, out, err = _run(capsys, *GOLDEN[name])
    assert (code, err) == (0, "")
    assert out.encode() == (GOLDEN_DIR / name).read_bytes()


def test_trace_out_is_golden(tmp_path, capsys):
    trace = tmp_path / "trace.txt"
    code, out, _ = _run(capsys, *GOLDEN["simulate.json"], "--trace-out", str(trace))
    assert code == 0
    assert out.encode() == (GOLDEN_DIR / "simulate.json").read_bytes()
    assert trace.read_bytes() == GOLDEN_TRACE.read_bytes()


# sha256 of simulate.json and simulate.csv as recorded before the per-operand
# read counts were added: without those keys, the output is byte-identical
_SIMULATE_BEFORE_OPERAND_READS = {
    "simulate.json": "4e89af6003abc36adc18fdf33d973b8a2ae804f9d98b6ef6e0f4f7f095e15b84",
    "simulate.csv": "a24529c613dc131d825a26a617dc1c508c6ac1dc103e15f5f3c45ad7e7f9cc2b",
}
_OPERAND_READS = ("reads_a", "reads_b", "reads_c")


@pytest.mark.parametrize("name", sorted(_SIMULATE_BEFORE_OPERAND_READS))
def test_simulate_keeps_every_earlier_key(capsys, name):
    code, out, _ = _run(capsys, *GOLDEN[name])
    assert code == 0
    if name.endswith(".json"):
        payload = json.loads(out)
        split = [payload[key] for key in _OPERAND_READS]
        earlier = "".join(
            line for line in out.splitlines(keepends=True)
            if line.strip().split(":")[0].strip('"') not in _OPERAND_READS
        )
    else:
        header, row = (line.split(",") for line in out.splitlines())
        split = [int(row[header.index(key)]) for key in _OPERAND_READS]
        keep = [index for index, key in enumerate(header) if key not in _OPERAND_READS]
        earlier = "".join(",".join(cells[index] for index in keep) + "\n" for cells in (header, row))
    assert split == [72, 72, 36]
    digest = hashlib.sha256(earlier.encode()).hexdigest()
    assert digest == _SIMULATE_BEFORE_OPERAND_READS[name]


def test_readme_simulate_example_is_golden():
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    example = readme.split("```json\n", 1)[1].split("```\n", 1)[0]
    assert example.encode() == (GOLDEN_DIR / "simulate.json").read_bytes()


def test_simulate_json(capsys):
    code, out, _ = _run(
        capsys, "simulate", "-m", "6", "-n", "6", "-k", "6", "-S", "16",
        "--alg", "alg-c",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["reads"] == 180
    assert payload["writes"] == 36
    assert payload["fmas"] == 216
    assert payload["peak_residency"] == 15
    assert payload["counts_match"] and payload["bitwise_match"] and payload["match"]


def test_simulate_deterministic(capsys):
    argv = ["simulate", "-m", "5", "-n", "4", "-k", "3", "-S", "9", "--alg", "alg-b"]
    code1, out1, _ = _run(capsys, *argv)
    code2, out2, _ = _run(capsys, *argv)
    assert code1 == code2 == 0
    assert out1 == out2


def test_simulate_seed_changes_nothing_structural(capsys):
    base = ["simulate", "-m", "4", "-n", "4", "-k", "4", "-S", "9", "--alg", "alg-a"]
    _, out1, _ = _run(capsys, *base, "--seed", "1")
    for seed in ("99", "-7"):
        _, out2, _ = _run(capsys, *base, "--seed", seed)
        p1, p2 = json.loads(out1), json.loads(out2)
        assert p2["seed"] == int(seed)
        assert p1["reads"] == p2["reads"] and p1["writes"] == p2["writes"]
        assert p1["match"] and p2["match"]


def test_simulate_trace_out(tmp_path, capsys):
    trace_file = tmp_path / "trace.txt"
    code, _, _ = _run(
        capsys, "simulate", "-m", "2", "-n", "2", "-k", "2", "-S", "4",
        "--alg", "naive", "--trace-out", str(trace_file),
    )
    assert code == 0
    lines = trace_file.read_text().splitlines()
    assert lines[0] == "L A 0 0"
    assert len(lines) == 7 * 8  # naive emits 7 events per fma


def test_predict_csv(capsys):
    code, out, _ = _run(
        capsys, "predict", "-m", "60", "-n", "60", "-k", "60", "-S", "16",
        "--alg", "alg-c", "--format", "csv",
    )
    assert code == 0
    header, row = out.splitlines()
    cells = dict(zip(header.split(","), row.split(",")))
    assert cells["reads"] == "147600"
    assert cells["writes"] == "3600"
    assert cells["io_total"] == "151200"


def test_bounds_default_M_is_2S(capsys):
    code, out, _ = _run(capsys, "bounds", "-m", "6", "-n", "6", "-k", "6", "-S", "16")
    assert code == 0
    payload = json.loads(out)
    assert payload["M"] == 32
    assert payload["general_bound"] == payload["bound_M_eq_2S"] == 76.0
    assert payload["hong_kung_reference"] == 108.0


def test_phases_csv_matches_library(capsys):
    code, out, _ = _run(
        capsys, "phases", "-m", "6", "-n", "6", "-k", "6", "-S", "16",
        "--alg", "alg-c",
    )
    assert code == 0
    schedule = build_schedule(Algorithm.C, ProblemDims(6, 6, 6), 16)
    assert out == phases_to_csv(partition_phases(schedule, PhaseConfig(32)))
    assert len(out.splitlines()) == 8


def test_phases_roundtrip_through_trace_file(tmp_path, capsys):
    trace_file = tmp_path / "t.txt"
    _run(
        capsys, "simulate", "-m", "3", "-n", "3", "-k", "3", "-S", "16",
        "--alg", "alg-c", "--trace-out", str(trace_file),
    )
    code, from_file, _ = _run(
        capsys, "phases", "-m", "3", "-n", "3", "-k", "3", "-S", "16",
        "--trace-in", str(trace_file),
    )
    assert code == 0
    _, direct, _ = _run(
        capsys, "phases", "-m", "3", "-n", "3", "-k", "3", "-S", "16",
        "--alg", "alg-c",
    )
    assert from_file == direct


def test_phases_json_flags(capsys):
    code, out, _ = _run(
        capsys, "phases", "-m", "6", "-n", "6", "-k", "6", "-S", "16",
        "--alg", "alg-c", "--format", "json",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["loomis_whitney_ok"] is True
    assert payload["capacity_ok"] is True
    assert len(payload["phases"]) == 7
    assert payload["efficiency"] == 1.0  # 216 fmas / 216 transfers


def test_goto_json(capsys):
    code, out, _ = _run(
        capsys, "goto", "-m", "96", "-n", "96", "-k", "96",
        "--n-c", "48", "--k-c", "12", "--m-c", "12", "--s2", "144", "--s3", "576",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["l3_reads"] == 101376.0
    assert payload["l2_reads"] == 156672.0
    assert payload["l2_ratio"] == pytest.approx(1.0625)
    assert payload["l3_suboptimal"] is True


@pytest.mark.parametrize("threshold,suboptimal", [("1.4", False), ("1e0", True), ("2", False)])
def test_goto_threshold_takes_a_fraction_or_exponent(capsys, threshold, suboptimal):
    code, out, _ = _run(capsys, "goto", *_GOTO_96, "--threshold", threshold)
    assert code == 0
    assert json.loads(out)["l3_suboptimal"] is suboptimal  # l3_ratio is 1.375


def test_sweep_csv(capsys):
    code, out, _ = _run(
        capsys, "sweep", "--algs", "alg-c", "--sizes", "60,120",
        "--capacities", "16",
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == cli.SWEEP_CSV_HEADER
    assert len(lines) == 3
    first = lines[1].split(",")
    assert first[:5] == ["alg-c", "60", "60", "60", "16"]
    assert first[5] == "147600"
    assert float(first[9]) == pytest.approx(1.400414937759336, rel=1e-12)


def test_sweep_empty_grid(capsys):
    code, out, _ = _run(capsys, "sweep", "--sizes", "", "--capacities", "16")
    assert code == 0
    assert out == cli.SWEEP_CSV_HEADER + "\n"


def test_sweep_ratio_blank_when_bound_nonpositive(capsys):
    code, out, _ = _run(
        capsys, "sweep", "--algs", "naive", "--sizes", "2", "--capacities", "16"
    )
    assert code == 0
    row = out.splitlines()[1]
    assert row.endswith(",")  # lb <= 0 leaves the ratio cell empty
    assert float(row.split(",")[8]) < 0


def test_sweep_cartesian_lists_sorted(capsys):
    code, out, _ = _run(
        capsys, "sweep", "--algs", "naive", "--m-list", "4,2", "--n-list", "3",
        "--k-list", "2", "--capacities", "9,4",
    )
    assert code == 0
    rows = [line.split(",")[1:5] for line in out.splitlines()[1:]]
    assert rows == [
        ["2", "3", "2", "4"], ["2", "3", "2", "9"],
        ["4", "3", "2", "4"], ["4", "3", "2", "9"],
    ]


def test_sweep_naive_ratio_flat_near_8(capsys):
    # naive pays 4mnk against a bound just under 2mnk/sqrt(16): the ratio
    # sits a hair above 2*sqrt(S) = 8 and drifts down toward it
    code, out, _ = _run(
        capsys, "sweep", "--algs", "naive", "--sizes", "60,120,240",
        "--capacities", "16",
    )
    assert code == 0
    ratios = [float(line.split(",")[9]) for line in out.splitlines()[1:]]
    assert ratios[0] > ratios[1] > ratios[2] > 8.0
    assert ratios[0] < 8.01


# The sweep before it built each shape's dims and each (shape, S) bound once:
# every point sorted, then each row from its own dims and bound.
def _oracle_sweep_points(ns):
    lists = (ns.m_list, ns.n_list, ns.k_list)
    listed = sum(lst is not None for lst in lists)
    if ns.sizes is not None and listed:
        raise ValueError("pass either --sizes or --m-list/--n-list/--k-list, not both")
    if ns.sizes is not None:
        shapes = [(s, s, s) for s in ns.sizes]
    elif listed == 3:
        shapes = list(itertools.product(*lists))
    elif listed:
        raise ValueError("--m-list, --n-list and --k-list must be given together")
    else:
        raise ValueError("sweep needs --sizes or --m-list/--n-list/--k-list")
    points = [(alg, m, n, k, S) for alg in ns.algs for (m, n, k) in shapes for S in ns.capacities]
    points.sort(key=lambda t: (t[0].value, t[1], t[2], t[3], t[4]))
    return points


def _oracle_sweep_row(point):
    alg, m, n, k, S = point
    dims = ProblemDims(m, n, k)
    predicted = iomma.algorithms.predicted_io(alg, dims, S)
    lb = iomma.bounds.lower_bound_final(dims, S)
    io_total = predicted.io_total
    ratio = io_total / lb if lb > 0 else None
    return (
        f"{alg.value},{m},{n},{k},{S},{predicted.reads},{predicted.writes},"
        f"{io_total},{lb!r},{'' if ratio is None else repr(ratio)}"
    )


def _oracle_sweep(argv):
    """The earlier sweep's exit code, stdout and stderr."""
    ns = cli.build_parser().parse_args(argv)
    try:
        rows = [_oracle_sweep_row(point) for point in _oracle_sweep_points(ns)]
    except ValueError as exc:
        return 1, "", f"error: {exc}\n"
    return 0, "\n".join([cli.SWEEP_CSV_HEADER] + rows) + "\n", ""


def _run_captured(argv):
    """main's exit code, stdout and stderr, without a pytest fixture."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


_LISTS = ("--m-list", "--n-list", "--k-list")
# small values repeat often; capacities 1 to 3 are below the blocked presets' least S
_SWEEP_VALUES = st.lists(st.integers(1, 9) | st.sampled_from([30, 60, 97]), max_size=4)
_SWEEP_CAPACITIES = st.lists(st.integers(1, 3) | st.integers(4, 100), max_size=4)


def _csv_list(values):
    return ",".join(map(str, values))


@st.composite
def _sweep_argvs(draw):
    """A sweep over drawn, often repeated and unsorted values; now and then
    with the shape flags refused, as both forms or lists missing."""
    argv = ["sweep"]
    if draw(st.booleans()):  # else the default, every algorithm
        algs = draw(st.lists(st.sampled_from(list(Algorithm)), max_size=5))
        argv += ["--algs", ",".join(alg.value for alg in algs)]
    flags = draw(st.sampled_from(
        [("--sizes",)] * 3 + [_LISTS] * 3 + [("--sizes", *_LISTS), _LISTS[:2], ()]
    ))
    for flag in flags:
        argv += [flag, _csv_list(draw(_SWEEP_VALUES))]
    return argv + ["--capacities", _csv_list(draw(_SWEEP_CAPACITIES))]


@settings(max_examples=200, deadline=None)
@given(argv=_sweep_argvs())
# a loop over shapes first names naive's error, not alg-a's
@example(argv=["sweep", "--m-list", "9,3", "--n-list", "4,4", "--k-list", "7",
               "--capacities", "2,100"])
# nested loops over the sorted values put the repeats' rows out of order
@example(argv=GOLDEN["sweep_repeats.csv"])
def test_sweep_matches_the_earlier_sweep(argv):
    assert _run_captured(argv) == _oracle_sweep(argv)


_HUGE = "1" + "0" * 120  # 10**120, past a float's range
_HUGE_DIMS = ["-m", _HUGE, "-n", _HUGE, "-k", _HUGE]


@pytest.mark.parametrize(
    "argv",
    [
        ["sweep", "--sizes", _HUGE, "--capacities", "16"],
        # mnk = 10**309
        ["sweep", "--algs", "naive", "--sizes", "1" + "0" * 103, "--capacities", "16"],
        ["predict", *_HUGE_DIMS, "-S", "16", "--alg", "alg-c"],
        ["bounds", *_HUGE_DIMS, "-S", "16"],
        ["goto", *_HUGE_DIMS, *_GOTO_96[6:]],
    ],
)
def test_sizes_past_a_float_are_an_error_not_a_traceback(capsys, argv):
    code, out, err = _run(capsys, *argv)
    assert (code, out) == (1, "")
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "Traceback" not in err


def test_output_file(tmp_path, capsys):
    out_file = tmp_path / "report.json"
    code, out, _ = _run(
        capsys, "bounds", "-m", "6", "-n", "6", "-k", "6", "-S", "16",
        "-o", str(out_file),
    )
    assert code == 0
    assert out == ""
    assert json.loads(out_file.read_text())["general_bound"] == 76.0


def test_brute_force_json(capsys):
    # the incumbent, an element-streamed block at 20, is above the optimum,
    # so the search expands nodes to prove it
    code, out, _ = _run(capsys, "brute-force", "-m", "2", "-n", "2", "-k", "2", "-S", "5")
    assert code == 0
    payload = json.loads(out)
    assert payload["min_io"] == 17
    assert payload["optimal"] is True
    assert payload["nodes"] > 0
    assert payload["trace"][0].startswith("L ")


def test_brute_force_incumbent_at_the_floor_prunes_the_root(capsys):
    # a 2x1 element-streamed block of A costs 2 + 2 + 4 + 4, the compulsory
    # floor, so the search prunes every child of its root, its one node, and
    # the block is the witness
    code, out, _ = _run(capsys, "brute-force", "-m", "2", "-n", "2", "-k", "1", "-S", "4")
    assert code == 0
    payload = json.loads(out)
    assert (payload["min_io"], payload["optimal"], payload["nodes"]) == (12, True, 1)
    dims = ProblemDims(2, 2, 1)
    witness = parse_trace("\n".join(payload["trace"]) + "\n", dims)
    stats = execute(witness, MemoryConfig(4), *seeded_matrices(dims, 0)).stats
    assert stats.io_total == 12


@pytest.mark.parametrize(
    "argv",
    [
        ["simulate", "-m", "6", "-n", "6", "-k", "6", "-S", "0", "--alg", "alg-c"],
        ["simulate", "-m", "6", "-n", "6", "-k", "6", "-S", "16", "--alg", "alg-z"],
        ["simulate", "-m", "6", "-n", "6", "-k", "6", "--alg", "alg-c"],
        ["simulate", "-m", "2", "-n", "2", "-k", "2", "-S", "3", "--alg", "alg-c"],
        ["simulate", "-m", "2", "-n", "2", "-k", "2", "-S", "2", "--alg", "naive"],
        ["brute-force", "-m", "3", "-n", "3", "-k", "3", "-S", "4"],
        ["sweep", "--capacities", "16"],
        ["sweep", "--sizes", "4", "--m-list", "4", "--n-list", "4", "--k-list", "4",
         "--capacities", "16"],
        ["phases", "-m", "2", "-n", "2", "-k", "2", "-S", "16"],
        ["nonsense"],
        ["predict", "-m", "2", "-n", "2", "-k", "2", "-S", "2", "--alg", "naive"],
        ["sweep", "--algs", "naive", "--sizes", "2", "--capacities", "1,2"],
        ["goto", *_GOTO_96, "--threshold", "nan"],
        ["goto", *_GOTO_96, "--threshold", "inf"],
        ["brute-force", "-m", "1", "-n", "1", "-k", "1", "-S", "3", "--format", "csv"],
        # integers are ASCII decimal digits alone, as in a trace
        ["simulate", "-m", "1_0", "-n", "2", "-k", "2", "-S", "16", "--alg", "alg-c"],
        ["simulate", "-m", "2", "-n", "2", "-k", "2", "-S", "+16", "--alg", "alg-c"],
        ["simulate", "-m", "2", "-n", "2", "-k", "2", "-S", " 16", "--alg", "alg-c"],
        ["simulate", "-m", "\u0662", "-n", "2", "-k", "2", "-S", "16", "--alg", "alg-c"],
        ["predict", "-m", "2", "-n", "2", "-k", "2", "-S", "\uff11\uff16", "--alg", "naive"],
        ["sweep", "--sizes", "1_0", "--capacities", "16"],
        ["sweep", "--sizes", "8", "--capacities", "16,+9"],
        ["sweep", "--sizes", "8, 16", "--capacities", "16"],
        ["sweep", "--m-list", "4", "--n-list", "\u0664", "--k-list", "4", "--capacities", "16"],
        # a seed may also have a leading '-'; a threshold is digits with an
        # optional fraction and exponent
        ["simulate", "-m", "2", "-n", "2", "-k", "2", "-S", "16", "--alg", "alg-c", "--seed", "1_0"],
        ["simulate", "-m", "2", "-n", "2", "-k", "2", "-S", "16", "--alg", "alg-c", "--seed", "+1"],
        ["simulate", "-m", "2", "-n", "2", "-k", "2", "-S", "16", "--alg", "alg-c",
         "--seed", "\u0661"],
        ["goto", *_GOTO_96, "--threshold", "1_0"],
        ["goto", *_GOTO_96, "--threshold", " 1.5"],
        # algorithm names are exact too
        ["sweep", "--algs", " alg-c", "--sizes", "5", "--capacities", "9"],
        ["sweep", "--algs", "alg-c, naive", "--sizes", "5", "--capacities", "9"],
    ],
)
def test_invalid_usage_exits_1(capsys, argv):
    assert main(argv) == 1
    capsys.readouterr()


_ALG_CHOICES = "{naive,alg-a,alg-b,alg-c}"
# each flag type as the last flag of a quick command
_FLAG_TYPES = {
    "a positive integer": ["predict", "-n", "2", "-k", "2", "-S", "16", "--alg", "alg-c", "-m"],
    "an integer": ["simulate", "-m", "2", "-n", "2", "-k", "2", "-S", "16", "--alg", "alg-c",
                   "--seed"],
    "a decimal number": ["goto", *_GOTO_96, "--threshold"],
}
_TOKENS = ["0", "00", "01", "+1", "-0", "1_0", "\u0661", " 1", "", "1.5", "2e-1", "nan", "inf"]
_ACCEPTED = {
    "a positive integer": {"01": 1},
    "an integer": {"0": 0, "00": 0, "01": 1, "-0": 0},
    "a decimal number": {"0": 0.0, "00": 0.0, "01": 1.0, "1.5": 1.5, "2e-1": 0.2},
}
_MANY_DIGITS = "1" * 5000  # more than int() converts
_SWEEP = ["sweep", "--capacities", "9", "--sizes"]


def _usage_error(argv, message):
    """stderr's last line when argparse refuses argv's last flag."""
    return f"iomma {argv[0]}: error: argument {argv[-2]}: {message}"


def _flag_case(what, token):
    argv = _FLAG_TYPES[what] + [token]
    if token in _ACCEPTED[what]:
        return argv, 0, None, _ACCEPTED[what][token]
    return argv, 1, _usage_error(argv, f"expected {what}, got {token}"), None


# (argv, exit code, stderr's last line or None for an empty stderr, the last
# flag's parsed value or None)
_FLAG_TABLE = [_flag_case(what, token) for what in _FLAG_TYPES for token in _TOKENS] + [
    (_SWEEP + ["1,,2"], 0, None, [1, 2]),
    (_SWEEP + ["5", "--algs", "alg-c, naive"], 1,
     f"iomma sweep: error: argument --algs: expected one of {_ALG_CHOICES[1:-1]}, got  naive",
     None),
    # argparse names the type whose conversion raised ValueError
    *[
        (argv, 1, _usage_error(argv, f"invalid {name} value: '{_MANY_DIGITS}'"), None)
        for argv, name in (
            (_FLAG_TYPES["a positive integer"] + [_MANY_DIGITS], "_positive_int"),
            (_FLAG_TYPES["an integer"] + [_MANY_DIGITS], "_int"),
            (_SWEEP + [_MANY_DIGITS], "_int_list"),
        )
    ],
    (["sweep", "--m-list", "4", "--capacities", "9"], 1,
     "error: --m-list, --n-list and --k-list must be given together", None),
    (_FLAG_TYPES["a decimal number"] + ["1e999"], 1,
     "error: suboptimal threshold must be finite, got inf", float("inf")),
]


@pytest.mark.parametrize("argv,code,last,value", _FLAG_TABLE)
def test_flag_types_accept_and_refuse_tokens(capsys, argv, code, last, value):
    assert main(argv) == code
    err = capsys.readouterr().err
    assert (err.splitlines()[-1] if err else None) == last
    if value is not None:
        parsed = vars(cli.build_parser().parse_args(argv))
        assert parsed[argv[-2].lstrip("-").replace("-", "_")] == value


def test_help_exits_0(capsys):
    assert main(["--help"]) == 0
    capsys.readouterr()


@pytest.mark.parametrize(
    "command",
    ["simulate", "predict", "bounds", "phases", "goto", "sweep", "brute-force", "verify"],
)
def test_subcommand_help_exits_0(capsys, command):
    assert main([command, "--help"]) == 0
    out = capsys.readouterr().out
    assert out.startswith(f"usage: iomma {command} ")
    assert "Algorithm." not in out
    if command in ("simulate", "predict", "phases"):
        assert f"--alg {_ALG_CHOICES}" in out


@pytest.mark.parametrize(
    "argv,name",
    [
        (["simulate", "-m", "2", "-n", "2", "-k", "2", "-S", "16", "--alg", "alg-z"], "alg-z"),
        (["sweep", "--algs", "alg-c,bogus", "--sizes", "4", "--capacities", "16"], "bogus"),
    ],
)
def test_unknown_algorithm_error_names_the_accepted_ones(capsys, argv, name):
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.endswith(f": expected one of {_ALG_CHOICES[1:-1]}, got {name}\n")


def test_trace_file_line_ends_read_as_lf(tmp_path, capsys, monkeypatch):
    # CRLF and CR ends become LF, so the dumped-line reader still takes the trace
    trace = tmp_path / "t.txt"
    dumped = dump_trace(build_schedule(Algorithm.C, ProblemDims(6, 6, 6), 16))
    argv = ["phases", "-m", "6", "-n", "6", "-k", "6", "-S", "16", "--trace-in", str(trace)]
    trace.write_text(dumped)
    _, expected, _ = _run(capsys, *argv)
    monkeypatch.setattr(iomma.memsim, "_grammatical_end", None)
    for end in ("\r\n", "\r"):
        trace.write_bytes(dumped.replace("\n", end).encode("ascii"))
        assert _run(capsys, *argv) == (0, expected, "")


def test_bad_trace_file_exits_1(tmp_path, capsys):
    bad = tmp_path / "bad.txt"
    bad.write_text("L A 0 0\nF 0 0 0\n")  # fma with b and c non-resident
    code = main(["phases", "-m", "1", "-n", "1", "-k", "1", "-S", "4",
                 "--trace-in", str(bad)])
    assert code == 1
    assert "error:" in capsys.readouterr().err
    missing = main(["phases", "-m", "1", "-n", "1", "-k", "1", "-S", "4",
                    "--trace-in", str(tmp_path / "nope.txt")])
    assert missing == 1
    capsys.readouterr()


def test_bad_trace_names_file_line(tmp_path, capsys):
    # the comment-only line 2 puts event 3 on file line 5
    trace = tmp_path / "commented.txt"
    trace.write_text("L A 0 0\n# comment only\nL B 0 0\nL C 0 0\nF 0 0 1\nS C 0 0\n")
    argv = ["phases", "-m", "1", "-n", "1", "-k", "1", "-S", "4", "--trace-in", str(trace)]
    assert main(argv) == 1
    assert capsys.readouterr().err == (
        "error: trace line 5: invalid trace: event 3: fma p=1 outside [0, 1)\n"
    )
    # a missing writeback fails past the last event, so no line is named
    trace.write_text("L A 0 0\n# comment only\nL B 0 0\nL C 0 0\nF 0 0 0\n")
    assert main(argv) == 1
    assert capsys.readouterr().err == (
        "error: invalid trace: event 4: dirty C(0,0) still resident at end of schedule\n"
    )
    # the file is UTF-8 whatever the locale, and a byte that does not decode
    # is named by its line
    trace.write_bytes("L A 0 0\n# caf\u00e9\nL B 0 0\nL C 0 0\nF 0 0 1\n".encode("utf-8"))
    assert main(argv) == 1
    assert capsys.readouterr().err.startswith("error: trace line 5: invalid trace: event 3: ")
    trace.write_bytes(b"L A 0 0\nL B 0\xe9 0\n")
    assert main(argv) == 1
    assert capsys.readouterr().err == (
        "error: trace line 2: byte 0xe9 is not UTF-8 (invalid continuation byte)\n"
    )
    trace.write_bytes(b"L A 0 0\r\n\rL B 0 0 # \xff\n")
    assert main(argv) == 1
    assert capsys.readouterr().err == "error: trace line 3: byte 0xff is not UTF-8 (invalid start byte)\n"


def test_bad_coordinate_is_quoted_on_stderr(tmp_path, capsys):
    # a control byte in a coordinate reaches the terminal escaped
    trace = tmp_path / "t.txt"
    trace.write_bytes(b"L A 0 0\x00\n")
    argv = ["phases", "-m", "1", "-n", "1", "-k", "1", "-S", "4", "--trace-in", str(trace)]
    assert _run(capsys, *argv) == (
        1, "", "error: trace line 1: coordinate '0\\x00' is not an integer of 1 to 18 decimal digits\n"
    )


def test_phases_rejects_a_trace_that_overflows_S(tmp_path, capsys, monkeypatch):
    # alg-c 6^3 at S=16 peaks at 15 resident elements; at -S 4 its fifth
    # load, event 4 on line 5, overflows. The file's lines are checked once
    # and read once, and its events replayed once, in partition_phases' one
    # walk; execute never runs, and a failure is not replayed again.
    trace = tmp_path / "t.txt"
    trace.write_text(dump_trace(build_schedule(Algorithm.C, ProblemDims(6, 6, 6), 16)))
    events = trace.read_text().count("\n")
    counts = collections.Counter()
    read_span, feed, real = iomma.tracefile._read_span, iomma.memsim._Replay.feed, iomma.phases.execute

    def counted_read(data, out=None, checked=False):
        lines = read_span(data, out, checked)
        counts["read" if checked else "checked"] += lines or 0
        return lines

    def counted_feed(replay, chunk):
        counts["fed"] += len(chunk)
        return feed(replay, chunk)

    monkeypatch.setattr(iomma.tracefile, "_read_span", counted_read)
    monkeypatch.setattr(iomma.memsim._Replay, "feed", counted_feed)
    monkeypatch.setattr(iomma.phases, "execute", lambda *args: counts.update(["execute"]) or real(*args))
    for S, code in (("4", 1), ("15", 0)):
        counts.clear()
        assert main(["phases", "-m", "6", "-n", "6", "-k", "6", "-S", S,
                     "--trace-in", str(trace), "--format", "json"]) == code
        assert [counts[name] for name in ("checked", "read", "fed", "execute")] == [events] * 3 + [0]
    out, err = capsys.readouterr()
    assert err == (
        "error: trace line 5: invalid trace: event 4: load of C(1,1) exceeds capacity 4\n"
    )
    assert json.loads(out)["capacity_ok"] is True


def test_phases_reads_a_trace_from_a_pipe(tmp_path, capsys):
    # a FIFO cannot seek: it is read whole, with the same output and errors
    dims = ["-m", "6", "-n", "6", "-k", "6"]
    text = dump_trace(build_schedule(Algorithm.C, ProblemDims(6, 6, 6), 16))
    trace = tmp_path / "t.txt"
    trace.write_text(text)
    fifo = tmp_path / "fifo"
    os.mkfifo(fifo)
    for S in ("15", "4"):
        expected = _run(capsys, "phases", *dims, "-S", S, "--trace-in", str(trace))
        writer = threading.Thread(target=fifo.write_text, args=(text,))
        writer.start()
        try:
            assert _run(capsys, "phases", *dims, "-S", S, "--trace-in", str(fifo)) == expected
        finally:
            writer.join()
    assert expected[0] == 1 and expected[2].startswith("error: trace line 5: ")


def _broken_dumps():
    """alg-c 6^3 at S=16 dumped, with a dumped line that breaks a rule put
    first, in the middle and last: an evict of a non-resident element, a
    load out of bounds and the evict again, after everything has left."""
    lines = dump_trace(build_schedule(Algorithm.C, ProblemDims(6, 6, 6), 16)).splitlines(keepends=True)
    middle = len(lines) // 2
    return {
        "first": "".join(["E A 0 0\n", *lines]),
        "middle": "".join([*lines[:middle], "L A 9 0\n", *lines[middle:]]),
        "last": "".join([*lines, "E A 0 0\n"]),
    }


@pytest.mark.parametrize("where", ["first", "middle", "last"])
def test_streamed_rule_error_names_the_line_trace_line_gives(tmp_path, capsys, monkeypatch, where):
    # a file of dumped lines is read as it streams, one event per line, so
    # its broken rule is named without reading the file's text
    text = _broken_dumps()[where]
    trace = tmp_path / "t.txt"
    trace.write_text(text)
    dims = ProblemDims(6, 6, 6)
    with pytest.raises(SimulationError) as rejected:
        partition_phases(parse_trace(text, dims), PhaseConfig(32), MemoryConfig(16))
    index = rejected.value.index
    assert index == {"first": 0, "middle": text.count("\n") // 2, "last": text.count("\n") - 1}[where]
    expected = f"error: trace line {trace_line(text, index)}: invalid trace: {rejected.value}\n"

    def unread(*args):
        raise AssertionError("the trace file's text was read")

    monkeypatch.setattr(iomma.memsim, "decode_trace", unread)
    monkeypatch.setattr(iomma.memsim, "trace_line", unread)
    argv = ["phases", "-m", "6", "-n", "6", "-k", "6", "-S", "16", "--trace-in", str(trace)]
    assert _run(capsys, *argv) == (1, "", expected)


def _phases_peak(path: Path, n: int, S: int) -> tuple[int, float]:
    """The exit code of phases --trace-in on a file of alg-c at n^3, and
    tracemalloc's peak over that main() call, in MB."""
    argv = ["phases", "-m", str(n), "-n", str(n), "-k", str(n), "-S", str(S),
            "--trace-in", str(path), "-o", os.devnull]
    tracemalloc.start()
    try:
        code = main(argv)
        return code, tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


def test_rule_error_in_a_trace_file_is_named_in_bounded_memory(tmp_path, capsys):
    # test_tiling's guard bounds the streamed read of these files: under
    # 3 MB, and at 96^3 (14.7 MB of text) under 1.5x its peak at 48^3. A
    # broken rule, whether at event 4 (-S 4) or at the last event, stays
    # within them
    cli.build_parser()
    paths = {}
    for n in (48, 96):
        paths[n] = tmp_path / f"{n}.txt"
        with open(paths[n], "w") as handle:
            write_trace(build_schedule(Algorithm.C, ProblemDims(n, n, n), 64), handle)
    code, small = _phases_peak(paths[48], 48, 64)
    assert code == 0 and small < 3
    with open(paths[96], "a") as handle:
        handle.write("E A 0 0\n")
    for S in (4, 64):
        code, peak = _phases_peak(paths[96], 96, S)
        assert code == 1
        assert peak < 3 and peak < 1.5 * small, (S, peak, small)
    err = capsys.readouterr().err.splitlines()
    assert err == [
        "error: trace line 5: invalid trace: event 4: load of C(0,4) exceeds capacity 4",
        "error: trace line 1419265: invalid trace: event 1419264: evict of non-resident A(0,0)",
    ]


# run in a fresh interpreter: import iomma, then iomma.cli, then one CLI
# command after another; print the iomma modules loaded after each step,
# and those loaded when each command's first call into a layer came
_LOADED = """
import json, sys

def loaded():
    return sorted(name[len("iomma."):] for name in sys.modules if name.startswith("iomma."))

steps = {}
import iomma
steps["import iomma"] = loaded()
import iomma.cli as cli
steps["import iomma.cli"] = loaded()
at_work = {}
for name in ("build_schedule", "parse_trace", "tiny_optimal_schedule"):
    def first_call(*args, real=getattr(cli, name), name=name):
        at_work.setdefault(name, loaded())
        return real(*args)
    setattr(cli, name, first_call)
codes = {}
for argv in json.loads(sys.argv[1]):
    codes[argv[0]] = cli.main(argv)
    steps[argv[0]] = loaded()
print(json.dumps({"steps": steps, "at_work": at_work, "codes": codes}))
"""


def _loaded(tmp_path, *argvs):
    """What _LOADED reports, and the stderr of its commands."""
    src = Path(iomma.cli.__file__).resolve().parent.parent
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))}
    done = subprocess.run([sys.executable, "-c", _LOADED, json.dumps(argvs)], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=120, check=True)
    return json.loads(done.stdout.splitlines()[-1]), done.stderr


_PARSER_LAYERS = ["algorithms", "bounds", "cli", "goto", "model"]


def test_each_command_loads_only_its_layers(tmp_path):
    out = ["-o", os.devnull]
    sweep = ["sweep", "--sizes", "8,16", "--capacities", "9", *out]
    bounds = ["bounds", *_DIMS_6, *out]
    report, _ = _loaded(tmp_path, sweep, bounds)
    assert report["steps"] == {
        "import iomma": [],
        "import iomma.cli": _PARSER_LAYERS,
        "sweep": _PARSER_LAYERS,
        "bounds": _PARSER_LAYERS,
    }
    trace = str(tmp_path / "t.txt")
    layers = {
        ("simulate", *_DIMS_6, "--alg", "alg-c", "--trace-out", trace, *out): ["inputs", "memsim"],
        ("phases", *_DIMS_6, "--alg", "alg-c", *out): ["memsim", "phases"],
        ("phases", *_DIMS_6, "--trace-in", trace, *out): ["memsim", "phases", "tracefile"],
        ("brute-force", "-m", "2", "-n", "2", "-k", "1", "-S", "4", *out): ["memsim"],
    }
    for argv, loaded in layers.items():
        report, _ = _loaded(tmp_path, list(argv))
        assert report["codes"] == {argv[0]: 0}
        assert report["steps"][argv[0]] == sorted(_PARSER_LAYERS + loaded), argv
        # the command's layers were loaded before its first call into one
        (first_loaded,) = report["at_work"].values()
        assert set(loaded) - {"tracefile"} <= set(first_loaded), argv


def test_simulation_error_exits_1_in_a_fresh_interpreter(tmp_path):
    trace = tmp_path / "t.txt"
    trace.write_text(dump_trace(build_schedule(Algorithm.C, ProblemDims(6, 6, 6), 16)))
    report, err = _loaded(tmp_path, ["phases", "-m", "6", "-n", "6", "-k", "6", "-S", "4",
                                     "--trace-in", str(trace)])
    assert report["codes"] == {"phases": 1}
    assert err == "error: trace line 5: invalid trace: event 4: load of C(1,1) exceeds capacity 4\n"


@pytest.mark.parametrize("error", [RuntimeError, SimulationError])
def test_only_expected_errors_become_exit_1(tmp_path, capsys, monkeypatch, error):
    # a layer's SimulationError, ValueError or OSError is an exit 1 with its
    # message; any other exception is a bug and propagates out of main
    def broken(*args):
        raise error("broken layer")

    monkeypatch.setattr(iomma.memsim, "write_trace", broken)
    monkeypatch.setattr(iomma.tracefile, "file_rows", broken)
    trace = tmp_path / "t.txt"
    trace.write_text("L A 0 0\nE A 0 0\n")
    argvs = [
        ["simulate", *_DIMS_6, "--alg", "alg-c", "--trace-out", str(tmp_path / "out.txt")],
        ["phases", "-m", "1", "-n", "1", "-k", "1", "-S", "4", "--trace-in", str(trace)],
    ]
    for argv in argvs:
        if error is RuntimeError:
            with pytest.raises(RuntimeError, match="broken layer"):
                main(argv)
        else:
            assert _run(capsys, *argv) == (1, "", "error: broken layer\n")


def test_verify_quick_passes(capsys):
    code, out, _ = _run(capsys, "verify", "--quick")
    assert code == 0
    lines = out.splitlines()
    pass_lines = [line for line in lines if line.startswith("pass")]
    assert len(pass_lines) == 10
    assert lines[-1] == "10/10 checks passed"
    assert lines[0].startswith("pass  schedule/prediction agreement")
    # the quick grids of the four grid checks
    for count in ("768 cases", "768 runs", "8232 phases", "216 traces"):
        assert re.search(rf"\b{count}\b", out), count


def _swap_a_and_b(predict):
    """predicted_io with the A and B read terms swapped; on square dims the
    total is unchanged."""

    def swapped(algorithm, dims, S):
        honest = predict(algorithm, dims, S)
        return dataclasses.replace(honest, reads_a=honest.reads_b, reads_b=honest.reads_a)

    return swapped


def test_simulate_compares_each_operand_term(capsys, monkeypatch):
    argv = ["simulate", "-m", "6", "-n", "6", "-k", "6", "-S", "16", "--alg", "alg-b"]
    monkeypatch.setattr(cli, "predicted_io", _swap_a_and_b(cli.predicted_io))
    code, out, _ = _run(capsys, *argv)
    payload = json.loads(out)
    assert payload["reads"] == payload["predicted_reads"]
    assert payload["reads_a"] != payload["reads_b"]
    assert (code, payload["counts_match"], payload["match"]) == (2, False, False)


def test_agreement_check_compares_each_operand_term(monkeypatch):
    monkeypatch.setattr(iomma.verify, "predicted_io", _swap_a_and_b(iomma.verify.predicted_io))
    ok, detail = iomma.verify.check_agreement(quick=True)
    assert not ok
    assert "simulated (" in detail and ") != predicted (" in detail


@pytest.mark.parametrize(
    "check,count",
    [
        (iomma.verify.check_agreement, "3456 cases"),
        (iomma.verify.check_phase_conservation, "1000 traces"),
    ],
)
def test_grid_checks_keep_their_full_grids(check, count):
    # criteria 8 and 6 pin the other two full grids, test_verify_quick_passes the quick ones
    ok, detail = check(quick=False)
    assert ok and re.search(rf"\b{count}\b", detail), detail


def test_verify_names_first_failure(capsys, monkeypatch):
    real = iomma.verify.predicted_io

    def skewed(algorithm, dims, S):
        honest = real(algorithm, dims, S)
        return PredictedIO(
            reads=honest.reads + 1,
            writes=honest.writes,
            closed_form_reads=honest.closed_form_reads,
            closed_form_writes=honest.closed_form_writes,
            reads_a=honest.reads_a + 1,
            reads_b=honest.reads_b,
            reads_c=honest.reads_c,
        )

    monkeypatch.setattr(iomma.verify, "predicted_io", skewed)
    code, out, _ = _run(capsys, "verify", "--quick")
    assert code == 2
    lines = out.splitlines()
    assert lines[0].startswith("FAIL  schedule/prediction agreement")
    assert "first failure: schedule/prediction agreement" in lines[-1]
