"""CLI behavior: exit codes, wire formats, determinism, and the verify
suite's failure reporting."""

import dataclasses
import hashlib
import json
from pathlib import Path

import pytest

import iomma.cli as cli
import iomma.phases
import iomma.verify
from iomma import (
    Algorithm,
    PredictedIO,
    ProblemDims,
    build_schedule,
    dump_trace,
    phases_to_csv,
)
from iomma.cli import main
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
    _, out2, _ = _run(capsys, *base, "--seed", "99")
    p1, p2 = json.loads(out1), json.loads(out2)
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
    code, out, _ = _run(capsys, "brute-force", "-m", "2", "-n", "2", "-k", "1", "-S", "4")
    assert code == 0
    payload = json.loads(out)
    assert payload["min_io"] == 12
    assert payload["optimal"] is True
    assert payload["nodes"] > 0
    assert payload["trace"][0].startswith("L ")


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
    ],
)
def test_invalid_usage_exits_1(capsys, argv):
    assert main(argv) == 1
    capsys.readouterr()


def test_help_exits_0(capsys):
    assert main(["--help"]) == 0
    capsys.readouterr()


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


def test_phases_rejects_a_trace_that_overflows_S(tmp_path, capsys, monkeypatch):
    # alg-c 6^3 at S=16 peaks at 15 resident elements; at -S 4 its fifth
    # load, event 4 on line 5, overflows. The trace replays once only.
    trace = tmp_path / "t.txt"
    trace.write_text(dump_trace(build_schedule(Algorithm.C, ProblemDims(6, 6, 6), 16)))
    calls = []
    real = iomma.phases.execute
    monkeypatch.setattr(iomma.phases, "execute", lambda *args: calls.append(1) or real(*args))
    for S, code in (("4", 1), ("15", 0)):
        calls.clear()
        assert main(["phases", "-m", "6", "-n", "6", "-k", "6", "-S", S,
                     "--trace-in", str(trace), "--format", "json"]) == code
        assert len(calls) == 1
    out, err = capsys.readouterr()
    assert err == (
        "error: trace line 5: invalid trace: event 4: load of C(1,1) exceeds capacity 4\n"
    )
    assert json.loads(out)["capacity_ok"] is True


def test_verify_quick_passes(capsys):
    code, out, _ = _run(capsys, "verify", "--quick")
    assert code == 0
    lines = out.splitlines()
    pass_lines = [line for line in lines if line.startswith("pass")]
    assert len(pass_lines) == 10
    assert lines[-1] == "10/10 checks passed"
    assert lines[0].startswith("pass  schedule/prediction agreement")


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
