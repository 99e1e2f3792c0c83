"""Tests of the benchmark's own logic: seeded inputs, correctness gate, tracer.

Run from the repository root:

    PYTHONPATH=src python3 -m pytest -q perfbench/tests
"""

import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent))
sys.path.insert(0, str(HERE.parent.parent / "src"))

import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from spintomo.cli import config_from_dict, resolve_params  # noqa: E402
from spintomo.experiment import check_nyquist, transition_table  # noqa: E402

SEEDS = range(6)
OPS = range(4)


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_same_seed_gives_byte_identical_configs(workload):
    for seed in SEEDS:
        for op in OPS:
            first = workloads.config_bytes(workloads.op_config(workload, seed, op))
            again = workloads.config_bytes(workloads.op_config(workload, seed, op))
            assert first == again
    assert (workloads.config_bytes(workloads.op_config(workload, 0, 1))
            != workloads.config_bytes(workloads.op_config(workload, 1, 1)))


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_generated_registers_pass_the_program_gates(workload):
    for seed in SEEDS:
        for op in OPS:
            config = workloads.op_config(workload, seed, op)
            cfg = config_from_dict(json.loads(workloads.config_bytes(config)))
            check_nyquist(transition_table(cfg.system), resolve_params(cfg))
            assert len(workloads.generated_coefficients(config)) == workloads.WORKLOADS[workload].terms


def write_result(out_dir, coefficients):
    out_dir.mkdir(parents=True, exist_ok=True)
    payload = {"coefficients": [[" ".join(label), value]
                                for label, value in coefficients.items()]}
    (out_dir / "result.json").write_text(json.dumps(payload))


GENERATED = {"xo": 1.0, "zz": -0.5}


def test_gate_accepts_a_matching_result(tmp_path):
    write_result(tmp_path, {"xo": 1.0 + 1e-12, "zz": -0.5, "yy": 1e-13})
    failure, err = run.judge(0, tmp_path, GENERATED, 1e-9)
    assert failure is None and err == pytest.approx(1e-12)


def test_gate_fails_a_nonzero_exit(tmp_path):
    write_result(tmp_path, GENERATED)
    failure, _ = run.judge(3, tmp_path, GENERATED, 1e-9)
    assert failure == "exit code 3"


@pytest.mark.parametrize("text", ["", "{\"coefficients\": [[\"x o\", \"nan\"]]}",
                                  "{\"coefficients\": 5}", "{\"fidelity\": 1.0}",
                                  "[[1, 2"])
def test_gate_fails_a_corrupted_result(tmp_path, text):
    (tmp_path / "result.json").write_text(text)
    failure, _ = run.judge(0, tmp_path, GENERATED, 1e-9)
    assert failure and failure.startswith("unreadable result.json")


def test_gate_fails_missing_and_wrong_results(tmp_path):
    assert run.judge(0, tmp_path, GENERATED, 1e-9)[0] == "result.json missing"
    write_result(tmp_path, {"xo": 1.0})  # zz dropped
    failure, err = run.judge(0, tmp_path, GENERATED, 1e-9)
    assert failure.startswith("coefficient error") and err == 0.5


def test_failed_ops_are_counted(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "WORK", tmp_path)
    bench = run.Run("tomo-4q-cold", seed=0)

    def crash(argv, log_path):
        log_path.write_text("Traceback: boom\n")
        return 0.1, 1, _Usage()

    monkeypatch.setattr(run, "spawn", crash)
    op = bench.op(1)
    assert op.failure == "exit code 1"
    assert not (bench.dir / "out" / "op1").exists()


class _Usage:
    ru_maxrss = 1024
    ru_utime = ru_stime = 0.0


def test_written_bytes_counts_created_and_replaced_files(tmp_path):
    (tmp_path / "cache").mkdir()
    (tmp_path / "cache" / "design.npz").write_bytes(b"c" * 10)
    (tmp_path / "result.json").write_bytes(b"r" * 3)
    before = run.snapshot(tmp_path)
    (tmp_path / "signal_a.csv").write_bytes(b"s" * 7)
    replacement = tmp_path / "result.json.tmp"
    replacement.write_bytes(b"R" * 4)
    replacement.replace(tmp_path / "result.json")
    written = run.written_bytes(before, run.snapshot(tmp_path))
    assert written == {"signal_csv": 7, "spectrum_csv": 0, "cross_sections": 0,
                       "cache": 0, "other": 4}


def test_summarize_subtracts_child_time():
    spans = [(0, "a", 0.0, 10.0, -1, 1), (1, "b", 1.0, 4.0, 0, 1),
             (2, "b", 5.0, 6.0, 0, 1), (3, "c", 2.0, 3.0, 1, 1)]
    summary = tracer.summarize(spans)
    assert summary["a"] == [1, pytest.approx(6.0)]
    assert summary["b"] == [2, pytest.approx(3.0)]
    assert summary["c"] == [1, pytest.approx(1.0)]


def test_tracer_wraps_functions_in_every_importing_module(monkeypatch):
    import spintomo.cli
    import spintomo.experiment
    import spintomo.tomography

    for module in list(sys.modules.values()):
        if getattr(module, "__name__", "").startswith("spintomo"):
            for attr, value in list(vars(module).items()):
                monkeypatch.setattr(module, attr, value)
    system = config_from_dict(json.loads(workloads.config_bytes(
        workloads.op_config("tomo-4q-warm", 0, 1)))).system
    trace = tracer.Tracer(op_id=7, import_s=0.0)
    trace.install()
    assert spintomo.cli.run_sequence_A is spintomo.experiment.run_sequence_A
    assert spintomo.tomography.run_sequence_A is spintomo.experiment.run_sequence_A
    assert "experiment.run_sequence_A" in trace.wrapped
    assert "tomography.save_design" in trace.wrapped
    spintomo.experiment.transition_table(system)
    summary = tracer.summarize(trace.spans)
    assert summary["experiment.transition_table"][0] == 1
    assert summary["core.single_quantum_transitions"][0] == 1
    assert {span[-1] for span in trace.spans} == {7}


def test_absent_functions_are_reported_not_fatal():
    op = run.Op(index=2, traced=True, timed=True, wall_s=1.0,
                rss_mb=1.0, cpu_s=1.0, written=dict.fromkeys(run.OUTPUT_KINDS, 0),
                failure=None, coef_err=0.0,
                trace={"wrapped": ["tomography.build_design_matrix"], "spans": []})
    names = ["tomography.save_design.self_s", "tomography.build_design_matrix.calls",
             "tomography.design_cache_hit_ratio"]
    assert run.absent_functions([op], names) == ["tomography.save_design"]
    assert run.per_op_layers(op, names) == {
        "tomography.save_design.self_s": 0.0,
        "tomography.build_design_matrix.calls": 0,
        "tomography.design_cache_hit_ratio": 0.0}


def test_tail_percentile_needs_ten_samples_beyond():
    assert run.tail_percentile(5) is None
    assert run.tail_percentile(20) == 50.0
    assert run.tail_percentile(100) == 90.0
    assert run.tail_percentile(1000) == 99.0
