import json
import math
import os
import random
import re
import stat
import subprocess
import sys
import tempfile
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from spintomo import (TomographyResult, build_design_matrix, coefficients_to_density,
                      detection_basis, dft_fid, dft_t1, dft_t2, diagonal_labels,
                      fid_coordinates, format_label, run_sequence_A, run_sequence_B, tomograph_state, transition_table)
import spintomo
import spintomo.cli
import spintomo.tomography
from spintomo.cli import (_apply_noise, _export_simulation, _staged,
                          _simulate_signals,
                          _write_json, _write_report, config_from_dict, main,
                          parse_config, resolve_params)
from spintomo.core import single_quantum_transitions
from spintomo.errors import ConfigError

from conftest import DEMO_COEFFS, local_maxima_above

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"


def demo_config(n_t1=64, n_t2=128, **options):
    cfg = {
        "spin_system": {
            "n": 2,
            "larmor_hz": [1200.0, 1800.0],
            "couplings_hz": {"1,2": 200.0},
            "t2_s": 0.01,
        },
        "state": {
            "coefficients": [[" ".join(label), value]
                             for label, value in sorted(DEMO_COEFFS.items())],
        },
        "acquisition": {"n_t1": n_t1, "n_t2": n_t2, "alpha_deg": 45.0,
                        "beta_deg": 10.0},
        "options": {"seed": 7, "output_dir": "out/test"},
    }
    cfg["options"].update(options)
    return cfg


# Every file of a `simulate` run of demo_config(); `tomograph` adds
# TOMOGRAPH_FILES.  Nothing else, no staging directory, is left behind.
SIMULATE_FILES = sorted(
    ["signal_a.npy", "signal_a.json", "signal_b.npy", "signal_b.json",
     "spectrum_2d.npy", "spectrum_2d_axes.json", "spectrum_b.npy", "spectrum_b.json",
     "cross_sections.npy", "cross_sections.json"])
TOMOGRAPH_FILES = ["design_summary.json", "report.txt", "result.json"]


# Runs main() on argv[1:] in a fresh interpreter and prints, as JSON, its
# exit code, the modules the run loaded beyond numpy and the interpreter's
# own, whether numpy.random is loaded at the end, and the seeds given to
# stdlib generators during the run.
MODULES_CHILD = """
import json, random, sys
import numpy
before = set(sys.modules)
seeds = []
seed = random.Random.seed
def record(self, a=None, version=2):
    seeds.append(a)
    seed(self, a, version)
random.Random.seed = record
from spintomo.cli import main
code = main(sys.argv[1:])
print(json.dumps({"code": code, "loaded": sorted(set(sys.modules) - before),
                  "numpy_random": "numpy.random" in sys.modules, "seeds": seeds}))
"""


def box_muller(rng, shape, rms):
    """Noise of ``shape`` drawn the way the simulator draws it, one 64-bit word
    at a time: sample k takes words 2k and 2k+1, whose top 53 bits give u1 in
    (0, 1] and u2 in [0, 1), and is rms*sqrt(-ln u1)*exp(2*pi*i*u2)."""
    words = np.array([rng.getrandbits(64) for _ in range(2 * math.prod(shape))],
                     dtype=np.uint64) >> 11
    u1 = (words[0::2] + 1) * 2.0 ** -53
    u2 = words[1::2] * 2.0 ** -53
    return (rms * np.sqrt(-np.log(u1)) * np.exp(2j * np.pi * u2)).reshape(shape)


def write_config(tmp_path, payload, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload, indent=2))
    return path


def read_strict_json(path):
    """Parse ``path`` as strict JSON: the tokens NaN and Infinity are errors."""
    def reject(token):
        raise ValueError(f"non-JSON token {token} in {path.name}")
    return json.loads(path.read_text(), parse_constant=reject)


class TestConfigParsing:
    def test_valid_config(self, tmp_path):
        cfg = parse_config(write_config(tmp_path, demo_config()))
        assert cfg.system.n == 2
        assert cfg.coefficients["xz"] == 10.0
        assert cfg.options.seed == 7

    def test_unknown_root_key(self):
        payload = demo_config()
        payload["extra"] = 1
        with pytest.raises(ConfigError, match="extra"):
            config_from_dict(payload)

    def test_unknown_acquisition_key(self):
        payload = demo_config()
        payload["acquisition"]["dwell"] = 1.0
        with pytest.raises(ConfigError, match="dwell"):
            config_from_dict(payload)

    def test_missing_block(self):
        payload = demo_config()
        del payload["state"]
        with pytest.raises(ConfigError, match="state"):
            config_from_dict(payload)

    def test_bad_label(self):
        payload = demo_config()
        payload["state"]["coefficients"] = [["x q", 1.0]]
        with pytest.raises(ConfigError, match="label"):
            config_from_dict(payload)

    def test_duplicate_label(self):
        payload = demo_config()
        payload["state"]["coefficients"] = [["x o", 1.0], ["xo", 2.0]]
        with pytest.raises(ConfigError, match="duplicate"):
            config_from_dict(payload)

    def test_duplicate_coupling(self):
        # both keys parse to the pair (1, 2); the later one must not win
        payload = demo_config()
        payload["spin_system"]["couplings_hz"] = {"1,2": 200.0, "1, 2": 50.0}
        with pytest.raises(ConfigError, match="duplicate coupling pair '1,2'"):
            config_from_dict(payload)

    def test_bad_coupling_key(self):
        payload = demo_config()
        payload["spin_system"]["couplings_hz"] = {"12": 200.0}
        with pytest.raises(ConfigError, match="couplings_hz"):
            config_from_dict(payload)

    def test_gradient_draws_below_one_rejected(self, tmp_path, capsys):
        payload = demo_config(realistic_gradient=True, gradient_draws=0)
        with pytest.raises(ConfigError, match="gradient_draws"):
            config_from_dict(payload)
        code = main(["tomograph", "--config", str(write_config(tmp_path, payload)),
                     "--out", str(tmp_path / "out")])
        assert code == 2
        assert "gradient_draws" in capsys.readouterr().err

    def test_threads_option_removed(self, tmp_path):
        path = write_config(tmp_path, demo_config(n_t1=32, n_t2=64))
        with pytest.raises(SystemExit) as info:
            main(["basis", "--config", str(path), "--out", str(tmp_path / "out"),
                  "--threads", "3"])
        assert info.value.code == 2

    def test_cross_section_qubits_removed(self, tmp_path, capsys):
        # every line feeds the fit: even the list of every qubit is refused
        payload = demo_config(n_t1=32, n_t2=64)
        payload["acquisition"]["cross_section_qubits"] = [1, 2]
        path = write_config(tmp_path, payload)
        out = tmp_path / "out"
        assert main(["tomograph", "--config", str(path), "--out", str(out)]) == 2
        assert "unknown key(s) ['cross_section_qubits']" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("value", [True, False])
    def test_reference_normalize_removed(self, tmp_path, capsys, value):
        # the fit has no reference scale to switch on or off
        path = write_config(tmp_path, demo_config(n_t1=32, n_t2=64,
                                                  reference_normalize=value))
        out = tmp_path / "out"
        for command in ("simulate", "tomograph", "basis"):
            assert main([command, "--config", str(path), "--out", str(out)]) == 2
            assert ("config error: unknown key(s) ['reference_normalize'] in 'options'"
                    in capsys.readouterr().err)
            assert not out.exists()

    @pytest.mark.parametrize("block, key, value, argv", [
        ("acquisition", "n_t1", 0, []),
        ("acquisition", "n_t1", "abc", []),
        ("acquisition", "n_t2", 16.7, []),
        ("acquisition", "dwell_t1_s", -1, []),
        ("acquisition", "alpha_deg", "x", []),
        pytest.param("acquisition", "alpha_deg", 10 ** 400, [], id="alpha_deg-too-large"),
        ("acquisition", "n_t1", True, []),
        ("acquisition", "dwell_t2_s", 0, []),
        ("options", "seed", -1, []),
        ("options", "seed", 7, ["--seed", "-1"]),
        ("options", "noise_rms", float("inf"), []),
        ("options", "noise_rms", float("nan"), []),
        ("options", "realistic_gradient", "false", []),
        ("options", "reference_normalize", "false", []),
        ("options", "gradient_tau_max_s", -1, []),
        ("options", "output_dir", None, []),
        ("options", "output_dir", 5, []),
        pytest.param("options", "output_dir", "", [], id="options-output_dir-empty"),
        pytest.param("spin_system", "n", 2.5, [], id="n-fractional"),
        pytest.param("spin_system", "n", "2", [], id="n-string"),
        pytest.param("spin_system", "larmor_hz", ["1200", "1800"], [], id="larmor-strings"),
        pytest.param("spin_system", "larmor_hz", [True, 1800.0], [], id="larmor-true"),
        pytest.param("spin_system", "larmor_hz", [10 ** 400, 1800.0], [],
                     id="larmor-too-large"),
        pytest.param("spin_system", "t2_s", "0.01", [], id="t2-string"),
        pytest.param("spin_system", "t2_s", 10 ** 400, [], id="t2-too-large"),
        pytest.param("spin_system", "couplings_hz", {"1,2": "200"}, [], id="coupling-string"),
        pytest.param("spin_system", "couplings_hz", {"1,2": 10 ** 400}, [],
                     id="coupling-too-large"),
        pytest.param("spin_system", "couplings_hz", [1, 2], [], id="couplings-list"),
        pytest.param("spin_system", "couplings_hz", {"1,2": 200.0, "1, 2": 50.0}, [],
                     id="coupling-duplicate"),
        pytest.param("state", "coefficients", [["x x", "1.5"]], [], id="coefficient-string"),
        pytest.param("state", "coefficients", [["x x", True]], [], id="coefficient-true"),
        pytest.param("state", "coefficients", [["x x", float("nan")]], [],
                     id="coefficient-nan"),
        pytest.param("state", "coefficients", [["x x", float("inf")]], [],
                     id="coefficient-inf"),
        pytest.param("state", "coefficients", [["x x", 10 ** 400]], [],
                     id="coefficient-too-large"),
    ])
    def test_bad_value_exits_2(self, tmp_path, capsys, block, key, value, argv):
        payload = demo_config(n_t1=32, n_t2=64, realistic_gradient=True,
                              gradient_draws=2)
        payload[block][key] = value
        path = write_config(tmp_path, payload)
        for command in ("simulate", "tomograph", "basis"):
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                code = main([command, "--config", str(path),
                             "--out", str(tmp_path / "out"), *argv])
            assert code == 2
            assert "config error" in capsys.readouterr().err
            assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("block", ["spin_system", "state"])
    def test_list_block_exits_2(self, tmp_path, capsys, block):
        payload = demo_config(n_t1=32, n_t2=64)
        payload[block] = [1, 2]
        path = write_config(tmp_path, payload)
        assert main(["basis", "--config", str(path), "--out", str(tmp_path / "out")]) == 2
        assert f"config error: '{block}' must be a JSON object" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_uncreatable_output_dir_exits_2(self, tmp_path, capsys, monkeypatch):
        # an existing file, and a path under it, given by --out or the config,
        # and an empty --out, which would be the working directory
        monkeypatch.chdir(tmp_path)
        blocker = tmp_path / "file"
        blocker.write_text("kept")
        payload = demo_config(n_t1=32, n_t2=64, output_dir=str(blocker / "sub"))
        path = write_config(tmp_path, payload)
        for command in ("simulate", "tomograph", "basis"):
            for out in (["--out", str(blocker)], ["--out", str(blocker / "sub")], [],
                        ["--out", ""]):
                assert main([command, "--config", str(path), *out]) == 2
                err = capsys.readouterr().err
                assert err.startswith("config error: cannot create output directory")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["config.json", "file"]
        assert blocker.read_text() == "kept"

    def test_zero_frequency_register_exits_2(self, tmp_path, capsys):
        # a lone line at 0 Hz gives no default spectral width to sample at
        payload = demo_config(n_t1=32, n_t2=64)
        payload["spin_system"] = {"n": 1, "larmor_hz": [0.0], "t2_s": 0.01}
        payload["state"]["coefficients"] = [["x", 1.0]]
        path = write_config(tmp_path, payload)
        code = main(["basis", "--config", str(path), "--out", str(tmp_path / "out")])
        assert code == 2
        err = capsys.readouterr().err
        assert "config error" in err and "dwell_t1_s" in err

    def test_missing_file_exit_code(self, tmp_path, capsys):
        code = main(["simulate", "--config", str(tmp_path / "nope.json")])
        assert code == 2
        assert "config" in capsys.readouterr().err

    def test_unreadable_config_exits_2(self, tmp_path, capsys):
        # a directory cannot be read, and FF FE opens no UTF-8 text
        utf16 = tmp_path / "utf16.json"
        utf16.write_bytes(json.dumps(demo_config()).encode("utf-16"))
        assert utf16.read_bytes()[:2] == b"\xff\xfe"
        for path in (tmp_path, utf16):
            code = main(["simulate", "--config", str(path),
                         "--out", str(tmp_path / "out")])
            assert code == 2
            assert "config error: cannot read config file" in capsys.readouterr().err


# t2 lengths beside 64 of the byte-identity export tests: 100 samples, a
# 256-bin axis whose last hybrid slab is narrower than the others; and two
# samples, a 4-bin axis narrower than one t1 block of the 2D magnitude
OTHER_N_T2 = pytest.mark.parametrize("n_t2", [100, 2])


class TestSimulateCommand:
    def test_artifacts_written(self, tmp_path):
        path = write_config(tmp_path, demo_config())
        out = tmp_path / "out"
        assert main(["simulate", "--config", str(path), "--out", str(out)]) == 0
        assert sorted(p.name for p in out.iterdir()) == SIMULATE_FILES
        sidecar = json.loads((out / "signal_a.json").read_text())
        assert sidecar["dwell_t1_s"] == resolve_params(parse_config(path)).dwell_t1_s
        assert sidecar["n_t2"] == 128
        assert "gradient_delays_s" not in sidecar["meta"]

    def test_grids_load_bit_exact(self, tmp_path, n_t2=64):
        path = write_config(tmp_path, demo_config(n_t1=32, n_t2=n_t2, noise_rms=0.01))
        out = tmp_path / "out"
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            assert main(["simulate", "--config", str(path), "--out", str(out)]) == 0
            cfg = parse_config(path)
            _, signal_a, signal_b = _simulate_signals(cfg, resolve_params(cfg))
            table = transition_table(cfg.system)
        spectrum = dft_t1(dft_t2(signal_a))
        spectrum_b = dft_fid(signal_b)
        sidecar = json.loads((out / "signal_a.json").read_text())
        sidecar_b = json.loads((out / "signal_b.json").read_text())
        axes = json.loads((out / "spectrum_2d_axes.json").read_text())
        axes_b = json.loads((out / "spectrum_b.json").read_text())
        sections = json.loads((out / "cross_sections.json").read_text())
        assert sidecar["array"]["axes"] == ["t1", "t2"]
        assert sidecar_b["array"]["axes"] == ["t2"]
        assert axes["array"]["axes"] == ["omega1", "omega2"]
        assert axes["array"]["shape"] == [len(axes["omega1_hz"]), len(axes["omega2_hz"])]
        assert axes_b["array"]["axes"] == ["omega"]
        assert np.array(axes_b["omega_hz"]).tobytes() == spectrum_b.omega_hz.tobytes()
        assert sections["array"]["axes"] == ["section", "omega1"]
        assert sections["array"]["shape"] == [len(table), len(sections["omega1_hz"])]
        bins = [int(np.argmin(np.abs(spectrum.omega2_hz - t.frequency_hz))) for t in table]
        for layout, expected in ((sidecar["array"], signal_a.grid),
                                 (sidecar_b["array"], signal_b.samples),
                                 (axes["array"], np.abs(spectrum.grid).astype(np.float32)),
                                 (axes_b["array"], spectrum_b.values),
                                 (sections["array"], spectrum.grid[:, bins].T.copy())):
            grid = np.load(out / layout["file"], allow_pickle=False)
            assert grid.dtype == np.dtype(layout["dtype"]) == expected.dtype
            # the 2D magnitude, which no fit reads, is rounded once to single
            # precision; every complex array keeps its double-precision bits
            assert layout["dtype"] == ("float32" if layout["file"] == "spectrum_2d.npy"
                                       else "complex128")
            assert list(grid.shape) == layout["shape"] == list(expected.shape)
            # the 2D magnitude is streamed one column block at a time, so its
            # file is column-major; every other grid is row-major
            if layout["file"] == "spectrum_2d.npy":
                assert grid.flags.f_contiguous
            else:
                assert grid.flags.c_contiguous
            assert grid.tobytes() == expected.tobytes()

    @OTHER_N_T2
    def test_grids_load_bit_exact_other_t2(self, tmp_path, n_t2):
        self.test_grids_load_bit_exact(tmp_path, n_t2)

    def test_cross_sections_bit_exact(self, tmp_path, n_t2=64):
        # each row is the t1 transform of one hybrid column, cell for cell the
        # column of the whole 2D spectrum at the transition's Omega2 bin
        path = write_config(tmp_path, demo_config(n_t1=32, n_t2=n_t2, noise_rms=0.01))
        out = tmp_path / "out"
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            assert main(["simulate", "--config", str(path), "--out", str(out)]) == 0
            cfg = parse_config(path)
            _, signal_a, _ = _simulate_signals(cfg, resolve_params(cfg))
            spectrum = dft_t1(dft_t2(signal_a))
            table = transition_table(cfg.system)
        sections = np.load(out / "cross_sections.npy", allow_pickle=False)
        sidecar = json.loads((out / "cross_sections.json").read_text())
        assert sections.shape == (len(table), len(spectrum.omega1_hz))
        assert np.array(sidecar["omega1_hz"]).tobytes() == spectrum.omega1_hz.tobytes()
        for i, (transition, entry) in enumerate(zip(table, sidecar["sections"])):
            b = int(np.argmin(np.abs(spectrum.omega2_hz - transition.frequency_hz)))
            assert entry["frequency_hz"] == transition.frequency_hz
            assert entry["bin_hz"] == spectrum.omega2_hz[b]
            assert sections[i].tobytes() == np.ascontiguousarray(spectrum.grid[:, b]).tobytes()

    @OTHER_N_T2
    def test_cross_sections_bit_exact_other_t2(self, tmp_path, n_t2):
        self.test_cross_sections_bit_exact(tmp_path, n_t2)

    def test_export_memory_bounded(self, tmp_path, monkeypatch):
        # the 2D magnitude is streamed one column block at a time from slabs
        # of the t2 hybrid, each half the zero-filled hybrid, in one reused
        # buffer, and the cross-sections transform only their own columns:
        # 1.02x the full hybrid measured (1.47x holding the whole hybrid,
        # 2.26x holding the magnitude grid as well).  tomograph takes signal
        # A's coordinates after the exports, then releases the time grid.
        seen = {}

        def simulate(cfg, params):
            signals = _simulate_signals(cfg, params)
            seen["params"], seen["signal_a"], seen["grid"] = params, signals[1], signals[1].grid
            return signals

        def export(*args):
            tracemalloc.start()
            try:
                assert _export_simulation(*args) is None
                _, seen["peak"] = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()

        def fit(design, signal_a, *args, **kwargs):
            seen["coordinates"] = signal_a
            return tomograph_state(design, signal_a, *args, **kwargs)

        monkeypatch.setattr(spintomo.cli, "_simulate_signals", simulate)
        monkeypatch.setattr(spintomo.cli, "_export_simulation", export)
        monkeypatch.setattr(spintomo.cli, "tomograph_state", fit)
        path = write_config(tmp_path, demo_config(n_t1=512, n_t2=256))
        assert main(["tomograph", "--config", str(path), "--out", str(tmp_path / "out")]) == 0
        magnitude = np.load(tmp_path / "out" / "spectrum_2d.npy", allow_pickle=False)
        full_hybrid_nbytes = 512 * magnitude.shape[1] * np.dtype(complex).itemsize
        assert seen["peak"] <= 1.2 * full_hybrid_nbytes
        # the time-domain grid is released once its coordinates are taken
        assert seen["signal_a"].grid is None
        coordinates = seen["coordinates"]
        basis = detection_basis(parse_config(path).system, seen["params"])
        assert coordinates.basis.shape == basis.shape
        assert np.array_equal(coordinates.values, seen["grid"] @ coordinates.basis.conj())

    def test_simulate_exports_equal_tomograph_exports(self, tmp_path):
        # both commands write the ten exports through one function, and
        # tomograph takes signal A's coordinates only after it
        path = write_config(tmp_path, demo_config(n_t1=32, n_t2=64, noise_rms=0.01,
                                                  realistic_gradient=True, gradient_draws=2))
        for command in ("simulate", "tomograph"):
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                assert main([command, "--config", str(path),
                             "--out", str(tmp_path / command)]) == 0
        for name in SIMULATE_FILES:
            simulated = (tmp_path / "simulate" / name).read_bytes()
            assert simulated == (tmp_path / "tomograph" / name).read_bytes(), name

    def test_output_mode_follows_umask(self, tmp_path):
        path = write_config(tmp_path, demo_config(n_t1=16))
        out = tmp_path / "out"
        previous = os.umask(0o022)
        try:
            assert main(["simulate", "--config", str(path), "--out", str(out)]) == 0
        finally:
            os.umask(previous)
        files = list(out.iterdir())
        assert {p.suffix for p in files} == {".json", ".npy"}
        assert {stat.S_IMODE(p.stat().st_mode) for p in files} == {0o644}

    def test_cross_sections_named_by_transition_index(self, tmp_path):
        # J13 - J12 = 0.02 Hz: transitions 0.01 Hz apart share a 0.1 Hz name
        payload = demo_config(n_t1=16, n_t2=64)
        payload["spin_system"] = {
            "n": 3, "larmor_hz": [500.0, 900.0, 1400.0],
            "couplings_hz": {"1,2": 50.0, "1,3": 50.02, "2,3": 30.0},
            "t2_s": 0.01,
        }
        payload["state"]["coefficients"] = [["x o o", 1.0]]
        path = write_config(tmp_path, payload)
        out = tmp_path / "out"
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            assert main(["simulate", "--config", str(path), "--out", str(out)]) == 0
        sidecar = json.loads((out / "cross_sections.json").read_text())
        entries = sidecar["sections"]
        assert [e["index"] for e in entries] == list(range(12))
        assert [e["qubit"] for e in entries] == [1] * 4 + [2] * 4 + [3] * 4
        table = transition_table(parse_config(path).system)
        assert [e["frequency_hz"] for e in entries] == [t.frequency_hz for t in table]
        assert len(set(round(e["frequency_hz"], 1) for e in entries)) < 12
        assert sidecar["array"]["shape"][0] == 12

    def test_failed_export_keeps_previous_file(self, tmp_path):
        # a block that raises commits nothing, and its staging directory goes
        target = tmp_path / "signal_a.npy"
        target.write_text("previous\n")
        with pytest.raises(RuntimeError, match="export failed"):
            with _staged(tmp_path) as stage:
                (stage / "signal_a.npy").write_text("half a fi")
                (stage / "signal_b.npy").write_text("whole")
                raise RuntimeError("export failed")
        assert target.read_text() == "previous\n"
        assert not list(tmp_path.glob(".staged-*"))
        assert [p.name for p in tmp_path.iterdir()] == ["signal_a.npy"]

    def test_spectrum_column_maxima_at_transitions(self, tmp_path):
        path = write_config(tmp_path, demo_config(n_t1=64, n_t2=256))
        out = tmp_path / "out"
        assert main(["simulate", "--config", str(path), "--out", str(out)]) == 0
        axes = json.loads((out / "spectrum_2d_axes.json").read_text())
        omega2 = np.array(axes["omega2_hz"])
        profile = np.load(out / "spectrum_2d.npy", allow_pickle=False).max(axis=0)
        bin_width = omega2[1] - omega2[0]
        transitions = np.array([1100.0, 1300.0, 1700.0, 1900.0])
        for index in local_maxima_above(profile, 1e-6 * profile.max()):
            assert np.min(np.abs(transitions - omega2[index])) <= bin_width

    def test_single_spin_config(self, tmp_path):
        payload = {
            "spin_system": {"n": 1, "larmor_hz": [500.0], "couplings_hz": {},
                            "t2_s": 0.01},
            "state": {"coefficients": [["x", 1.0], ["z", 0.5]]},
            "acquisition": {"n_t1": 32, "n_t2": 128},
            "options": {"seed": 0, "output_dir": "unused"},
        }
        path = write_config(tmp_path, payload)
        out = tmp_path / "out1"
        assert main(["simulate", "--config", str(path), "--out", str(out)]) == 0
        values = np.load(out / "spectrum_b.npy", allow_pickle=False)
        peaks = local_maxima_above(np.abs(values), 1e-3 * np.abs(values).max())
        assert len(peaks) == 1

    def test_noise_reproducible(self, tmp_path):
        path = write_config(tmp_path, demo_config(noise_rms=0.01))
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            assert main(["simulate", "--config", str(path), "--out", str(out_a)]) == 0
            assert main(["simulate", "--config", str(path), "--out", str(out_b)]) == 0
        assert (out_a / "signal_a.npy").read_bytes() == (out_b / "signal_a.npy").read_bytes()

    def test_seed_override_changes_noise(self, tmp_path):
        path = write_config(tmp_path, demo_config(noise_rms=0.01))
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            main(["simulate", "--config", str(path), "--out", str(out_a)])
            main(["simulate", "--config", str(path), "--out", str(out_b),
                  "--seed", "99"])
        assert (out_a / "signal_a.npy").read_bytes() != (out_b / "signal_a.npy").read_bytes()


class TestTomographCommand:
    def test_full_pipeline(self, tmp_path, capsys):
        path = write_config(tmp_path, demo_config(n_t1=128, n_t2=256))
        out = tmp_path / "out"
        assert main(["tomograph", "--config", str(path), "--out", str(out)]) == 0
        result = json.loads((out / "result.json").read_text())
        assert result["fidelity"] > 0.9999
        assert result["max_relative_element_error"] < 1e-3
        assert result["max_coefficient_error"] <= 1e-10
        assert "scale_factor" not in result
        assert sorted(p.name for p in out.iterdir()) == sorted(
            SIMULATE_FILES + TOMOGRAPH_FILES)
        assert "fidelity" in capsys.readouterr().out

    def test_byte_identical_results(self, tmp_path):
        for gradient in ({}, {"realistic_gradient": True, "gradient_draws": 70}):
            path = write_config(tmp_path, demo_config(n_t1=64, n_t2=128,
                                                      noise_rms=0.005, **gradient))
            out_a, out_b = tmp_path / "a", tmp_path / "b"
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                assert main(["tomograph", "--config", str(path), "--out", str(out_a)]) == 0
                assert main(["tomograph", "--config", str(path), "--out", str(out_b)]) == 0
            names = sorted(p.name for p in out_a.iterdir())
            assert names == sorted(p.name for p in out_b.iterdir())
            assert {Path(name).suffix for name in names} == {".json", ".npy", ".txt"}
            for name in names:
                assert (out_a / name).read_bytes() == (out_b / name).read_bytes(), name
            meta = json.loads((out_a / "signal_a.json").read_text())["meta"]
            assert meta["gradient"] == ("realistic" if gradient else "ideal")

    def test_one_detection_basis_per_run(self, tmp_path, monkeypatch):
        # signal A's basis spans every line, so the fit reads signal B in it
        # rather than running the same SVD again, bit for bit as before
        calls = []

        def counted(*args, **kwargs):
            calls.append(args)
            return detection_basis(*args, **kwargs)

        monkeypatch.setattr(spintomo.cli, "detection_basis", counted)
        monkeypatch.setattr(spintomo.tomography, "detection_basis", counted)
        path = write_config(tmp_path, demo_config())
        assert main(["tomograph", "--config", str(path), "--out", str(tmp_path / "out")]) == 0
        assert len(calls) == 1
        cfg = parse_config(path)
        params = resolve_params(cfg)
        _, signal_a, signal_b = _simulate_signals(cfg, params)
        design = build_design_matrix(cfg.system, params)
        expected = tomograph_state(design, fid_coordinates(signal_a, design.basis),
                                   signal_b).coefficients
        assert len(calls) == 2
        result = dict(json.loads((tmp_path / "out" / "result.json").read_text())["coefficients"])
        for label in diagonal_labels(cfg.system.n):
            assert result[format_label(label)] == expected[label]

    def test_zero_state(self, tmp_path, capsys):
        payload = demo_config(n_t1=32, n_t2=256)
        payload["state"]["coefficients"] = []
        path = write_config(tmp_path, payload)
        out = tmp_path / "out"
        assert main(["tomograph", "--config", str(path), "--out", str(out)]) == 0
        result = json.loads((out / "result.json").read_text())
        assert result["fidelity"] is None
        assert result["notes"] == ["fidelity skipped: zero-norm matrix"]
        assert np.max(np.abs(np.array(result["matrix_re"]))) < 1e-9
        assert "skipped" in capsys.readouterr().out

    @pytest.mark.parametrize("config, state", [
        ("demo_2qubit.json", [["z o", 1.0], ["o z", 2.3], ["z z", 6.7]]),
        ("demo_4qubit.json", [["z o o o", 0.6], ["o z o o", 0.75], ["o o z o", 1.0],
                              ["o o o z", 1.4]]),
    ])
    def test_thermal_state(self, tmp_path, config, state):
        # no off-diagonal content: signal A's t1-mean-free target is rounding
        # alone, which the fit solves to zero without a refusal or a warning,
        # and whose residual it reports as 0, not as rounding over rounding
        payload = json.loads((CONFIG_DIR / config).read_text())
        payload["state"]["coefficients"] = state
        path = write_config(tmp_path, payload)
        out = tmp_path / "out"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["tomograph", "--config", str(path), "--out", str(out)]) == 0
        result = json.loads((out / "result.json").read_text())
        assert result["max_coefficient_error"] <= 1e-10
        assert result["residual_offdiagonal"] == 0.0

    def test_simulate_draw_order(self):
        # random.Random(seed) draws A's gradient delays, then B's, then the
        # noise of A and B: realistic-gradient runs stay reproducible
        cfg = config_from_dict(demo_config(n_t1=16, n_t2=32, noise_rms=0.01,
                                           realistic_gradient=True,
                                           gradient_draws=5, gradient_tau_max_s=0.03))
        params = resolve_params(cfg)
        rho0, signal_a, signal_b = _simulate_signals(cfg, params)

        rng = random.Random(cfg.options.seed)
        delays_a, delays_b = ([rng.uniform(0.0, 0.03) for _ in range(5)] for _ in range(2))
        expected = [
            run_sequence_A(cfg.system, rho0, params, gradient_delays_s=delays_a).grid,
            run_sequence_B(cfg.system, rho0, params, gradient_delays_s=delays_b).samples]
        for clean in expected:
            clean += box_muller(rng, clean.shape, 0.01)
        assert np.array_equal(rho0, coefficients_to_density(cfg.system, cfg.coefficients))
        for got, want in zip((signal_a.grid, signal_b.samples), expected):
            assert np.array_equal(got, want)
        assert signal_a.meta["gradient"] == signal_b.meta["gradient"] == "realistic"

    @pytest.mark.parametrize("options, draws", [
        ({}, False),
        ({"noise_rms": 0.01}, True),
        ({"realistic_gradient": True, "gradient_draws": 4}, True),
    ])
    def test_run_loads_only_what_it_uses(self, tmp_path, options, draws):
        # no SHA-256 digest of the system, so no OpenSSL, and no numpy.random:
        # noise and gradient delays come from random.Random(seed), which is
        # seeded only when the run draws
        path = write_config(tmp_path, demo_config(n_t1=32, n_t2=64, **options))
        env = dict(os.environ)
        src = str(Path(spintomo.__file__).resolve().parents[1])
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (src, env.get("PYTHONPATH")) if p)
        child = subprocess.run(
            [sys.executable, "-c", MODULES_CHILD, "tomograph", "--config", str(path),
             "--out", str(tmp_path / "out")],
            env=env, capture_output=True, text=True, timeout=120, check=True)
        report = json.loads(child.stdout.strip().splitlines()[-1])
        assert report["code"] == 0
        assert report["numpy_random"] is False
        assert "_hashlib" not in report["loaded"]
        assert "numpy.random" not in report["loaded"]
        assert report["seeds"] == ([7] if draws else [])

    @pytest.mark.parametrize("command", ["simulate", "tomograph", "basis"])
    def test_run_loads_no_logging_or_uuid(self, tmp_path, command):
        # in a fresh interpreter, since pytest itself imports logging: a run
        # prints its design line itself and names temp files from os.urandom
        path = write_config(tmp_path, demo_config(n_t1=32, n_t2=64))
        env = dict(os.environ)
        src = str(Path(spintomo.__file__).resolve().parents[1])
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (src, env.get("PYTHONPATH")) if p)
        child = subprocess.run(
            [sys.executable, "-c",
             "import sys; from spintomo.cli import main; code = main(sys.argv[1:]); "
             "print(code, sorted({'logging', 'uuid'} & set(sys.modules)))",
             command, "--config", str(path), "--out", str(tmp_path / "out"),
             "--verbose"],
            env=env, capture_output=True, text=True, timeout=120, check=True)
        assert child.stdout.strip().splitlines()[-1] == "0 []"

    @pytest.mark.parametrize("verbose", [False, True])
    def test_verbose_prints_design_line(self, tmp_path, capsys, verbose):
        # --verbose prints to stderr the design line basis prints to stdout
        payload = json.loads((CONFIG_DIR / "demo_2qubit.json").read_text())
        payload["acquisition"].update(n_t1=32, n_t2=64)
        path = write_config(tmp_path, payload)
        assert main(["basis", "--config", str(path), "--out", str(tmp_path / "b")]) == 0
        line = capsys.readouterr().out
        assert re.fullmatch(r"design matrix \d+x15, rank 15/15, condition number [0-9.]+\n",
                            line)
        argv = ["tomograph", "--config", str(path), "--out", str(tmp_path / "t")]
        assert main(argv + ["--verbose"] * verbose) == 0
        captured = capsys.readouterr()
        assert captured.err == (line if verbose else "")
        assert "design matrix" not in captured.out

    @pytest.mark.parametrize("config", ["demo_2qubit.json", "demo_4qubit.json"])
    def test_tomograph_fits_like_whole_signal(self, tmp_path, config):
        # tomograph takes signal A's coordinates once the exports are written
        # and then drops the grid; its result is the fit of the whole signal
        path = CONFIG_DIR / config
        out = tmp_path / "out"
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            code = main(["tomograph", "--config", str(path), "--out", str(out)])
            cfg = parse_config(path)
            params = resolve_params(cfg)
            rho0, signal_a, signal_b = _simulate_signals(cfg, params)
            design = build_design_matrix(cfg.system, params)
            expected = tomograph_state(
                design, fid_coordinates(signal_a, design.basis), signal_b, truth=rho0)
        assert code == 0
        result = json.loads((out / "result.json").read_text())
        assert result["coefficients"] == expected.to_json_dict()["coefficients"]

    def test_recorded_delays_reproduce_signals(self, tmp_path):
        # the sidecars' delays rerun both noiseless sequences bit for bit
        path = write_config(tmp_path, demo_config(n_t1=16, n_t2=32, realistic_gradient=True,
                                                  gradient_draws=70))
        out = tmp_path / "out"
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            assert main(["simulate", "--config", str(path), "--out", str(out)]) == 0
        cfg = parse_config(path)
        params = resolve_params(cfg)
        rho0 = coefficients_to_density(cfg.system, cfg.coefficients)
        delays_a, delays_b = (
            json.loads((out / f"signal_{name}.json").read_text())["meta"]["gradient_delays_s"]
            for name in "ab")
        assert len(delays_a) == len(delays_b) == 70 and delays_a != delays_b
        signal_a = run_sequence_A(cfg.system, rho0, params, gradient_delays_s=delays_a)
        signal_b = run_sequence_B(cfg.system, rho0, params, gradient_delays_s=delays_b)
        assert (np.load(out / "signal_a.npy", allow_pickle=False).tobytes()
                == signal_a.grid.tobytes())
        assert (np.load(out / "signal_b.npy", allow_pickle=False).tobytes()
                == signal_b.samples.tobytes())

    def test_realistic_gradient_mode(self, tmp_path):
        payload = demo_config(n_t1=64, n_t2=128, realistic_gradient=True,
                              gradient_draws=8)
        path = write_config(tmp_path, payload)
        out = tmp_path / "out"
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            assert main(["tomograph", "--config", str(path), "--out", str(out)]) == 0
        result = json.loads((out / "result.json").read_text())
        # randomized-delay averaging leaves residual zero-quantum leakage;
        # the reconstruction is close but not exact
        assert result["fidelity"] > 0.99

    def test_nyquist_violation_exit_code(self, tmp_path, capsys):
        payload = demo_config()
        payload["acquisition"]["dwell_t2_s"] = 1e-3
        path = write_config(tmp_path, payload)
        code = main(["tomograph", "--config", str(path), "--out",
                     str(tmp_path / "out")])
        assert code == 3
        assert "numerical error" in capsys.readouterr().err

    def test_two_sample_t2_axis(self, tmp_path, capsys):
        # the 4-bin t2 axis ends at the line, which rounding puts just past
        # the last bin; it reads that bin, where it exited 1 with a traceback
        payload = {"spin_system": {"n": 1, "larmor_hz": [1861.0], "t2_s": 0.01},
                   "state": {"coefficients": [["x", 1.0], ["z", 0.5]]},
                   "acquisition": {"n_t1": 16, "n_t2": 2}}
        path = write_config(tmp_path, payload)
        out = tmp_path / "out"
        assert main(["tomograph", "--config", str(path), "--out", str(out)]) == 0
        result = read_strict_json(out / "result.json")
        assert result["max_coefficient_error"] <= 1e-12
        assert capsys.readouterr().err == ""

    def test_line_beyond_axis_exit_code(self, tmp_path, capsys):
        # the Omega2 axis is periodic in 1/dwell, so a line past its end has
        # its cross-section read at the alias; no command refuses or warns,
        # and the fits, which read no spectrum, are exact.
        # One t2 sample: the axis is [-2792, 0] Hz, the line is at 1861 Hz.
        one_sample = {"spin_system": {"n": 1, "larmor_hz": [1861.0], "t2_s": 0.01},
                      "state": {"coefficients": [["x", 1.0], ["z", 0.5]]},
                      "acquisition": {"n_t1": 16, "n_t2": 1, "dwell_t2_s": 1.791e-4}}
        # The demo at 3801 Hz spectral width passes Nyquist, but its axis
        # ends one bin below +1900.5 Hz, more than half a bin below 1900 Hz:
        # the line's alias at -1901 Hz reads the first bin, -1900.5 Hz.
        demo = demo_config()
        demo["acquisition"]["dwell_t2_s"] = 1.0 / 3801.0
        for name, payload in (("one", one_sample), ("demo", demo)):
            (tmp_path / name).mkdir()
            path = write_config(tmp_path / name, payload)
            for command in ("tomograph", "simulate", "basis"):
                out = tmp_path / name / command
                with warnings.catch_warnings():
                    warnings.simplefilter("error")
                    code = main([command, "--config", str(path), "--out", str(out)])
                assert code == 0, (name, command)
                assert capsys.readouterr().err == "", (name, command)
            expected = dict(payload["state"]["coefficients"])
            result = read_strict_json(tmp_path / name / "tomograph" / "result.json")
            assert {label for label, _ in result["coefficients"]} >= set(expected)
            for label, value in result["coefficients"]:
                assert abs(value - expected.get(label, 0.0)) <= 1e-12, (name, label)
        axes = read_strict_json(tmp_path / "demo" / "simulate" / "spectrum_2d_axes.json")
        sections = read_strict_json(tmp_path / "demo" / "simulate" / "cross_sections.json")
        edge = [s for s in sections["sections"] if s["frequency_hz"] == 1900.0]
        assert len(edge) == 1
        assert edge[0]["bin_hz"] == axes["omega2_hz"][0] == pytest.approx(-1900.5)

    def test_refused_design_leaves_directory_as_found(self, tmp_path, capsys):
        # at beta 90 deg z z reaches no line: the design refuses it
        # after the exports and the design summary, none of which is kept,
        # and an earlier run's result stays as it was
        payload = json.loads((CONFIG_DIR / "demo_2qubit.json").read_text())
        payload["acquisition"]["beta_deg"] = 90.0
        path = write_config(tmp_path, payload)
        out = tmp_path / "out"
        out.mkdir()
        earlier = tmp_path / "earlier"
        assert main(["tomograph", "--config", str(CONFIG_DIR / "demo_2qubit.json"),
                     "--out", str(earlier)]) == 0
        (out / "result.json").write_bytes((earlier / "result.json").read_bytes())
        capsys.readouterr()
        assert main(["tomograph", "--config", str(path), "--out", str(out)]) == 3
        assert "z z" in capsys.readouterr().err
        assert [p.name for p in out.iterdir()] == ["result.json"]
        assert (out / "result.json").read_bytes() == (earlier / "result.json").read_bytes()

    def test_directory_in_way_refused_before_commit(self, tmp_path, capsys):
        # a directory named like an output cannot be replaced by a file: the
        # run is refused before any file is renamed into the directory
        out = tmp_path / "out"
        (out / "result.json").mkdir(parents=True)
        assert main(["tomograph", "--config", str(CONFIG_DIR / "demo_2qubit.json"),
                     "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and str(out / "result.json") in err
        assert [p.name for p in out.iterdir()] == ["result.json"]
        assert list((out / "result.json").iterdir()) == []

    def test_write_failure_exits_2(self, tmp_path, capsys, monkeypatch):
        # an OSError while writing the outputs is one line on stderr, not a
        # traceback, and nothing is committed
        def full(path, result):
            raise OSError(28, "No space left on device", str(path))

        monkeypatch.setattr(spintomo.cli, "_write_report", full)
        out = tmp_path / "out"
        assert main(["tomograph", "--config", str(CONFIG_DIR / "demo_2qubit.json"),
                     "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "No space left on device" in err
        assert list(out.iterdir()) == []

    def test_degenerate_system_exit_code(self, tmp_path, capsys):
        # the transition table is the one refusal: no warning comes before it
        payload = demo_config()
        payload["spin_system"]["couplings_hz"] = {}
        path = write_config(tmp_path, payload)
        for command in ("simulate", "tomograph", "basis"):
            out = tmp_path / command
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                code = main([command, "--config", str(path), "--out", str(out)])
            assert code == 3, command
            err = capsys.readouterr().err
            assert "2 degenerate transition pair" in err
            # the two lines of each pair differ in their eigenstates
            assert ("qubit 1 |00>-|10> (1200 Hz) vs qubit 1 |01>-|11> (1200 Hz); "
                    "qubit 2 |00>-|01> (1800 Hz) vs qubit 2 |10>-|11> (1800 Hz)") in err
            assert list(out.iterdir()) == [], command


@st.composite
def small_runs(draw):
    """A config of a 1- to 3-spin register on a small grid, with zero, tiny
    or resolved couplings, T2 from 0.1 ms to 10 s, angles that include 0, 90
    and 180 degrees, and dwells that are the default, refused by Nyquist, or
    put the largest line a fraction of its frequency below +sw/2, down to
    1e-6, so it may lie past the last bin of the Omega2 axis."""
    n = draw(st.integers(1, 3))
    larmor = [draw(st.floats(100.0, 3000.0)) for _ in range(n)]
    couplings = {(j, k): draw(st.sampled_from([0.0, 1e-9, 7.0, 200.0]))
                 for j in range(1, n + 1) for k in range(j + 1, n + 1)}
    t2_s = 10.0 ** draw(st.floats(-4.0, 1.0))
    fmax = max(abs(t.frequency_hz) for t in single_quantum_transitions(
        spintomo.build_spin_system(n, larmor, couplings, t2_s)))
    angle = st.one_of(st.sampled_from([0.0, 90.0, 180.0]), st.floats(-180.0, 180.0))
    acquisition = {"n_t1": draw(st.integers(1, 64)), "n_t2": draw(st.integers(1, 64)),
                   "alpha_deg": draw(angle), "beta_deg": draw(angle)}
    for key in ("dwell_t1_s", "dwell_t2_s"):
        margin = draw(st.sampled_from([None, -0.01, 1e-6, 1e-3, 0.05, 1.0]))
        if margin is not None:
            acquisition[key] = 1.0 / (2.0 * fmax * (1.0 + margin))
    labels = ["x" + "o" * (n - 1), "z" * n]
    return {"spin_system": {"n": n, "larmor_hz": larmor, "t2_s": t2_s,
                            "couplings_hz": {f"{j},{k}": v for (j, k), v in couplings.items()}},
            "state": {"coefficients": [[" ".join(labels[0]), 1.0], [" ".join(labels[1]), 0.5]]},
            "acquisition": acquisition}


class TestExitContract:
    # The ideal gradient and no noise: under either, the off-diagonal fit
    # still warns about its residual, and under an error filter that warning
    # escapes main, until the model includes the realistic gradient and a
    # chi-squared test on a noise estimate replaces the residual threshold.
    @settings(max_examples=40, deadline=None)
    @given(small_runs())
    def test_every_run_ends_in_0_2_or_3(self, payload):
        # nothing escapes main, even with warnings as errors, a refused
        # simulate or tomograph leaves its directory empty, and basis
        # refuses exactly what tomograph refuses
        codes = {}
        with tempfile.TemporaryDirectory() as tmp:
            path = write_config(Path(tmp), payload)
            for command in ("simulate", "tomograph", "basis"):
                out = Path(tmp) / command
                with warnings.catch_warnings():
                    warnings.simplefilter("error")
                    codes[command] = main([command, "--config", str(path), "--out", str(out)])
                assert codes[command] in (0, 2, 3), command
                if command != "basis" and codes[command]:
                    assert list(out.iterdir()) == [], command
        assert codes["basis"] == codes["tomograph"]


class TestNoise:
    RMS = 0.01

    def noised(self, seed=2026, shape=(1024, 128)):
        return _apply_noise(random.Random(seed), np.zeros(shape, complex), self.RMS)

    def test_white_circular_gaussian(self):
        noise = self.noised().ravel()
        n = noise.size
        assert n >= 2 ** 17
        sigma = self.RMS / np.sqrt(2.0)
        for part in (noise.real, noise.imag):
            assert abs(part.mean()) <= 5 * sigma / np.sqrt(n)
            assert part.var() == pytest.approx(sigma ** 2, rel=0.02)
            # Gaussian: the fourth moment is three times the squared variance
            assert np.mean(part ** 4) / np.mean(part ** 2) ** 2 == pytest.approx(3.0, abs=0.1)
        assert abs(np.corrcoef(noise.real, noise.imag)[0, 1]) <= 5 / np.sqrt(n)
        # white: neighbouring samples, across the drawn blocks, are uncorrelated
        lag1 = np.vdot(noise[:-1], noise[1:]) / np.vdot(noise, noise).real
        assert abs(lag1) <= 5 / np.sqrt(n)
        assert np.mean(np.abs(noise) ** 2) == pytest.approx(self.RMS ** 2, rel=0.02)

    def test_seeds_differ(self):
        assert self.noised(3).tobytes() != self.noised(4).tobytes()

    @pytest.mark.parametrize("block", [1, 37, 4095])
    def test_independent_of_block_size(self, monkeypatch, block):
        expected = self.noised(shape=(64, 130))
        monkeypatch.setattr(spintomo.cli, "NOISE_BLOCK", block)
        assert self.noised(shape=(64, 130)).tobytes() == expected.tobytes()

    def test_in_place(self):
        signal = np.arange(24, dtype=complex).reshape(4, 6)
        clean = signal.copy()
        assert _apply_noise(random.Random(1), signal, self.RMS) is signal
        assert np.array_equal(signal, clean + self.noised(1, (4, 6)))
        # a view that cannot be noised in place is refused, never noised as a copy
        with pytest.raises(ValueError):
            _apply_noise(random.Random(1), signal.T, self.RMS)

    def test_memory_bounded(self):
        # drawn and noised a block at a time: the peak is a fraction of a
        # 1024 x 128 grid and does not grow with the grid (2.06x of the grid,
        # and growing with it, when all noise was drawn at once)
        peaks = {}
        for n_t1 in (1024, 4096):
            grid = np.zeros((n_t1, 128), complex)
            tracemalloc.start()
            try:
                _apply_noise(random.Random(0), grid, self.RMS)
                _, peaks[n_t1] = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
        assert peaks[1024] <= 0.5 * 1024 * 128 * np.dtype(complex).itemsize
        assert peaks[4096] <= peaks[1024] + 2 ** 14


class TestResultFiles:
    def test_condition_numbers_per_experiment(self, tmp_path):
        # each experiment's condition number is that of its own column block
        # of the dense design, and result.json reports the design's two
        path = CONFIG_DIR / "demo_2qubit.json"
        cfg = parse_config(path)
        design = build_design_matrix(cfg.system, resolve_params(cfg))
        dense = np.column_stack([design.apply(e) for e in np.eye(design.shape[1])])
        rows, columns = dense.shape[0] - 2 * design.basis.shape[1], 12
        assert not np.any(dense[:rows, columns:]) and not np.any(dense[rows:, :columns])
        assert design.condition_number == pytest.approx(
            np.linalg.cond(dense[:rows, :columns]), rel=1e-10)
        assert design.condition_number_diagonal == pytest.approx(
            np.linalg.cond(dense[rows:, columns:]), rel=1e-10)
        out = tmp_path / "out"
        assert main(["tomograph", "--config", str(path), "--out", str(out)]) == 0
        result = read_strict_json(out / "result.json")
        assert result["condition_number"] == design.condition_number
        assert result["condition_number_diagonal"] == design.condition_number_diagonal

    def test_residual_warning_names_the_command_line(self, tmp_path):
        # the fit's one caller is cmd_tomograph, whose line the warning names
        path = write_config(tmp_path, demo_config(n_t1=32, n_t2=64, noise_rms=0.05))
        with pytest.warns(UserWarning, match="off-diagonal fit residual") as caught:
            assert main(["tomograph", "--config", str(path), "--out", str(tmp_path / "o")]) == 0
        assert [w.filename for w in caught] == [spintomo.cli.__file__]

    def test_non_finite_condition_numbers_written_as_null(self, tmp_path):
        result = TomographyResult(
            coefficients={"xo": 1.0}, matrix=np.zeros((4, 4)), fidelity=None,
            residual_offdiagonal=0.0, residual_diagonal=0.0,
            condition_number=float("inf"), condition_number_diagonal=float("nan"))
        _write_json(tmp_path / "result.json", result.to_json_dict())
        payload = read_strict_json(tmp_path / "result.json")
        assert payload["condition_number"] is None
        assert payload["condition_number_diagonal"] is None
        assert payload["coefficients"] == [["x o", 1.0]]
        _write_report(tmp_path / "report.txt", result)
        assert "design condition number: inf" in (tmp_path / "report.txt").read_text()


class TestBasisCommand:
    def test_summary_and_cache(self, tmp_path):
        path = write_config(tmp_path, demo_config(n_t1=64, n_t2=128))
        out = tmp_path / "out"
        assert main(["basis", "--config", str(path), "--out", str(out)]) == 0
        summary = json.loads((out / "design_summary.json").read_text())
        assert set(summary) == {"columns", "condition_number", "condition_number_diagonal",
                                "full_rank", "labels", "nullspace_labels", "rank", "shape",
                                "zero_labels"}
        assert summary["columns"] == 15
        assert summary["rank"] == 15
        assert summary["full_rank"] is True
        assert len(summary["labels"]) == 15
        assert "digest" not in summary and "cache_file" not in summary
        assert not (out / "cache").exists()

    def test_infinite_condition_number_written_as_null(self, tmp_path, capsys):
        # two t1 increments leave the demo design singular: kappa is infinite
        payload = json.loads((CONFIG_DIR / "demo_2qubit.json").read_text())
        payload["acquisition"]["n_t1"] = 2
        path = write_config(tmp_path, payload)
        out = tmp_path / "out"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["basis", "--config", str(path), "--out", str(out)]) == 3
        assert "condition number inf" in capsys.readouterr().out
        summary = read_strict_json(out / "design_summary.json")
        assert summary["condition_number"] is None
        assert summary["full_rank"] is False

    def test_beta_90_refused_like_tomograph(self, tmp_path, capsys):
        # at beta 90 deg z z reaches no line: the design that basis reports
        # is the one tomograph fits, so both refuse it
        payload = json.loads((CONFIG_DIR / "demo_2qubit.json").read_text())
        payload["acquisition"]["beta_deg"] = 90.0
        path = write_config(tmp_path, payload)
        out = tmp_path / "out"
        assert main(["basis", "--config", str(path), "--out", str(out)]) == 3
        assert "z z" in capsys.readouterr().err
        summary = read_strict_json(out / "design_summary.json")
        assert (summary["rank"], summary["columns"]) == (14, 15)
        assert summary["full_rank"] is False
        assert summary["nullspace_labels"] == ["z z"]

    def test_five_qubit_larmor_sum_names_nullspace(self, tmp_path, capsys):
        # with nu2 + nu3 = nu5 the design has eight exact null vectors, all on
        # coherences that flip spins 2, 3 and 5 together; the demo register,
        # nu5 97.5 Hz off that sum, is full rank
        payload = json.loads((CONFIG_DIR / "demo_5qubit.json").read_text())
        larmor = payload["spin_system"]["larmor_hz"]
        larmor[4] = larmor[1] + larmor[2]
        path = write_config(tmp_path, payload)
        out = tmp_path / "out"
        assert main(["basis", "--config", str(path), "--out", str(out)]) == 3
        summary = json.loads((out / "design_summary.json").read_text())
        assert summary["rank"] == summary["columns"] - 8 == 1015
        labels = summary["nullspace_labels"]
        assert len(labels) == 32
        assert all(label.split()[q] in "xy" for label in labels for q in (1, 2, 4))
        assert not summary["zero_labels"]
        assert ", ".join(labels) in capsys.readouterr().err
