"""Command-line entry point: config parsing, pipeline orchestration, exports.

Subcommands
-----------
simulate    run both pulse sequences and export signals and spectra
tomograph   simulate, invert, and score against the configured input state
basis       build the design matrix and dump a summary

Exit codes: 0 success, 2 configuration or output error, 3 numerical or rank
error.
"""

from __future__ import annotations

import argparse
import contextlib
import itertools
import json
import math
import os
import random
import shutil
import sys
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .core import (SpinSystem, build_spin_system, coefficients_to_density,
                   format_label, parse_label)
from .errors import ConfigError, SpinTomoError
from .experiment import (default_acquisition, run_sequence_A, run_sequence_B,
                         transition_table)
from .spectral import cross_sections, dft_fid, dft_t1_magnitude, hybrid_omega2_axis
from .tomography import (build_design_matrix, detection_basis, fid_coordinates,
                         tomograph_state)


@dataclass
class RunOptions:
    noise_rms: float = 0.0
    realistic_gradient: bool = False
    gradient_draws: int = 16
    gradient_tau_max_s: float = 0.02
    seed: int = 0
    output_dir: str = "out"


@dataclass
class RunConfig:
    system: SpinSystem
    coefficients: dict
    acquisition: dict = field(default_factory=dict)
    options: RunOptions = field(default_factory=RunOptions)


_ACQ_KEYS = {"n_t1", "n_t2", "dwell_t1_s", "dwell_t2_s", "alpha_deg", "beta_deg"}
_OPT_KEYS = {"noise_rms", "realistic_gradient", "gradient_draws",
             "gradient_tau_max_s", "seed", "output_dir"}


def _reject_unknown(block: dict, allowed, path: str) -> None:
    unknown = sorted(set(block) - set(allowed))
    if unknown:
        raise ConfigError(f"unknown key(s) {unknown} in '{path}'")


def parse_config(path) -> RunConfig:
    """Load and validate a JSON run configuration."""
    path = Path(path)
    try:
        raw = json.loads(path.read_text(encoding="utf-8"))
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}")
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}")
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file {path} is not valid JSON: {exc}")
    return config_from_dict(raw)


def config_from_dict(raw: dict) -> RunConfig:
    if not isinstance(raw, dict):
        raise ConfigError("config root must be a JSON object")
    _reject_unknown(raw, {"spin_system", "state", "acquisition", "options"}, "<root>")
    for block in ("spin_system", "state"):
        if block not in raw:
            raise ConfigError(f"missing required block '{block}'")

    sys_block = _config_container(raw["spin_system"], "spin_system")
    _reject_unknown(sys_block, {"n", "larmor_hz", "couplings_hz", "t2_s"}, "spin_system")
    for key in ("n", "larmor_hz", "t2_s"):
        if key not in sys_block:
            raise ConfigError(f"missing 'spin_system.{key}'")
    larmor_hz = _config_container(sys_block["larmor_hz"], "spin_system.larmor_hz", list)
    couplings = {}
    for key, value in _config_container(sys_block.get("couplings_hz"),
                                     "spin_system.couplings_hz").items():
        try:
            j, k = (int(part) for part in str(key).split(","))
        except ValueError:
            raise ConfigError(
                f"coupling key {key!r} in 'spin_system.couplings_hz' must be 'j,k'")
        if (j, k) in couplings:
            raise ConfigError(f"duplicate coupling pair '{j},{k}' in 'spin_system.couplings_hz'")
        couplings[(j, k)] = _config_float(value, f"spin_system.couplings_hz.{key}")
    n = _config_int(sys_block["n"], "spin_system.n", 1)
    larmor = [_config_float(f, f"spin_system.larmor_hz[{i}]") for i, f in enumerate(larmor_hz)]
    t2_s = _config_float(sys_block["t2_s"], "spin_system.t2_s", 0.0, strict=True)
    try:
        system = build_spin_system(n, larmor, couplings, t2_s)
    except ValueError as exc:
        raise ConfigError(f"invalid 'spin_system': {exc}")

    state_block = _config_container(raw["state"], "state")
    _reject_unknown(state_block, {"coefficients"}, "state")
    entries = _config_container(state_block.get("coefficients"), "state.coefficients", list)
    coefficients = {}
    for i, entry in enumerate(entries):
        if not (isinstance(entry, (list, tuple)) and len(entry) == 2):
            raise ConfigError(
                f"'state.coefficients' entries must be [label, value]; got {entry!r}")
        try:
            label = parse_label(entry[0], system.n)
        except ValueError as exc:
            raise ConfigError(f"bad label in 'state.coefficients': {exc}")
        if label in coefficients:
            raise ConfigError(
                f"duplicate label {format_label(label)!r} in 'state.coefficients'")
        coefficients[label] = _config_float(entry[1], f"state.coefficients[{i}]")

    acq = dict(_config_container(raw.get("acquisition"), "acquisition"))
    _reject_unknown(acq, _ACQ_KEYS, "acquisition")
    for key in ("n_t1", "n_t2"):
        if key in acq:
            acq[key] = _config_int(acq[key], f"acquisition.{key}", 1)
    for key in ("dwell_t1_s", "dwell_t2_s"):
        if key in acq:
            acq[key] = _config_float(acq[key], f"acquisition.{key}", 0.0, strict=True)
    for key in ("alpha_deg", "beta_deg"):
        if key in acq:
            acq[key] = _config_float(acq[key], f"acquisition.{key}")

    opt_block = _config_container(raw.get("options"), "options")
    _reject_unknown(opt_block, _OPT_KEYS, "options")
    options = RunOptions()
    for key, minimum in (("noise_rms", 0.0), ("gradient_tau_max_s", 0.0)):
        if key in opt_block:
            setattr(options, key, _config_float(opt_block[key], f"options.{key}", minimum))
    for key, minimum in (("gradient_draws", 1), ("seed", 0)):
        if key in opt_block:
            setattr(options, key, _config_int(opt_block[key], f"options.{key}", minimum))
    if "realistic_gradient" in opt_block:
        if not isinstance(opt_block["realistic_gradient"], bool):
            raise ConfigError(f"'options.realistic_gradient' must be true or false, "
                              f"got {opt_block['realistic_gradient']!r}")
        options.realistic_gradient = opt_block["realistic_gradient"]
    options.output_dir = opt_block.get("output_dir", options.output_dir)
    if not isinstance(options.output_dir, str) or not options.output_dir:
        raise ConfigError(f"'options.output_dir' must be a non-empty string, "
                          f"got {options.output_dir!r}")

    return RunConfig(system=system, coefficients=coefficients,
                     acquisition=acq, options=options)


def _config_container(value, path: str, kind=dict):
    """``value`` if it is a JSON object (``kind`` dict) or array (list); an
    empty one if it is null (None)."""
    if value is None:
        return kind()
    if not isinstance(value, kind):
        raise ConfigError(f"'{path}' must be a JSON {'object' if kind is dict else 'array'}, "
                          f"got {value!r}")
    return value


def _config_int(value, path: str, minimum: int) -> int:
    """``value`` as an int, if it is an integral JSON number >= ``minimum``."""
    if (isinstance(value, bool) or not isinstance(value, (int, float))
            or isinstance(value, float) and not value.is_integer()
            or value < minimum):
        raise ConfigError(f"'{path}' must be an integer >= {minimum}, got {value!r}")
    return int(value)


def _config_float(value, path: str, minimum: float | None = None,
                  strict: bool = False) -> float:
    """``value`` as a float, if it is a finite JSON number at least ``minimum``
    (above it, with ``strict``)."""
    number = math.nan
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        try:
            number = float(value)
        except OverflowError:  # an integer beyond the float range
            pass
    ok = math.isfinite(number)
    if ok and minimum is not None:
        ok = number > minimum if strict else number >= minimum
    if not ok:
        bound = "" if minimum is None else f" {'>' if strict else '>='} {minimum}"
        raise ConfigError(f"'{path}' must be a finite number{bound}, got {value!r}")
    return number


def resolve_params(cfg: RunConfig):
    """Acquisition parameters from the validated ``acquisition`` block."""
    acq = cfg.acquisition
    kwargs = {key: acq[key] for key in ("n_t1", "n_t2", "dwell_t1_s", "dwell_t2_s")
              if key in acq}
    for angle in ("alpha", "beta"):
        if f"{angle}_deg" in acq:
            kwargs[f"{angle}_rad"] = float(np.radians(acq[f"{angle}_deg"]))
    try:
        return default_acquisition(cfg.system, **kwargs)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


# ---------------------------------------------------------------------------
# Output helpers


@contextlib.contextmanager
def _staged(out: Path):
    """Yield a new directory in ``out`` for a command to write its files into.

    When the block ends normally each file is renamed into ``out``, so
    readers see an old file or a whole new one.  A name that is a directory
    in ``out`` is refused before the first rename, since no file can replace
    it.  However the block ends, the directory is then removed: a command
    that fails or refuses leaves ``out`` as it found it.  Named from
    ``os.urandom``, so concurrent runs into one directory never share it, and
    no generator is seeded for it.
    """
    stage = out / f".staged-{os.urandom(16).hex()}"
    stage.mkdir()
    try:
        yield stage
        names = [path.name for path in stage.iterdir()]
        for name in names:
            if (out / name).is_dir():
                raise ConfigError(f"cannot write {out / name}: it is a directory")
        for name in names:
            os.replace(stage / name, out / name)
    finally:
        shutil.rmtree(stage)


def _finite_or_null(value):
    """``value`` with every non-finite float in it replaced by None."""
    if isinstance(value, dict):
        return {key: _finite_or_null(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_finite_or_null(item) for item in value]
    return None if isinstance(value, float) and not math.isfinite(value) else value


def _write_json(path: Path, payload: dict) -> None:
    """Strict JSON, streamed into the file as it is encoded: a non-finite
    number (an infinite condition number) is null."""
    with open(path, "w") as handle:
        json.dump(_finite_or_null(payload), handle, indent=2, sort_keys=True,
                  allow_nan=False)
        handle.write("\n")


def _write_array(out: Path, name: str, array, axes, sidecar: str, shape=None,
                 **fields) -> None:
    """``array`` as the ``.npy`` file ``out / name``, then its JSON sidecar
    ``out / sidecar``: ``fields`` plus an ``array`` entry with the file, the
    axis names and the dtype and shape read off the header just written.

    With ``shape``, ``array`` yields the column blocks of an array of that
    shape, left to right, each written column-major as it comes, so the whole
    array is never held.  Saved through a handle, since ``np.save`` adds
    ``.npy`` to a bare path, and without pickled objects.
    """
    fmt = np.lib.format
    with open(out / name, "wb") as handle:
        if shape is None:
            header = fmt.header_data_from_array_1_0(array)
            np.save(handle, array, allow_pickle=False)
        else:
            blocks = iter(array)
            first = next(blocks)
            header = {"descr": fmt.dtype_to_descr(first.dtype), "fortran_order": True,
                      "shape": tuple(shape)}
            fmt.write_array_header_1_0(handle, header)
            for block in itertools.chain([first], blocks):
                handle.write(block.tobytes(order="F"))
    _write_json(out / sidecar, {**fields, "array": {
        "file": name, "dtype": fmt.descr_to_dtype(header["descr"]).name,
        "shape": list(header["shape"]), "axes": axes}})


# Samples noised per block, so the draw's temporaries (a few arrays of 64 KiB)
# do not grow with the grid.
NOISE_BLOCK = 4096


def _apply_noise(rng, array: np.ndarray, rms: float) -> np.ndarray:
    """Add circular complex Gaussian noise with E|n|^2 = ``rms``^2 to the
    contiguous ``array`` in place, and return ``array``.

    Box-Muller on the little-endian 64-bit words of ``rng``, a
    :class:`random.Random`: flattened sample k takes words 2k and 2k+1, whose
    top 53 bits give u1 in (0, 1] and u2 in [0, 1), and gets
    rms*sqrt(-ln u1)*exp(2*pi*i*u2), so each component has variance rms^2/2.
    The words are drawn :data:`NOISE_BLOCK` samples at a time; sample k
    depends only on its place in the stream, not on the block.
    """
    if not array.flags.c_contiguous:
        raise ValueError("noise is added in place to a C-contiguous array")
    flat = array.reshape(-1)
    for start in range(0, flat.size, NOISE_BLOCK):
        block = flat[start:start + NOISE_BLOCK]
        words = np.frombuffer(rng.randbytes(16 * block.size), "<u8") >> 11
        u = words.reshape(-1, 2) * 2.0 ** -53
        block += rms * np.sqrt(-np.log(u[:, 0] + 2.0 ** -53)) * np.exp(2j * np.pi * u[:, 1])
    return array


def _simulate_signals(cfg: RunConfig, params):
    """The input state and signals A and B, both noised.

    ``random.Random(seed)``, made only when the run draws something, draws
    the realistic gradient's delays, A's then B's, before any noise.  No run
    loads ``numpy.random``.
    """
    options = cfg.options
    if options.noise_rms > 0 or options.realistic_gradient:
        rng = random.Random(options.seed)
    system = cfg.system
    rho0 = coefficients_to_density(system, cfg.coefficients)
    delays = [None, None]
    if options.realistic_gradient:
        delays = [np.array([rng.uniform(0.0, options.gradient_tau_max_s)
                            for _ in range(options.gradient_draws)]) for _ in delays]
    signal_a = run_sequence_A(system, rho0, params, gradient_delays_s=delays[0])
    signal_b = run_sequence_B(system, rho0, params, gradient_delays_s=delays[1])
    if options.noise_rms > 0:
        for samples in (signal_a.grid, signal_b.samples):
            _apply_noise(rng, samples, options.noise_rms)
    return rho0, signal_a, signal_b


def _export_simulation(signal_a, signal_b, out: Path, table) -> None:
    """Write signals, spectra and cross-sections.

    The t2 hybrid is never held whole: the 2D magnitude is streamed one
    column block at a time from slabs of Omega2 columns, each about the size
    of signal A's grid, and the cross-sections are transformed from the
    transition bins' own hybrid columns.
    """
    _write_array(out, "signal_a.npy", signal_a.grid, ["t1", "t2"], "signal_a.json",
                 dwell_t1_s=signal_a.dwell_t1_s, dwell_t2_s=signal_a.dwell_t2_s,
                 n_t1=signal_a.grid.shape[0], n_t2=signal_a.grid.shape[1],
                 meta=signal_a.meta)
    _write_array(out, "signal_b.npy", signal_b.samples, ["t2"], "signal_b.json",
                 dwell_s=signal_b.dwell_s, n_samples=len(signal_b.samples),
                 meta=signal_b.meta)

    # No fit reads the magnitude, which has lost the phase: each float64
    # block is rounded once to float32 as it is written, through map, which
    # unlike a generator expression holds no float64 block during the next.
    omega2_hz = hybrid_omega2_axis(signal_a.grid.shape[1], signal_a.dwell_t2_s)
    omega1_hz, magnitude = dft_t1_magnitude(signal_a)
    _write_array(out, "spectrum_2d.npy", map(lambda block: block.astype(np.float32), magnitude),
                 ["omega1", "omega2"], "spectrum_2d_axes.json",
                 shape=(len(omega1_hz), len(omega2_hz)),
                 omega1_hz=[float(f) for f in omega1_hz],
                 omega2_hz=[float(f) for f in omega2_hz],
                 units={"omega1": "Hz", "omega2": "Hz"})

    # Row i is transition-table index i, since frequencies can agree to any
    # printed precision.
    _, sections = cross_sections(signal_a, [t.frequency_hz for t in table])
    _write_array(out, "cross_sections.npy", np.ascontiguousarray(sections.grid.T),
                 ["section", "omega1"], "cross_sections.json",
                 omega1_hz=[float(f) for f in sections.omega1_hz],
                 sections=[{"index": i, "qubit": t.qubit,
                            "frequency_hz": t.frequency_hz, "bin_hz": float(bin_hz)}
                           for i, (t, bin_hz) in enumerate(zip(table, sections.omega2_hz))])
    del sections

    spectrum_b = dft_fid(signal_b)
    _write_array(out, "spectrum_b.npy", spectrum_b.values, ["omega"], "spectrum_b.json",
                 omega_hz=[float(f) for f in spectrum_b.omega_hz],
                 units={"omega": "Hz"})


def _design_summary(design) -> dict:
    return {
        "shape": list(design.shape),
        "labels": [format_label(l) for l in design.labels],
        "rank": design.rank,
        "columns": len(design.labels),
        "full_rank": design.is_full_rank,
        "condition_number": design.condition_number,
        "condition_number_diagonal": design.condition_number_diagonal,
        "zero_labels": [format_label(l) for l in design.zero_labels],
        "nullspace_labels": [format_label(l) for l in design.nullspace_labels],
    }


def _format_matrix(matrix: np.ndarray) -> str:
    return np.array2string(np.asarray(matrix), precision=5, suppress_small=True,
                           max_line_width=120)


def _write_report(path: Path, result) -> None:
    lines = ["state reconstruction report", "=" * 28, ""]
    if result.reference is not None:
        lines += ["input matrix:", _format_matrix(result.reference), ""]
    lines += ["reconstructed matrix:", _format_matrix(result.matrix), ""]
    if result.fidelity is not None:
        lines.append(f"fidelity: {result.fidelity:.10f}")
    if result.max_relative_element_error is not None:
        lines.append(
            f"max relative element error: {result.max_relative_element_error:.3e}")
        lines.append(
            "max absolute element error: "
            f"{float(np.max(np.abs(result.element_errors))):.3e}")
    if result.max_coefficient_error is not None:
        lines.append(f"max coefficient error: {result.max_coefficient_error:.3e}")
    lines.append(f"off-diagonal fit residual (relative): {result.residual_offdiagonal:.3e}")
    lines.append(f"diagonal fit residual (relative): {result.residual_diagonal:.3e}")
    lines.append(f"design condition number: {result.condition_number:.6g}")
    for note in result.notes:
        lines.append(f"note: {note}")
    path.write_text("\n".join(lines) + "\n")


# ---------------------------------------------------------------------------
# Commands


def cmd_simulate(cfg: RunConfig, out: Path) -> int:
    _, signal_a, signal_b = _simulate_signals(cfg, resolve_params(cfg))
    with _staged(out) as stage:
        _export_simulation(signal_a, signal_b, stage, transition_table(cfg.system))
    print(f"simulation artifacts written to {out}")
    return 0


def cmd_tomograph(cfg: RunConfig, out: Path, verbose: bool = False) -> int:
    params = resolve_params(cfg)
    rho0, signal_a, signal_b = _simulate_signals(cfg, params)
    with _staged(out) as stage:
        _export_simulation(signal_a, signal_b, stage, transition_table(cfg.system))
        # Taken after the exports, whose peak the SVD's resident library code
        # and BLAS buffers would raise; the time grid is released once they
        # are taken.
        coordinates = fid_coordinates(signal_a, detection_basis(cfg.system, params))
        signal_a.grid = None

        design = build_design_matrix(cfg.system, params, coordinates.basis)
        _write_json(stage / "design_summary.json", _design_summary(design))
        if verbose:
            print(_design_line(design), file=sys.stderr)

        result = tomograph_state(design, coordinates, signal_b, truth=rho0)
        _write_json(stage / "result.json", result.to_json_dict())
        _write_report(stage / "report.txt", result)

    if result.fidelity is None:
        print("fidelity skipped:", "; ".join(result.notes) or "no reference")
    else:
        print(f"fidelity: {result.fidelity:.8f}   "
              f"max relative element error: {result.max_relative_element_error:.3e}")
    print(f"tomography artifacts written to {out}")
    return 0


def _design_line(design) -> str:
    return (f"design matrix {design.shape[0]}x{design.shape[1]}, "
            f"rank {design.rank}/{len(design.labels)}, "
            f"condition number {design.condition_number:.6g}")


def cmd_basis(cfg: RunConfig, out: Path) -> int:
    design = build_design_matrix(cfg.system, resolve_params(cfg))
    with _staged(out) as stage:
        _write_json(stage / "design_summary.json", _design_summary(design))
    print(_design_line(design))
    if not design.is_full_rank:
        print("design does not determine these labels: "
              + ", ".join(format_label(l) for l in design.nullspace_labels),
              file=sys.stderr)
        return 3
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="spintomo",
        description="Simulate and invert two-dimensional state tomography "
                    "experiments on coupled spin-1/2 registers.",
    )
    parser.add_argument("command", choices=["simulate", "tomograph", "basis"])
    parser.add_argument("--config", required=True, help="path to a JSON run configuration")
    parser.add_argument("--out", default=None, help="output directory (default: from config)")
    parser.add_argument("--seed", type=int, default=None, help="override the config seed")
    parser.add_argument("--verbose", action="store_true",
                        help="tomograph: print the design line to stderr")
    args = parser.parse_args(argv)

    try:
        cfg = parse_config(args.config)
        if args.seed is not None:
            cfg.options.seed = _config_int(args.seed, "--seed", 0)
        if args.out == "":
            raise ConfigError("cannot create output directory '': the path is empty")
        out = Path(args.out) if args.out is not None else Path(cfg.options.output_dir)
        try:
            out.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise ConfigError(f"cannot create output directory {out}: {exc}")
        if args.command == "tomograph":
            return cmd_tomograph(cfg, out, args.verbose)
        return {"simulate": cmd_simulate, "basis": cmd_basis}[args.command](cfg, out)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (SpinTomoError, np.linalg.LinAlgError) as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        # staging, writing or committing the outputs failed
        print(f"output error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
