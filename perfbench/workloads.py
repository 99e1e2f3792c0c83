"""Seeded generation of the benchmark's `spintomo tomograph` configs.

Every config is a pure function of (workload, seed, op index): the same
arguments give byte-identical JSON.  The program under test only ever sees
the generated files; the generated coefficients stay here as the ground
truth for the correctness gate.

Grids are smaller than the shipped ones so that one run holds several ops:
the shipped 4-qubit config (2048 x 512) takes about a minute per op on 2
cores, and the 3-qubit default (1024 x 512) about 10 s; perfbench/baseline.json
records both.  The scaled cold op keeps the full-size profile (design build,
cache write and lstsq about 80% of self time, against 75%); exports weigh
less in the scaled warm and noisy ops (about 50% and 40%, against 70% and
77%).
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass

import numpy as np

AXES = "oxyz"

# The shipped 4-qubit register (configs/demo_4qubit.json), copied so that the
# benchmark does not change when the demo config does.
LARMOR_4Q = (600.0, 750.0, 1000.0, 1400.0)
COUPLINGS_4Q = {"1,2": 20.0, "1,3": 10.0, "1,4": 70.0,
                "2,3": 35.0, "2,4": 24.0, "3,4": 16.0}
T2_S = 0.01
GRID_4Q = {"n_t1": 256, "n_t2": 256}

# Jitter of the cold workload's register, as a fraction of each value.
LARMOR_JITTER = 0.005
COUPLING_JITTER = 0.02

# Generated registers keep every pair of transitions at least this far apart,
# well above the program's degeneracy tolerance (1e-6 Hz).
MIN_LINE_GAP_HZ = 1.0


@dataclass(frozen=True)
class Workload:
    name: str
    n: int
    terms: int
    # Largest allowed |fitted - generated| over all coefficients.
    coef_tol: float
    fresh_dir: bool
    warmup: bool


WORKLOADS = {
    w.name: w for w in (
        Workload("tomo-4q-cold", n=4, terms=18, coef_tol=1e-9,
                 fresh_dir=True, warmup=False),
        Workload("tomo-4q-warm", n=4, terms=18, coef_tol=1e-9,
                 fresh_dir=False, warmup=True),
        Workload("tomo-3q-noisy", n=3, terms=12, coef_tol=0.1,
                 fresh_dir=True, warmup=False),
    )
}
_TAGS = {"tomo-4q-cold": 1, "tomo-4q-warm": 2, "tomo-3q-noisy": 3}

GRID_3Q = {"n_t2": 128}
# With the CLI's default gradient spread (0.02 s, 16 draws) the zero-quantum
# coherence a realistic gradient leaves behind moves coefficients by up to
# 0.65 (40 seeds), a model mismatch far above the noise.  This wider spread
# brings the largest error over 300 generated ops down to 0.031 (median
# 0.0056), so the 3-qubit gate of 0.1 sits near noise level.
NOISE_3Q = {"noise_rms": 1e-3, "realistic_gradient": True,
            "gradient_tau_max_s": 2.0, "gradient_draws": 128}


def _rng(workload: str, seed: int, *stream: int) -> np.random.Generator:
    return np.random.default_rng([int(seed), _TAGS[workload], *stream])


def transition_frequencies(n: int, larmor_hz, couplings_hz: dict) -> list:
    """Weak-coupling line positions: Larmor frequency plus +-J/2 per partner."""
    coupling = {}
    for key, value in couplings_hz.items():
        j, k = (int(x) for x in key.split(","))
        coupling[(j, k)] = coupling[(k, j)] = value
    lines = []
    for j in range(1, n + 1):
        partners = [k for k in range(1, n + 1) if k != j]
        for signs in itertools.product((0.5, -0.5), repeat=n - 1):
            lines.append(larmor_hz[j - 1] + sum(
                s * coupling.get((j, k), 0.0) for s, k in zip(signs, partners)))
    return lines


def _well_separated(n: int, larmor_hz, couplings_hz: dict) -> bool:
    lines = np.sort(transition_frequencies(n, larmor_hz, couplings_hz))
    return bool(np.min(np.diff(lines)) >= MIN_LINE_GAP_HZ)


def _jittered_4q(rng: np.random.Generator):
    while True:
        larmor = [f * (1.0 + rng.uniform(-LARMOR_JITTER, LARMOR_JITTER))
                  for f in LARMOR_4Q]
        couplings = {key: value * (1.0 + rng.uniform(-COUPLING_JITTER, COUPLING_JITTER))
                     for key, value in COUPLINGS_4Q.items()}
        if _well_separated(4, larmor, couplings):
            return larmor, couplings


def _random_3q(rng: np.random.Generator):
    """Larmor lines in disjoint bands; couplings distinct by >= 12 Hz."""
    while True:
        larmor = [rng.uniform(lo, lo + 300.0) for lo in (400.0, 900.0, 1400.0)]
        values = rng.uniform(15.0, 90.0, size=3)
        if min(abs(a - b) for a, b in itertools.combinations(values, 2)) < 12.0:
            continue
        couplings = {key: float(v) for key, v in zip(("1,2", "1,3", "2,3"), values)}
        if _well_separated(3, larmor, couplings):
            return larmor, couplings


def _random_state(rng: np.random.Generator, n: int, terms: int) -> list:
    labels = ["".join(p) for p in itertools.product(AXES, repeat=n)][1:]
    chosen = sorted(rng.choice(len(labels), size=terms, replace=False))
    values = rng.uniform(0.5, 2.0, size=terms) * rng.choice((-1.0, 1.0), size=terms)
    return [[" ".join(labels[i]), float(v)] for i, v in zip(chosen, values)]


def op_config(workload: str, seed: int, op: int) -> dict:
    """Config of op number ``op`` (0 is the warm-up op where there is one)."""
    spec = WORKLOADS[workload]
    state_rng = _rng(workload, seed, 1, op)
    options = {"noise_rms": 0.0, "realistic_gradient": False,
               "seed": int(state_rng.integers(2**31))}
    acquisition = {"alpha_deg": 45.0, "beta_deg": 10.0}
    if workload == "tomo-4q-cold":
        larmor, couplings = _jittered_4q(_rng(workload, seed, 2, op))
        acquisition.update(GRID_4Q)
    elif workload == "tomo-4q-warm":
        larmor, couplings = list(LARMOR_4Q), dict(COUPLINGS_4Q)
        acquisition.update(GRID_4Q)
    else:
        larmor, couplings = _random_3q(_rng(workload, seed, 2))
        acquisition.update(GRID_3Q)
        options.update(NOISE_3Q)
    return {
        "spin_system": {"n": spec.n, "larmor_hz": larmor,
                        "couplings_hz": couplings, "t2_s": T2_S},
        "state": {"coefficients": _random_state(state_rng, spec.n, spec.terms)},
        "acquisition": acquisition,
        "options": options,
    }


def config_bytes(config: dict) -> bytes:
    return (json.dumps(config, indent=2) + "\n").encode()


def generated_coefficients(config: dict) -> dict:
    """{compact label: value} of the state a config asks for."""
    return {"".join(label.split()): float(value)
            for label, value in config["state"]["coefficients"]}
