"""Seeded boundary traces for the benchmark, with their closed-form answers.

Every trace is branched (swap class): one double loop over [0, 4*pi) whose
first ``n`` samples are sheet 1 and last ``n`` samples sheet 2. A trace is
built from its double-loop modes ``(k, A_k, B_k)``; mode k has frequency
k/2 and extends into the disk by r^(k/2). Knowing the modes gives the
closed-form answers without running the program under test:

    energy              pi * sum_k k (|A_k|^2 + |B_k|^2)
    boundary mass at r  2 pi * sum_k r^k (|A_k|^2 + |B_k|^2)

(``qdisk.minimizer.spectral_energy`` is the same energy formula applied to
the coefficients the program recovers from the samples.)
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

# Broadband noise level: mode k carries coefficients of norm NOISE / k. At
# 256x1024 this keeps the quadrature's relative energy error near 5e-4,
# inside the 1% check with room to spare.
NOISE = 0.05
MIN_SEPARATION = 0.05


@dataclass(frozen=True)
class Trace:
    """Double-loop modes of one branched trace sampled at ``n`` angles."""

    n: int
    k: np.ndarray  # (m,) double-loop mode indices, all >= 1
    A: np.ndarray  # (m, 2) cosine coefficients
    B: np.ndarray  # (m, 2) sine coefficients

    def loop(self) -> np.ndarray:
        """Samples of the double loop at 2n uniform angles of [0, 4*pi)."""
        cover = 2.0 * np.pi * np.arange(2 * self.n) / self.n
        ang = 0.5 * np.outer(cover, self.k)
        return np.cos(ang) @ self.A + np.sin(ang) @ self.B

    def sheets(self) -> tuple[np.ndarray, np.ndarray]:
        loop = self.loop()
        return loop[: self.n], loop[self.n :]

    def separation(self) -> float:
        p1, p2 = self.sheets()
        return float(np.min(np.linalg.norm(p1 - p2, axis=1)))

    def _mass(self) -> np.ndarray:
        return np.sum(self.A**2, axis=1) + np.sum(self.B**2, axis=1)

    def energy(self) -> float:
        """Closed-form Dirichlet energy of the minimizer."""
        return float(np.pi * np.sum(self.k * self._mass()))

    def blowup_boundary_mass(self, r: float) -> float:
        """Boundary mass H(1) of the blow-up at radius r, normalized to unit
        energy: H(r) / D(r) of the minimizer."""
        w = self._mass() * np.power(r, self.k.astype(float))
        return float(2.0 * np.sum(w) / np.sum(self.k * w))

    def write(self, path: Path) -> None:
        """Write the CLI's boundary trace JSON format."""
        p1, p2 = self.sheets()
        thetas = 2.0 * np.pi * np.arange(self.n) / self.n
        rows = [
            {"theta": float(t), "p1": [float(a), float(b)], "p2": [float(c), float(d)]}
            for t, (a, b), (c, d) in zip(thetas, p1, p2)
        ]
        Path(path).write_text(json.dumps(rows) + "\n")


def _rotating(k: int, amp: float, phase: float) -> tuple[np.ndarray, np.ndarray]:
    """Coefficients of amp * (cos(k t/2 + phase), sin(k t/2 + phase))."""
    A = amp * np.array([np.cos(phase), np.sin(phase)])
    B = amp * np.array([-np.sin(phase), np.cos(phase)])
    return A, B


def band_limited(rng: np.random.Generator, n: int, stratum: int, strata: int) -> Trace:
    """Degree-3/2 branched sheet plus a degree-7/2 perturbation.

    The seed rotates the target plane and draws the perturbation's phase and
    its amplitude, uniform within stratum ``stratum`` of ``strata`` equal
    slices of [0.1, 0.3]. Drawing one trace per stratum keeps the run's
    average quadrature error steady across seeds. The expected blow-up is
    N = 3/2 with swap continuation whatever the draw.
    """
    alpha = rng.uniform(0.0, 2.0 * np.pi)
    phase = rng.uniform(0.0, 2.0 * np.pi)
    amp = 0.1 + 0.2 * (stratum + rng.uniform()) / strata
    A3, B3 = _rotating(3, 1.0, alpha)
    A7, B7 = _rotating(7, amp, alpha + phase)
    return Trace(n, np.array([3, 7]), np.stack([A3, A7]), np.stack([B3, B7]))


def broadband(rng: np.random.Generator, n: int) -> Trace:
    """All double-loop modes 1..n-1 with seeded Gaussian coefficients whose
    norm decays as 1/k.

    Each mode's four coefficients point in a Gaussian (uniformly random)
    direction with norm NOISE / k. Modes are orthogonal under the grid
    quadrature, so its energy error is a sum over modes of the mode's energy
    times an error that depends only on k; fixing the norms keeps that error
    from depending on the seed. Mode 1 is instead a rotating degree-1/2
    sheet of amplitude 1.5, which keeps the sheets apart; the draw is
    repeated until their separation is at least MIN_SEPARATION.
    """
    k = np.arange(1, n)
    for _ in range(200):
        coeffs = rng.normal(size=(n - 1, 4))
        coeffs *= (NOISE / k / np.linalg.norm(coeffs, axis=1))[:, None]
        A, B = coeffs[:, :2], coeffs[:, 2:]
        A[0], B[0] = _rotating(1, 1.5, rng.uniform(0.0, 2.0 * np.pi))
        trace = Trace(n, k, A, B)
        if trace.separation() >= MIN_SEPARATION:
            return trace
    raise RuntimeError("could not draw a separated broadband trace")


def make_traces(kind: str, seed: int, n: int, count: int) -> list[Trace]:
    rng = np.random.default_rng(seed)
    if kind == "band":
        return [band_limited(rng, n, i, count) for i in range(count)]
    if kind == "broadband":
        return [broadband(rng, n) for _ in range(count)]
    raise ValueError(f"unknown trace kind {kind!r}")
