"""Loaders for the published reference tables bundled as JSON.

Each fixture stores a printed table verbatim and records where the print
disagrees with exact computation: tables 2 and 4 in an ``expect_diff``
list, table 3 as a per-cell ``status`` (``matches_truncation``,
``matches_rounding`` or ``differs``).
The verification suites and the CLI table commands both consume these,
so the printed values live in exactly one place.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from importlib import resources
from math import factorial

__all__ = [
    "RefRow",
    "RefRPoly",
    "load_table2",
    "load_table3",
    "load_table4",
]


def _load(name: str) -> dict:
    source = resources.files("gencosec.data").joinpath(name)
    return json.loads(source.read_text())


@dataclass(frozen=True)
class RefRow:
    """One printed row: prefactor times ascending integer coefficients."""

    k: int
    prefactor: Fraction
    coeffs: tuple[int, ...]

    def rational_coefficients(self) -> tuple[Fraction, ...]:
        return tuple(self.prefactor * c for c in self.coeffs)


@lru_cache(maxsize=None)
def load_table2() -> tuple[tuple[RefRow, ...], tuple[dict, ...]]:
    """Printed cosecant rows for k = 0..15 and their known misprints."""
    raw = _load("table2.json")
    rows = tuple(
        RefRow(
            k=row["k"],
            prefactor=Fraction(
                row["num"], row["den_const"] * factorial(row["factorial_arg"])
            ),
            coeffs=tuple(int(c) for c in row["coeffs"]),
        )
        for row in raw["rows"]
    )
    return rows, tuple(raw["expect_diff"])


@lru_cache(maxsize=None)
def load_table3() -> dict:
    """Printed 6-decimal accuracy-ratio grid with per-cell status."""
    return _load("table3.json")


@dataclass(frozen=True)
class RefRPoly:
    """One printed r_ell(k): inner ascending coefficients / denominator,
    optionally times k(k-1)."""

    ell: int
    denominator: int
    k_factor: bool
    inner: tuple[int, ...]

    def coefficients(self) -> tuple[Fraction, ...]:
        """Ascending coefficients of the full polynomial in k."""
        if self.k_factor:
            # multiply inner by k**2 - k
            width = len(self.inner) + 2
            full = [0] * width
            for i, c in enumerate(self.inner):
                full[i + 2] += c
                full[i + 1] -= c
        else:
            full = list(self.inner)
        return tuple(Fraction(c, self.denominator) for c in full)


def _ref_rpoly(entry: dict) -> RefRPoly:
    return RefRPoly(
        ell=entry["ell"],
        denominator=entry["denominator"],
        k_factor=entry["k_factor"],
        inner=tuple(int(c) for c in entry["inner"]),
    )


@lru_cache(maxsize=None)
def load_table4() -> tuple[tuple[RefRPoly, ...], tuple[dict, ...]]:
    """Printed r_ell rows for ell = 1..10 and their known misprints.

    Each expect_diff entry carries the derived replacement under
    ``derived`` in the same row format (ell taken from the entry).
    """
    raw = _load("table4.json")
    rows = tuple(_ref_rpoly(row) for row in raw["rows"])
    diffs = []
    for entry in raw["expect_diff"]:
        entry = dict(entry)
        entry["derived_poly"] = _ref_rpoly({"ell": entry["ell"], **entry["derived"]})
        diffs.append(entry)
    return rows, tuple(diffs)
