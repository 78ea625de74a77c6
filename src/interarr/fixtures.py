"""Golden tables embedded as package data, used by the CLI diff and tests."""

from __future__ import annotations

import json
import os

from .poly import IntPolynomial


def _load(name: str) -> dict:
    # read through this module's loader, as pkgutil.get_data would, so a
    # zipped install works too; importing neither importlib.resources nor
    # pkgutil (which loads typing) keeps a cold start short
    return json.loads(__loader__.get_data(os.path.join(os.path.dirname(__file__), "data", name)))


def gamma_table() -> dict[int, dict[int, tuple[int, ...]]]:
    """Expected gamma vectors of the intermediate family, n = 3..6."""
    raw = _load("gamma_table.json")
    return {int(n): {int(s): tuple(v) for s, v in row.items()}
            for n, row in raw.items()}


def chow_table() -> dict[int, dict[int, IntPolynomial]]:
    """Expected Chow polynomials of the intermediate family, n = 2..7."""
    raw = _load("chow_table.json")
    return {int(n): {int(s): IntPolynomial.from_json_coeffs(v) for s, v in row.items()}
            for n, row in raw.items()}


# Chow polynomials of the small reflection-type examples (coefficients
# ascending); keys are the lattice rank.
CHOW_A_EXAMPLES = {
    2: IntPolynomial((1, 1)),
    3: IntPolynomial((1, 8, 1)),
    4: IntPolynomial((1, 41, 41, 1)),
}
CHOW_B_EXAMPLES = {
    2: IntPolynomial((1, 1)),
    3: IntPolynomial((1, 14, 1)),
    4: IntPolynomial((1, 99, 99, 1)),
}
