"""The exact built-in codes up to 64 antennas, built once for the tests that sweep them all."""

from __future__ import annotations

from functools import lru_cache

from stbc_forge import build_ciod4, build_max_rate_ussd, build_square_cod, generate_family


@lru_cache(maxsize=None)
def exact_built_in_codes() -> dict:
    """ussd and cod for a = 1..6 (n = 2..64), and ciod4, by name."""
    out = {}
    for a in range(1, 7):
        fam = generate_family(a)
        out[f"ussd{2 ** a}"] = build_max_rate_ussd(a, fam)
        out[f"cod{2 ** a}"] = build_square_cod(a, fam)
    out["ciod4"] = build_ciod4()
    return out
