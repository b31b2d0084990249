"""Single-symbol decodable space-time block codes with unitary weights.

Construction of maximal-rate codes from anticommuting matrix families,
exact verification of the orthogonality conditions, coding-gain
evaluation, and Rayleigh-fading Monte Carlo simulation.

The package namespace carries what the command line and the acceptance
suite use; everything else is imported from its submodule.
"""

from .clifford import (
    AnticommutingFamily,
    generate_family,
    product_subset,
    products_commute,
    square_sign,
)
from .codes import build_ciod4, build_max_rate_ussd, build_square_cod
from .codinggain import min_det_bruteforce, min_det_closed_form
from .constellations import ciod_optimal_angle, optimal_angle, rotated_qam
from .simulator import (
    SimConfig,
    ml_decode_bruteforce,
    simulate_cer,
    ssd_decode,
    transmit_scale,
)
from .verifier import check_ssd, check_unitary_weight, classify

__version__ = "0.1.0"

__all__ = [
    "AnticommutingFamily",
    "SimConfig",
    "build_ciod4",
    "build_max_rate_ussd",
    "build_square_cod",
    "check_ssd",
    "check_unitary_weight",
    "ciod_optimal_angle",
    "classify",
    "generate_family",
    "min_det_bruteforce",
    "min_det_closed_form",
    "ml_decode_bruteforce",
    "optimal_angle",
    "product_subset",
    "products_commute",
    "rotated_qam",
    "simulate_cer",
    "square_sign",
    "ssd_decode",
    "transmit_scale",
]
