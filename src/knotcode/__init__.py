"""Exact-arithmetic library for linear codes built from knot diagram
colorings: oriented diagrams and their regions, Fox/Dehn coloring matrices,
Alexander polynomials, Smith normal forms, coloring counts, code
parameters for torus/pretzel/connected-sum families, and the code
dimensions of iterated torus knots around a companion (cable_dimensions).
"""

from .laurent import LaurentPoly
from .fields import FqField, IntMod, PolyMod, RingFpT, RingZ, is_prime
from .exactlin import SnfResult, snf
from .diagram import Crossing, Diagram, DiagramError
from .generators import (
    builtin,
    connected_sum,
    from_braid,
    is_pretzel_knot,
    pretzel_diagram,
    torus_diagram,
)
from .coloring import (
    alexander_polynomial,
    count_colorings,
    dehn_to_fox,
    first_minors_agree,
    fox_to_dehn,
    is_colorable,
    knot_determinant,
)
from .codes import (
    BudgetExceeded,
    LinearCode,
    WeightEnumerator,
    code_from_diagram,
    dual,
    dual_knot_feasibility,
    ldpc_profile,
    min_distance,
    sum_code,
    weight_enumerator,
)
from .cable import (
    cable_alexander,
    cable_dimensions,
    iterated_cable_length,
    torus_alexander,
    torus_delta,
)

__version__ = "0.1.0"
