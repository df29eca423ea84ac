"""Generic initial ideals, Borel-fixed staircases, and monomial invariants."""

from .ring import (DEFAULT_PRIME, LinearChange, Poly, PolyRing, mono_div,
                   mono_divides, mono_gcd, restrict, revlex_key)
from .groebner import (Ideal, buchberger, hilbert_function, ideal_quotient,
                       initial_ideal, intersect, normal_form, restrict_ideal,
                       saturate, truncate)
from .staircase import (InvariantProfile, InvariantTable, MonomialIdeal,
                        colon_by_monomial, elementary_move, gap_degrees,
                        invariant_table, is_borel_fixed, is_connected,
                        restrict_last, slice_level, truncate_monomial)
from .gin import (GinResult, TraceResult, check_connectedness, gin,
                  run_trace, variety_invariants, verify_gap_truncation,
                  verify_slice_identity)
from .parsing import ParseError, parse_ideal, parse_polynomial, render_poly

__version__ = "0.1.0"
