"""Generalized Zetterberg codes: construction, minimum distance, covering
radius (oracle / criterion / shortcuts), threshold tables and
quasi-perfect/maximal classification."""

from .caps import Caps, load_caps
from .charsum import (artin_schreier_solvable, find_nonsquare_quartic_pair,
                      quadratic_char_sum, roots_in_H_count_odd,
                      roots_in_H_exist_even, weil_bound_check)
from .classify import ClassificationReport, classify, sweep
from .code import (ZetterbergCode, build_code, min_distance_exhaustive,
                   min_distance_formula, parity_check_matrix, syndrome,
                   weight3_witness_even, weight3_witness_half_odd)
from .errors import (FormulaMismatch, PreconditionViolated, SizeCapExceeded,
                     Undecidable, ZetterbergError)
from .gf import Field, FieldContext, find_irreducible, make_field, make_field_for_q0
from .radius import (RadiusReport, covering_radius, covering_radius_oracle,
                     half_full_radius_equality_check, rho_criterion_even,
                     rho_criterion_odd, rho_shortcuts, witness_count_odd)
from .thresholds import (gap_set, s_prime_star_odd, s_star_lower_even,
                         s_star_lower_odd, s_star_upper_even, s_star_upper_odd,
                         threshold_range_check_odd, threshold_table)
from .tower import (in_scaled_H, in_subgroup, norm, quadratic_character,
                    subfield_elements, subgroup_elements, trace)

__version__ = "0.1.0"
