"""curvecount: lattice and GAP point counting near non-degenerate curves.

Wronskian non-degeneracy, monomial curve-lifting, δ-neighborhood point
counting with an independent brute-force oracle, and the additive
combinatorics (energy, doubling, Plünnecke) driving the counting bounds.
"""

from .curves import (CurveSpec, DomainError, InvalidCurveError,
                     NondegeneracyCertificate, certify_nondegenerate,
                     circle_arc, graph_curve, line_segment, moment_curve,
                     parabola, polynomial_curve, wronskian, wronskian_symbolic)
from .hyperplanes import (DegenerateIntersection, Hyperplane, RootList,
                          intersect, mvt_consistency, survey_intersections)
from .lifting import (BijectionReport, Monomial, MonomialSet,
                      check_lattice_bijection, exponent, lift_curve,
                      lift_point, lipschitz_constant_squared, make_Ms)
from .pointsets import (CapExceeded, FiniteSet, Gap, SubsetViolation,
                        additive_energy, check_energy_lower_bound,
                        check_plunnecke, doubling, energy_bruteforce,
                        gap_enumerate, is_proper, m_fold_sumset,
                        min_separation, min_separation_squared,
                        representation_counts, sumset)
from .tube import (CountResult, ExplicitSource, GapSource, InvalidQuery,
                   LatticeSource, TubeQuery, brute_force_tube_oracle,
                   count_in_tube, count_on_curve_lattice, delta_from_rule)
from .experiments import (CampaignResult, CountReport, EnergyReport,
                          ExperimentConfig, run_energy_experiment,
                          run_exponent_experiment, run_inequality_campaign,
                          squares_schedule)

__version__ = "0.1.0"
