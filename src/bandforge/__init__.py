"""Two-bridge banding calculus and certified hyperbolic-geometry checks.

The package splits into an exact layer (continued fractions, Schubert
normal forms, signatures, lens-space bookkeeping) and a numerical layer
(triangulation files, gluing equations, Newton solving, Krawczyk
certification with ball arithmetic).  The command-line front end in
`bandforge.cli` exposes both.
"""

from .tangle import (ConwayForm, Fraction, TwoBridge, check_conway,
                     conway_expand, cosmetic_band_partner, eval_conway,
                     four_move_signature_obstruction, is_unlinking_number_one,
                     mirror_two_bridge, normalize_two_bridge,
                     signature_two_bridge, two_bridge_equivalent,
                     two_bridge_from_fraction, verify_chirally_cosmetic)
from .surgery import (LensSpace, Slope, amphicheiral_pair_distance,
                      bhw_example_report, double_branched_cover,
                      lens_equivalent, lens_mirror, matignon_family,
                      normalize_lens, slope_distance)
from .tri import (CuspInfo, Tetrahedron, Triangulation, TriParseError,
                  combinatorial_isomorphic, parse_triangulation,
                  serialize_triangulation, validate)
from .fixtures import fixture_labels, fixture_text, load_fixture
from .gluing import (DivergenceError, GluingRow, GluingSystem,
                     HalfPlaneExitError, NewtonResult, SingularJacobianError,
                     SolveError, build_equations, edge_classes, newton_solve,
                     residual, select_square_rows)
from .dilog import bloch_wigner, volume
from .intervals import (ComplexInterval, EnclosureDomainError, RealInterval)
from .krawczyk import (Certificate, CertifyError, KrawczykError,
                       bloch_wigner_interval, certify_hyperbolic,
                       interval_volume, krawczyk_test)

__version__ = "0.1.0"
