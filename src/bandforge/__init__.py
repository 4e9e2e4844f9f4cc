"""Two-bridge banding calculus and certified hyperbolic-geometry checks.

The package splits into an exact layer (continued fractions, Schubert
normal forms, signatures, lens-space bookkeeping) and a numerical layer
(triangulation files, gluing equations, Newton solving, Krawczyk
certification with ball arithmetic).  The command-line front end in
`bandforge.cli` exposes both.

The names from `gluing`, `dilog` and `krawczyk`, and those modules, stay
lazy so that `import bandforge` stays light: the module `__getattr__`
(PEP 562) imports the module on the first lookup and binds the name here.
`krawczyk` imports numpy; `gluing` and `dilog` only where a function needs it.
"""

import importlib

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
from .tri import (CertifyError, CuspInfo, SolveError, Tetrahedron,
                  Triangulation, TriParseError, combinatorial_isomorphic,
                  parse_triangulation, serialize_triangulation, validate)
from .fixtures import fixture_labels, fixture_text, load_fixture
from .intervals import (ComplexInterval, EnclosureDomainError, RealInterval)

_LAZY = {name: module for module, names in (
    ("gluing", "DivergenceError GluingRow GluingSystem HalfPlaneExitError "
     "NewtonResult SingularJacobianError build_equations edge_classes "
     "newton_solve residual select_square_rows"),
    ("dilog", "bloch_wigner volume"),
    ("krawczyk", "Certificate KrawczykError bloch_wigner_interval "
     "certify_hyperbolic interval_volume krawczyk_test"))
    for name in names.split()}

__version__ = "0.1.0"


def __getattr__(name):
    if name in _LAZY.values():      # importing a submodule binds it here
        return importlib.import_module(f".{name}", __name__)
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(__getattr__(_LAZY[name]), name)
    return value


def __dir__():
    return sorted({*globals(), *_LAZY, *_LAZY.values()})
