"""Two-bridge banding calculus and certified hyperbolic-geometry checks.

The package splits into an exact layer (continued fractions, Schubert
normal forms, signatures, lens-space bookkeeping) and a numerical layer
(triangulation files, gluing equations, Newton solving, Krawczyk
certification with ball arithmetic).  The command-line front end in
`bandforge.cli` exposes both.

`import bandforge` imports no submodule: the module `__getattr__` (PEP 562)
imports each name in `_LAZY`, and each submodule but `cli`, on first use;
`__all__` keeps a star import off the numeric `gluing`, `dilog`, `krawczyk`.
`SolveError` and `CertifyError` live here, so `cli` need not load `tri`.
"""

import importlib

_LAZY = {name: module for module, names in (
    ("tangle", "ConwayForm Fraction TwoBridge check_conway conway_expand "
     "cosmetic_band_partner eval_conway four_move_signature_obstruction "
     "is_unlinking_number_one mirror_two_bridge normalize_two_bridge "
     "signature_two_bridge two_bridge_equivalent two_bridge_from_fraction "
     "verify_chirally_cosmetic"),
    ("surgery", "LensSpace Slope amphicheiral_pair_distance "
     "bhw_example_report double_branched_cover lens_equivalent lens_mirror "
     "matignon_family normalize_lens slope_distance"),
    ("tri", "CuspInfo Tetrahedron Triangulation TriParseError validate "
     "combinatorial_isomorphic parse_triangulation serialize_triangulation"),
    ("fixtures", "fixture_text load_fixture"),
    ("gluing", "DivergenceError GluingRow GluingSystem HalfPlaneExitError "
     "NewtonResult SingularJacobianError build_equations edge_classes "
     "newton_solve residual"),
    ("dilog", "Enclosure EnclosureDomainError bloch_wigner volume"),
    ("krawczyk", "Certificate KrawczykError certify_hyperbolic "
     "interval_volume krawczyk_test"))
    for name in names.split()}
_STAR = ("tangle", "surgery", "tri", "fixtures")
__all__ = ["CertifyError", "SolveError", *_STAR,
           *(name for name, module in _LAZY.items() if module in _STAR)]

__version__ = "0.1.0"


class SolveError(RuntimeError):
    """Newton failure; defined here, as CertifyError is, free of numpy."""


class CertifyError(RuntimeError):
    """A staged failure; .attempts holds each failed rung (radius, outcome)."""

    def __init__(self, stage, message, attempts=()):
        self.stage, self.attempts = stage, tuple(attempts)
        super().__init__(f"[{stage}] {message}")


def __getattr__(name):
    if name in _LAZY.values():      # importing a submodule binds it here
        return importlib.import_module(f".{name}", __name__)
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(__getattr__(_LAZY[name]), name)
    return value


def __dir__():
    return sorted({*globals(), *_LAZY, *_LAZY.values()})
