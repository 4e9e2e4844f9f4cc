"""The two embedded triangulation fixtures.

Two reference triangulations ship with the package under the labels "A"
(a closed manifold presented as a one-cusp triangulation with a (1,0)
filling, 12 tetrahedra) and "B" (a 7-cusp triangulation with six filled
cusps and one complete cusp, 26 tetrahedra).  Any other triangulation is
named by its path.
"""

EMBEDDED = {"A": "fixture_a.tri", "B": "fixture_b.tri"}


def fixture_text(label: str) -> str:
    """Raw text of the embedded fixture `label`."""
    key = label.upper()
    if key not in EMBEDDED:
        raise ValueError(f"unknown fixture {label!r}: use A or B")
    from importlib import resources
    return (resources.files("bandforge") / "data" / EMBEDDED[key]).read_text()


def load_fixture(label: str):
    from .tri import parse_triangulation
    return parse_triangulation(fixture_text(label))
