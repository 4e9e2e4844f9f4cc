"""Embedded triangulation fixtures and external fixture discovery.

Two reference triangulations ship with the package under the labels "A"
(a closed manifold presented as a one-cusp triangulation with a (1,0)
filling, 12 tetrahedra) and "B" (a 7-cusp triangulation with six filled
cusps and one complete cusp, 26 tetrahedra).

Setting the environment variable BANDFORGE_FIXTURE_DIR makes additional
.tri files resolvable by bare basename, and adds them to the batch list
used by `tri certify --all-fixtures`.  A label that is absolute, holds a
path separator or is ".." is never joined onto the directory.  External
files shadow the embedded labels on name collision.
"""

import os

EMBEDDED = {"A": "fixture_a.tri", "B": "fixture_b.tri"}

_ENV_VAR = "BANDFORGE_FIXTURE_DIR"


def _external_dir():
    d = os.environ.get(_ENV_VAR)
    return d if d and os.path.isdir(d) else None


def fixture_text(label: str) -> str:
    """Raw text for an embedded label or an external-directory basename."""
    d = _external_dir()
    if d and os.path.basename(label) == label and label not in (".", ".."):
        for cand in (os.path.join(d, label), os.path.join(d, label + ".tri")):
            if os.path.isfile(cand):
                with open(cand, encoding="utf-8",
                          errors="surrogateescape") as f:
                    return f.read()
    key = label.upper()
    if key in EMBEDDED:
        from importlib import resources
        return (resources.files("bandforge") / "data" / EMBEDDED[key]).read_text()
    raise ValueError(
        f"unknown fixture {label!r}: use A, B, or a file in ${_ENV_VAR}")


def load_fixture(label: str):
    from .tri import parse_triangulation
    return parse_triangulation(fixture_text(label))


def fixture_labels() -> list:
    """Embedded labels plus any *.tri basenames from the external directory."""
    labels = list(EMBEDDED)
    d = _external_dir()
    if d:
        for fn in sorted(os.listdir(d)):
            if fn.endswith(".tri"):
                stem = fn[:-4]
                if stem not in labels:
                    labels.append(stem)
    return labels
