"""Names that the docstrings and the README cite by module resolve."""

import importlib
import re
from pathlib import Path

import rcmkin

ROOT = Path(__file__).resolve().parents[1]

#: A dotted name in single or double backticks, with or without a call.
_CITED = re.compile(r"`{1,2}((?:[A-Za-z_]\w*\.)+[A-Za-z_]\w*)(?:\([^`]*\))?`{1,2}")

#: Lowercase prefixes of dotted names that are not rcmkin modules: numpy,
#: the standard library and a file name.
_OTHER = {"np", "math", "pyproject"}


def _cited_names():
    """(source, dotted name) of every module-qualified name cited in the
    package's docstrings and the README; a name whose first part is not
    lowercase (``SphericalGeometry.offset``) is a class's, not a module's."""
    sources = sorted(Path(rcmkin.__file__).parent.glob("*.py")) + [ROOT / "README.md"]
    for path in sources:
        for name in _CITED.findall(path.read_text(encoding="utf-8")):
            head = name.split(".")[0]
            if head.islower() and head not in _OTHER:
                yield path.name, name


def _resolves(name: str) -> bool:
    parts = name.split(".")
    if parts[0] == "rcmkin":
        parts = parts[1:]
    try:
        target = importlib.import_module(f"rcmkin.{parts[0]}")
    except ModuleNotFoundError:
        return False
    for part in parts[1:]:
        if not hasattr(target, part):
            return False
        target = getattr(target, part)
    return True


def test_cited_module_names_resolve():
    cited = list(_cited_names())
    assert len(cited) >= 20  # the pattern still finds the citations
    stale = [f"{source}: {name}" for source, name in cited if not _resolves(name)]
    assert not stale, stale
