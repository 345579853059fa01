"""Every Python file parses at the oldest Python the project declares.

pyproject.toml's requires-python names the floor, and CI's matrix starts
there. Syntax newer than the floor (`except*` needs 3.11) would only fail
on an interpreter at the floor, so each file under src/, tests/, tools/ and
perfbench/ is parsed here with ast.parse(..., feature_version=floor). The
floor is read with a regex because tomllib needs Python 3.11.
"""

import ast
import re
from pathlib import Path

import pytest
import yaml

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted(path for top in ("src", "tests", "tools", "perfbench")
                 for path in (ROOT / top).rglob("*.py"))


def floor():
    """The (major, minor) of pyproject.toml's requires-python = ">=X.Y"."""
    text = (ROOT / "pyproject.toml").read_text()
    found = re.findall(r'^requires-python\s*=\s*">=\s*(\d+)\.(\d+)"', text,
                       re.MULTILINE)
    assert len(found) == 1, found
    return tuple(int(part) for part in found[0])


def test_sources_found():
    assert ROOT / "src" / "relaysim" / "scheduling.py" in SOURCES
    assert Path(__file__).resolve() in SOURCES


@pytest.mark.parametrize("path", SOURCES,
                         ids=[str(p.relative_to(ROOT)) for p in SOURCES])
def test_parses_at_the_declared_floor(path):
    ast.parse(path.read_text(), filename=str(path), feature_version=floor())


def test_syntax_newer_than_the_version_fails():
    # the guard's mechanism: `except*` parses at 3.11 and fails at 3.10
    source = "try:\n    pass\nexcept* ValueError:\n    pass\n"
    ast.parse(source, feature_version=(3, 11))
    with pytest.raises(SyntaxError):
        ast.parse(source, feature_version=(3, 10))


def test_ci_matrix_starts_at_the_floor():
    workflow = yaml.safe_load(
        (ROOT / ".github" / "workflows" / "tier1.yml").read_text())
    versions = [tuple(int(part) for part in version.split("."))
                for job in workflow["jobs"].values()
                for version in job.get("strategy", {}).get(
                    "matrix", {}).get("python-version", [])]
    assert min(versions) == floor()
