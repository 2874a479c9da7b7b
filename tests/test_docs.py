"""The docs name only code that exists.

Every inline code span of the user-facing docs is scanned for two kinds
of reference: a dotted ``repro.x.y`` name, which must import as a module
or resolve as an attribute of one, and a repository path under one of
:data:`PATH_ROOTS`, which must exist (a glob must match something).
Schema tags such as ``repro.lint/v2`` are not names and are skipped.
ROADMAP.md and CHANGES.md record history and are out of scope.
"""

from __future__ import annotations

import glob
import importlib
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DOCS = [
    ROOT / "README.md",
    ROOT / "DESIGN.md",
    ROOT / "EXPERIMENTS.md",
    *sorted((ROOT / "docs").glob("*.md")),
    ROOT / ".claude" / "skills" / "verify" / "SKILL.md",
]
PATH_ROOTS = ("docs", "tests", "src", "benchmarks", "examples", ".github")

_FENCE = re.compile(r"^```.*?^```", re.M | re.S)
_SPAN = re.compile(r"`([^`\n]+)`")
#: ``repro.a.b``, optionally ending in a brace list ``repro.a.{b,c}``;
#: a name followed by ``/`` is a schema tag.
_NAME = re.compile(r"(?<![\w./-])(repro(?:\.\w+)+)(?:\.\{([\w,]+)\})?(?![\w/])")
_PATH = re.compile(
    r"(?<![\w./-])(?:%s)/[^\s`:,()]*" % "|".join(re.escape(r) for r in PATH_ROOTS)
)


def _spans(doc: Path):
    return _SPAN.findall(_FENCE.sub("", doc.read_text()))


def _names(doc: Path):
    for span in _spans(doc):
        for stem, braces in _NAME.findall(span):
            if braces:
                yield from (f"{stem}.{leaf}" for leaf in braces.split(","))
            else:
                yield stem


def _resolves(name: str) -> bool:
    """True when ``name`` is a module, or an attribute chain off the
    longest importable module prefix."""
    parts = name.split(".")
    for cut in range(len(parts), 0, -1):
        module = ".".join(parts[:cut])
        try:
            obj = importlib.import_module(module)
        except ModuleNotFoundError as exc:
            if exc.name != module:
                raise
            continue
        for attr in parts[cut:]:
            if not hasattr(obj, attr):
                return False
            obj = getattr(obj, attr)
        return True
    return False


@pytest.fixture(params=DOCS, ids=lambda doc: str(doc.relative_to(ROOT)))
def doc(request):
    return request.param


def test_every_repro_name_resolves(doc):
    missing = sorted({name for name in _names(doc) if not _resolves(name)})
    assert not missing, f"{doc.name} names code that does not exist: {missing}"


def test_every_repo_path_exists(doc):
    missing = sorted(
        {
            path
            for span in _spans(doc)
            for path in _PATH.findall(span)
            if not glob.glob(str(ROOT / path))
        }
    )
    assert not missing, f"{doc.name} names paths that do not exist: {missing}"


def test_scanner_sees_names_paths_and_skips_schema_tags(tmp_path):
    doc = tmp_path / "doc.md"
    doc.write_text(
        "`repro.sim.observe.{events,chrome}` and `repro.lint/v2`, "
        "`pytest tests/test_docs.py::test_x` and `src/repro/cli.py:12`\n"
        "```\nrepro.not.scanned docs/NOT_SCANNED.md\n```\n"
    )
    assert list(_names(doc)) == ["repro.sim.observe.events", "repro.sim.observe.chrome"]
    assert [p for s in _spans(doc) for p in _PATH.findall(s)] == [
        "tests/test_docs.py",
        "src/repro/cli.py",
    ]
    assert _resolves("repro.config.system.TABLE_I")
    assert not _resolves("repro.sim.system")
    assert not _resolves("repro.config.system.NO_SUCH_NAME")
