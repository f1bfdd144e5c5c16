#!/usr/bin/env python3
"""Fail on dead intra-repo references in the documentation.

Scans ``README.md`` and ``docs/*.md`` for

* markdown links ``[text](target)`` with relative targets — the target
  file must exist (resolved against the containing document);
* inline-code path references like ``src/repro/campaign/engine.py`` or
  ``benchmarks/_common.py`` — the path must exist at the repo root;
* inline-code dotted module references like ``repro.modeling.dataset``
  or ``repro.util.rng.rng_for`` — the module must resolve under
  ``src/``, and a trailing attribute (function/class) must exist on it;

and ``src/**/*.py`` for Sphinx cross-reference roles (``:func:``,
``:class:``, ``:meth:``, ``:mod:``, ``:attr:``, ``:data:``)
on ``repro.*`` names, which must resolve the same way.  A dataclass
field counts as an attribute of its class.

Exits non-zero listing every dead reference.  Run from anywhere:
``python scripts/check_doc_links.py``.
"""

from __future__ import annotations

import importlib
import re
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
SRC_ROOT = REPO_ROOT / "src"

#: Inline-code tokens treated as repo paths when they start with these.
PATH_PREFIXES = (
    "src/", "docs/", "benchmarks/", "examples/", "tests/", "scripts/",
    ".github/",
)

MD_LINK = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")
INLINE_CODE = re.compile(r"`([^`\n]+)`")
DOTTED = re.compile(r"^repro(\.\w+)+$")
ROLE = re.compile(r":(?:func|class|meth|mod|attr|data):`~?(repro(?:\.\w+)+)`")


def module_file(dotted: str) -> Path | None:
    """The file backing ``repro.x.y`` under src/, or ``None``."""
    rel = Path(*dotted.split("."))
    for candidate in (
        SRC_ROOT / rel.with_suffix(".py"),
        SRC_ROOT / rel / "__init__.py",
    ):
        if candidate.exists():
            return candidate
    return None


def check_dotted(token: str) -> str | None:
    """Validate a ``repro.*`` reference; returns an error or ``None``.

    The longest resolvable prefix is treated as the module; remaining
    components must be a chain of attributes on it (class, function,
    method, constant).
    """
    if module_file(token) is not None:
        return None
    parts = token.split(".")
    for split in range(len(parts) - 1, 0, -1):
        prefix = ".".join(parts[:split])
        if module_file(prefix) is None:
            continue
        sys.path.insert(0, str(SRC_ROOT))
        try:
            obj = importlib.import_module(prefix)
        finally:
            sys.path.pop(0)
        for attr in parts[split:]:
            if not hasattr(obj, attr):
                if attr in getattr(obj, "__dataclass_fields__", ()):
                    return None  # a field without a class-level default
                return f"{type(obj).__name__} {prefix} has no attribute {attr!r}"
            obj = getattr(obj, attr)
            prefix = f"{prefix}.{attr}"
        return None
    return "module does not resolve under src/"


def check_document(doc: Path) -> list[str]:
    errors: list[str] = []
    text = doc.read_text(encoding="utf-8")
    for lineno, line in enumerate(text.splitlines(), start=1):
        for match in MD_LINK.finditer(line):
            target = match.group(1)
            if target.startswith(("http://", "https://", "mailto:", "#")):
                continue
            path = target.split("#", 1)[0]
            if path and not (doc.parent / path).exists():
                errors.append(f"{doc.name}:{lineno}: dead link: {target}")
        for match in INLINE_CODE.finditer(line):
            token = match.group(1).strip()
            if token.startswith(PATH_PREFIXES):
                path = token.split("#", 1)[0].split(":", 1)[0]
                if "*" in path:
                    if not list(REPO_ROOT.glob(path)):
                        errors.append(
                            f"{doc.name}:{lineno}: glob matches nothing: {token}"
                        )
                elif not (REPO_ROOT / path).exists():
                    errors.append(f"{doc.name}:{lineno}: dead path: {token}")
            elif DOTTED.match(token):
                problem = check_dotted(token)
                if problem is not None:
                    errors.append(
                        f"{doc.name}:{lineno}: dead module ref {token}: {problem}"
                    )
    return errors


def check_source(path: Path) -> list[str]:
    """Dead ``repro.*`` cross-reference roles in one source file."""
    errors: list[str] = []
    text = path.read_text(encoding="utf-8")
    name = path.relative_to(REPO_ROOT) if path.is_relative_to(REPO_ROOT) else path
    for match in ROLE.finditer(text):
        problem = check_dotted(match.group(1))
        if problem is not None:
            lineno = text.count("\n", 0, match.start()) + 1
            errors.append(
                f"{name}:{lineno}: dead cross-reference "
                f"{match.group(1)}: {problem}"
            )
    return errors


def main() -> int:
    documents = [REPO_ROOT / "README.md", *sorted((REPO_ROOT / "docs").glob("*.md"))]
    sources = sorted((SRC_ROOT / "repro").rglob("*.py"))
    missing = [d for d in documents if not d.exists()]
    errors = [f"missing document: {d}" for d in missing]
    for doc in documents:
        if doc.exists():
            errors.extend(check_document(doc))
    for source in sources:
        errors.extend(check_source(source))
    if errors:
        print(f"{len(errors)} dead reference(s):")
        for error in errors:
            print(f"  {error}")
        return 1
    print(
        f"checked {len(documents)} documents and {len(sources)} source files: "
        "all intra-repo references resolve"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
