#!/usr/bin/env python
"""Documentation checker (the ``make docs-check`` target).

Five validations over the repo's markdown:

1. every fenced ``python`` code block in README.md and docs/*.md executes
   (blocks within one file share a namespace, so later blocks may reuse
   earlier imports);
2. every markdown link ``[text](target)`` to a repo-relative path resolves
   to an existing file or directory;
3. every backtick span that looks like a repo path (``src/...``,
   ``docs/...``, …) — e.g. the README's paper-to-module map — points at
   something that exists;
4. no fenced ``python`` block reaches for a non-public name: a
   single-underscore attribute (``engine._results``) or an
   underscore-prefixed import (``from repro.x import _helper``) in an
   example teaches readers to depend on internals the ``__all__`` contract
   deliberately excludes.  Dunders (``__version__``) are exempt;
5. every backticked dotted ``repro.…`` name (``repro.core.compile_regex``,
   optionally called: ``repro.engine.default_engine()``) imports as a module
   or resolves as an attribute of one, so a doc naming a deleted or renamed
   object fails.

Exits non-zero, listing every failure, when any check fails.
"""

from __future__ import annotations

import importlib
import re
import sys
import traceback
from pathlib import Path
from typing import List

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

PYTHON_BLOCK = re.compile(r"```python\n(.*?)```", re.DOTALL)
MARKDOWN_LINK = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")
PATH_SPAN = re.compile(r"`((?:src|tests|benchmarks|examples|docs|tools)/[^`\s]*)`")
DOTTED_NAME = re.compile(r"`(repro(?:\.\w+)+)(?:\(\))?`")


def markdown_files() -> List[Path]:
    files = [ROOT / "README.md"]
    files.extend(sorted((ROOT / "docs").glob("*.md")))
    return [path for path in files if path.exists()]


def run_python_blocks(path: Path, failures: List[str]) -> int:
    """Execute the fenced python blocks of one file in a shared namespace."""
    blocks = PYTHON_BLOCK.findall(path.read_text(encoding="utf-8"))
    namespace: dict = {"__name__": f"docs_check:{path.name}"}
    for index, block in enumerate(blocks, start=1):
        label = f"{path.relative_to(ROOT)} python block #{index}"
        try:
            exec(compile(block, label, "exec"), namespace)  # noqa: S102 - the point of the check
        except Exception:
            failures.append(f"{label} raised:\n{traceback.format_exc(limit=3)}")
    return len(blocks)


#: A protected attribute access: ``.foo._bar`` but not ``.__dunder__``.
PRIVATE_ATTRIBUTE = re.compile(r"\._(?!_)\w+")
#: An underscore-led name inside an import statement (module path or name).
PRIVATE_IMPORT = re.compile(
    r"^\s*(?:from\s+[\w.]*\b_(?!_)\w+[\w.]*\s+import\b"  # from x._y import ...
    r"|from\s+[\w.]+\s+import\s+[^\n]*(?<![\w.])_(?!_)\w+"  # from x import _y
    r"|import\s+[^\n]*(?<![\w.])_(?!_)\w+)",  # import x._y / import _y
    re.MULTILINE,
)


def check_public_names(path: Path, failures: List[str]) -> int:
    """Fail when an example uses a non-public (underscore-prefixed) name."""
    blocks = PYTHON_BLOCK.findall(path.read_text(encoding="utf-8"))
    for index, block in enumerate(blocks, start=1):
        label = f"{path.relative_to(ROOT)} python block #{index}"
        for match in PRIVATE_ATTRIBUTE.finditer(block):
            line = block[: match.start()].count("\n") + 1
            failures.append(
                f"{label} line {line}: non-public attribute {match.group(0)!r} — "
                "examples must stick to __all__ names"
            )
        for match in PRIVATE_IMPORT.finditer(block):
            line = block[: match.start()].count("\n") + 1
            failures.append(
                f"{label} line {line}: non-public import {match.group(0).strip()!r} — "
                "examples must stick to __all__ names"
            )
    return len(blocks)


def check_links(path: Path, failures: List[str]) -> int:
    """Verify repo-relative markdown links and path-looking backtick spans."""
    text = path.read_text(encoding="utf-8")
    checked = 0
    for match in MARKDOWN_LINK.finditer(text):
        target = match.group(1)
        if target.startswith(("http://", "https://", "mailto:", "#")):
            continue
        relative = target.split("#", 1)[0]
        if not relative:
            continue
        checked += 1
        if not (path.parent / relative).exists():
            failures.append(f"{path.relative_to(ROOT)}: broken link -> {target}")
    for match in PATH_SPAN.finditer(text):
        checked += 1
        if not (ROOT / match.group(1)).exists():
            failures.append(f"{path.relative_to(ROOT)}: dangling path reference `{match.group(1)}`")
    return checked


def resolves(dotted: str) -> bool:
    """``True`` when *dotted* is a module or an attribute path below one."""
    parts = dotted.split(".")
    for split in range(len(parts), 0, -1):
        try:
            target = importlib.import_module(".".join(parts[:split]))
        except ImportError:
            continue
        for attribute in parts[split:]:
            if not hasattr(target, attribute):
                return False
            target = getattr(target, attribute)
        return True
    return False


def check_dotted_names(path: Path, failures: List[str]) -> int:
    """Verify that every backticked ``repro.…`` name still exists."""
    names = DOTTED_NAME.findall(path.read_text(encoding="utf-8"))
    for name in names:
        if not resolves(name):
            failures.append(f"{path.relative_to(ROOT)}: unresolved name `{name}`")
    return len(names)


def main() -> int:
    sys.path.insert(0, str(SRC))
    failures: List[str] = []
    blocks = links = 0
    for path in markdown_files():
        blocks += run_python_blocks(path, failures)
        links += check_links(path, failures)
        links += check_dotted_names(path, failures)
        check_public_names(path, failures)
    if failures:
        print(f"docs-check: {len(failures)} failure(s)", file=sys.stderr)
        for failure in failures:
            print(f"  {failure}", file=sys.stderr)
        return 1
    print(f"docs-check: OK ({blocks} python blocks executed, {links} references resolved)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
