#!/usr/bin/env python
"""Generate docs/api.md from the package's docstrings.

Walks every public module, lists its ``__all__`` items with their
signatures and first docstring paragraph.  Run from the repo root:

    python tools/gen_api_docs.py            # rewrite docs/api.md
    python tools/gen_api_docs.py --check    # exit 1 if it is stale
"""

from __future__ import annotations

import argparse
import importlib
import inspect
import pkgutil
import sys
from pathlib import Path


def first_paragraph(doc: str | None) -> str:
    if not doc:
        return ""
    para = doc.strip().split("\n\n")[0]
    return " ".join(line.strip() for line in para.splitlines())


def signature_of(obj) -> str:
    import re

    try:
        sig = str(inspect.signature(obj))
    except (TypeError, ValueError):
        return "(...)"
    # normalize non-deterministic default reprs (singleton cost model)
    return re.sub(
        r"<repro\.pram\.cost\._NullCostModel object at 0x[0-9a-f]+>",
        "NULL_COST_MODEL",
        sig,
    )


def document_module(mod) -> list[str]:
    lines: list[str] = []
    names = getattr(mod, "__all__", None)
    if not names:
        return lines
    lines.append(f"## `{mod.__name__}`")
    lines.append("")
    lines.append(first_paragraph(mod.__doc__))
    lines.append("")
    for name in names:
        obj = getattr(mod, name)
        if inspect.isclass(obj):
            lines.append(f"### class `{name}{signature_of(obj)}`")
            lines.append("")
            lines.append(first_paragraph(obj.__doc__))
            lines.append("")
            for mname, meth in sorted(vars(obj).items()):
                if mname.startswith("_") or not inspect.isfunction(meth):
                    continue
                lines.append(
                    f"- `{mname}{signature_of(meth)}` — "
                    f"{first_paragraph(meth.__doc__)}"
                )
            lines.append("")
        elif inspect.isfunction(obj):
            lines.append(f"### `{name}{signature_of(obj)}`")
            lines.append("")
            lines.append(first_paragraph(obj.__doc__))
            lines.append("")
        else:
            # plain data members (constants): one-liners
            lines.append(f"### `{name}` *(constant)*")
            lines.append("")
    return lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument(
        "--check", action="store_true",
        help="write nothing; exit 1 if docs/api.md would change")
    args = parser.parse_args(argv)
    root = Path(__file__).resolve().parent.parent
    sys.path.insert(0, str(root / "src"))
    import repro

    out: list[str] = [
        "# API reference",
        "",
        "Generated by `python tools/gen_api_docs.py` — do not edit by hand.",
        "",
    ]
    # only package __init__ modules: they define the public API surface
    packages = [repro]
    for info in sorted(
        pkgutil.walk_packages(repro.__path__, prefix="repro."),
        key=lambda i: i.name,
    ):
        if info.ispkg or info.name == "repro.cli":
            packages.append(importlib.import_module(info.name))
    for mod in packages:
        out.extend(document_module(mod))
    target = root / "docs" / "api.md"
    text = "\n".join(out) + "\n"
    if args.check:
        if target.exists() and target.read_text() == text:
            print(f"{target} is up to date")
            return 0
        print(f"{target} is stale: run python tools/gen_api_docs.py")
        return 1
    target.write_text(text)
    print(f"wrote {target} ({len(out)} lines)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
