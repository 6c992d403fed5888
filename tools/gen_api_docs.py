"""Generate docs/api.md: a module-by-module index of the public API.

Walks the installed ``repro`` package, collecting every subpackage's
``__all__`` exports with the first line of their docstrings — a lightweight
reference that stays honest because it is generated from the code.

Usage:  python tools/gen_api_docs.py [output_path]
"""

from __future__ import annotations

import importlib
import inspect
import pathlib
import sys

PACKAGES = [
    "repro",
    "repro.backend",
    "repro.xspace",
    "repro.kbatched",
    "repro.iterative",
    "repro.core",
    "repro.core.bsplines",
    "repro.core.builder",
    "repro.core.evaluator",
    "repro.advection",
    "repro.runtime",
    "repro.runtime.durable",
    "repro.runtime.sharded",
    "repro.runtime.shm",
    "repro.runtime.resilience",
    "repro.runtime.resilience.faults",
    "repro.runtime.resilience.circuit",
    "repro.service",
    "repro.service.protocol",
    "repro.service.admission",
    "repro.service.server",
    "repro.service.client",
    "repro.verify",
    "repro.verify.residual",
    "repro.verify.condest",
    "repro.verify.oracle",
    "repro.distributed",
    "repro.perfmodel",
    "repro.perfmodel.calibrate",
    "repro.bench",
    "repro.testing",
]


def first_line(obj) -> str:
    doc = inspect.getdoc(obj)
    if not doc:
        return "(undocumented)"
    return doc.splitlines()[0].rstrip(".")


def describe(module) -> list:
    lines = [f"## `{module.__name__}`", ""]
    lines.append(first_line(module) + ".")
    lines.append("")
    exports = getattr(module, "__all__", None)
    if not exports:
        return lines
    lines.append("| export | kind | summary |")
    lines.append("|---|---|---|")
    for name in exports:
        obj = getattr(module, name, None)
        if obj is None:
            continue
        if inspect.isclass(obj):
            kind, summary = "class", first_line(obj)
        elif inspect.isfunction(obj):
            kind, summary = "function", first_line(obj)
        elif inspect.ismodule(obj):
            kind, summary = "module", first_line(obj)
        elif isinstance(obj, (str, int, float, tuple, list, dict)):
            kind = "constant"
            summary = f"`{obj!r}`" if len(repr(obj)) <= 60 else type(obj).__name__
        else:
            kind, summary = type(obj).__name__, first_line(obj)
        lines.append(f"| `{name}` | {kind} | {summary} |")
    lines.append("")
    return lines


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    out_path = pathlib.Path(argv[0]) if argv else (
        pathlib.Path(__file__).parent.parent / "docs" / "api.md"
    )
    lines = [
        "# API reference",
        "",
        "_Generated by `python tools/gen_api_docs.py`; regenerate after API",
        "changes rather than editing by hand._",
        "",
    ]
    for pkg in PACKAGES:
        module = importlib.import_module(pkg)
        lines.extend(describe(module))
    out_path.write_text("\n".join(lines) + "\n")
    print(f"wrote {out_path} ({len(lines)} lines)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
