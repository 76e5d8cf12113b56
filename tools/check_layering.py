#!/usr/bin/env python
"""Import-layering lint: one declared table, one walk over ``src/repro``.

:data:`LAYERS` maps a layer — a package or a single file, as a path under
``src/repro`` — to what its modules may not import (``forbid``), to the
only ``repro`` modules they may import at all (``allow``), and to the only
places outside the layer that may import it (``importers``).  Imports are
read from the AST; ``TYPE_CHECKING``-guarded imports are annotation-only
and exempt.

Run from the repo root::

    python tools/check_layering.py

Exits non-zero listing every violation as ``path:line: message``.
"""

from __future__ import annotations

import ast
import sys
from dataclasses import dataclass
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
SRC = REPO / "src"


@dataclass(frozen=True)
class Layer:
    """One row of the contract; names are paths/packages under ``repro``."""

    why: str
    forbid: tuple[str, ...] = ()
    allow: tuple[str, ...] | None = None
    importers: tuple[str, ...] | None = None


#: Layers that *drive* transport; a kernel-layer import of one would
#: re-create the cycle the stage-kernel refactor removed.
UPWARD = ("execution", "serve", "cluster", "simd", "machine", "profiling",
          "resilience")
#: The physics and hardware layers the service tiers reach only through
#: ``repro.serve``.
PHYSICS = ("transport", "execution", "cluster", "simd", "machine")

LAYERS: dict[str, Layer] = {
    "transport/stages.py": Layer(
        "kernel layer imports nothing that drives it", forbid=UPWARD
    ),
    "execution": Layer(
        "pricing and planning; only cluster/ runs ranks",
        forbid=("transport",),
    ),
    "supervise": Layer(
        "supervision is bookkeeping the supervised layers call into",
        forbid=("transport", "execution", "serve", "cluster"),
    ),
    "resilience": Layer(
        "resilience primitives sit below the execution models that "
        "consume them",
        forbid=("execution",),
    ),
    "scenarios": Layer(
        "scenarios are a roof: documents lower onto transport and serve, "
        "never the reverse",
        importers=("cli.py", "chaos"),
    ),
    "gateway": Layer(
        "the gateway is a roof over serve/supervise and reaches the "
        "physics only through repro.serve",
        forbid=("scenarios", *PHYSICS),
        importers=("cli.py", "chaos"),
    ),
    "chaos": Layer(
        "chaos is a roof beside the CLI: it kills and restarts the tiers "
        "below it, never the physics or hardware layers",
        forbid=PHYSICS,
        importers=("cli.py",),
    ),
    "durable.py": Layer(
        "durable I/O is a leaf under resilience, serve and the gateway",
        allow=("errors",),
    ),
}


def runtime_imports(tree: ast.Module, package: str):
    """Yield ``(lineno, absolute_module)`` for every runtime import.

    Relative imports are resolved against ``package`` (the importing
    module's package); imports inside ``if TYPE_CHECKING:`` bodies are
    skipped — they never execute.
    """
    guarded: set[int] = set()
    for node in ast.walk(tree):
        # ``TYPE_CHECKING`` or ``typing.TYPE_CHECKING``.
        if isinstance(node, ast.If) and "TYPE_CHECKING" in (
            getattr(node.test, "id", None), getattr(node.test, "attr", None)
        ):
            guarded.update(
                id(sub) for stmt in node.body for sub in ast.walk(stmt)
            )
    for node in ast.walk(tree):
        if id(node) in guarded:
            continue
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node.lineno, alias.name
        elif isinstance(node, ast.ImportFrom):
            if node.level:
                parts = package.split(".")
                base = parts[: len(parts) - (node.level - 1)]
                mod = ".".join(base + ([node.module] if node.module else []))
            else:
                mod = node.module or ""
            yield node.lineno, mod


def _in_layer(module: str, layer: str) -> bool:
    return module == layer or module.startswith(layer + ".")


def _imports_any(module: str, names: tuple[str, ...]) -> bool:
    """Does ``module`` fall in any of the layers ``names`` (``"serve"``,
    ``"transport/stages.py"``, ``"durable.py"``: paths under ``repro``)?"""
    return any(
        _in_layer(module, "repro." + n.removesuffix(".py").replace("/", "."))
        for n in names
    )


def _within(rel: str, name: str) -> bool:
    """Is the file ``rel`` the layer file, or inside the layer package?"""
    return rel == name or rel.startswith(name + "/")


def _breaks(rel: str, mod: str, name: str, layer: Layer) -> str | None:
    """How the file ``rel`` importing ``mod`` breaks the row ``name``."""
    if _within(rel, name):
        if _imports_any(mod, layer.forbid) or (
            layer.allow is not None
            and _in_layer(mod, "repro")
            and not _imports_any(mod, layer.allow)
        ):
            return "imports"
    elif (
        layer.importers is not None
        and _imports_any(mod, (name,))
        and not any(_within(rel, importer) for importer in layer.importers)
    ):
        return f"is not one of {layer.importers} yet imports"
    return None


def check(src: Path = SRC, layers: dict[str, Layer] = LAYERS) -> list[str]:
    """Every violation of ``layers`` in the tree under ``src/repro``."""
    errors: list[str] = []
    root = src / "repro"
    for path in sorted(root.rglob("*.py")):
        rel = path.relative_to(root).as_posix()
        # The lint's own tests run on tmp fixtures outside the repo.
        shown = path.relative_to(REPO) if path.is_relative_to(REPO) else path
        package = ".".join(path.relative_to(src).parent.parts)
        tree = ast.parse(path.read_text(), filename=str(path))
        for lineno, mod in runtime_imports(tree, package):
            for name, layer in layers.items():
                verb = _breaks(rel, mod, name, layer)
                if verb is not None:
                    errors.append(
                        f"{shown}:{lineno}: {verb} {mod!r} — "
                        f"{name}: {layer.why}"
                    )
    return errors


def main() -> int:
    missing = [name for name in LAYERS if not (SRC / "repro" / name).exists()]
    if missing:
        print(f"layering lint: missing layers {missing}", file=sys.stderr)
        return 2
    errors = check()
    for err in errors:
        print(err, file=sys.stderr)
    if errors:
        print(f"layering lint: {len(errors)} violation(s)", file=sys.stderr)
        return 1
    print("layering lint: OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
