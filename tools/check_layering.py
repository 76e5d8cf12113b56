#!/usr/bin/env python
"""Import-cycle lint for the stage-kernel layering contract.

Two rules, enforced over the AST (``TYPE_CHECKING``-guarded imports are
annotation-only and exempt):

1. **The kernel layer imports nothing above it.**  ``transport/stages.py``
   holds the physics shared by every transport schedule; it may import
   physics, data, RNG, and its transport siblings, but never the layers
   that *drive* it (``execution``, ``serve``, ``cluster``, ``simd``,
   ``machine``, ``profiling``, ``resilience``).  An upward import here
   would re-create the cycle the stage-kernel refactor removed.

2. **Execution models know no transport.**  The scheduler/cost-model files
   (``execution/native.py``, ``offload.py``, ``symmetric.py``,
   ``trace.py``) receive their backend through an
   ``ExecutionContext``; a direct ``repro.transport`` import would couple
   a model to one schedule.  (``execution/context.py`` is the sanctioned
   adapter and is exempt.)

3. **Supervision is a leaf.**  ``repro.supervise`` is pure bookkeeping
   that the supervised layers call *into*; an import of transport,
   execution, serve, or cluster internals from it would invert that
   direction (and instantly create a cycle, since all four import it).

4. **Resilience stays below execution.**  ``repro.resilience`` primitives
   (fault plans, retry policies, checkpoints) are consumed *by* the
   execution/cluster layers; importing an execution model from resilience
   would let recovery policy reach into scheduling.

5. **Scenarios sit on top.**  ``repro.scenarios`` is the declarative
   front door — it lowers documents *onto* transport and serve, and only
   the CLI may import it.  A core module importing scenarios would turn
   the one-way compilation pipeline (document → Settings/JobSpec) into a
   cycle and couple physics to the document schema.

6. **The gateway is a roof over serve/supervise.**  ``repro.gateway``
   orchestrates node-local services; only the CLI may import it (a serve
   or supervise module importing the tier that drives it would be an
   instant cycle), and the gateway itself may touch only the job/service
   surface — never transport, execution, cluster, simd, or machine
   internals, which it must reach exclusively through ``repro.serve``.

7. **The compiled-kernel tier sits beside the stages.**  Every module of
   ``transport/jit/`` is kernel-layer code like ``stages.py`` — physics,
   data, RNG, and transport siblings only, never the driving layers.  The
   jit tier is swapped in *by* backends; an upward import from it would
   couple the compiled kernels to a scheduler and re-create the cycle
   rule 1 exists to prevent.

8. **Chaos is a roof beside the CLI.**  ``repro.chaos`` kills and
   restarts the tiers below it (gateway, serve, scenarios, resilience,
   supervise) — so it, uniquely, may import the gateway and scenario
   roofs, but only the CLI may import *it*, and like the gateway it
   must never reach the physics or hardware layers (transport,
   execution, cluster, simd, machine) directly.

9. **Durable I/O is a leaf.**  ``repro/durable.py`` (atomic publish,
   quarantine) is imported by resilience, serve and the gateway alike;
   it may import ``repro.errors`` and nothing else of ``repro``.

Run from the repo root::

    python tools/check_layering.py

Exits non-zero listing every violation as ``path:line: message``.
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
SRC = REPO / "src"

#: Layers above transport: forbidden anywhere in the kernel layer.
UPWARD_LAYERS = (
    "repro.execution",
    "repro.serve",
    "repro.cluster",
    "repro.simd",
    "repro.machine",
    "repro.profiling",
    "repro.resilience",
)

STAGE_FILES = {
    SRC / "repro" / "transport" / "stages.py": "repro.transport",
}

#: Rule 7: the compiled-kernel tier is kernel-layer code — same upward
#: import ban as the stages, applied to every module in the package.
JIT_DIR = SRC / "repro" / "transport" / "jit"

EXECUTION_MODEL_FILES = {
    SRC / "repro" / "execution" / name: "repro.execution"
    for name in (
        "native.py",
        "offload.py",
        "rebalance.py",
        "symmetric.py",
        "trace.py",
    )
}

#: The supervision package may import nothing from the layers it watches.
SUPERVISE_DIR = SRC / "repro" / "supervise"
SUPERVISE_FORBIDDEN = (
    "repro.transport",
    "repro.execution",
    "repro.serve",
    "repro.cluster",
)

#: Resilience primitives sit below the execution models that consume them.
RESILIENCE_DIR = SRC / "repro" / "resilience"
RESILIENCE_FORBIDDEN = ("repro.execution",)

#: The chaos harness (rule 8) is a roof beside the CLI: it may import
#: the other roofs (it kills and recovers them), only the CLI may
#: import it, and it never touches the physics/hardware layers.
CHAOS_DIR = SRC / "repro" / "chaos"
CHAOS_IMPORTERS = (SRC / "repro" / "cli.py",)
CHAOS_FORBIDDEN = (
    "repro.transport",
    "repro.execution",
    "repro.cluster",
    "repro.simd",
    "repro.machine",
)

#: The scenario layer is a roof, not a floor: only the CLI (and the
#: chaos harness, rule 8) imports it.
SCENARIOS_DIR = SRC / "repro" / "scenarios"
SCENARIOS_IMPORTERS = (
    SRC / "repro" / "cli.py",
    *sorted(CHAOS_DIR.glob("*.py")),
)

#: The gateway tier is likewise a roof (rule 6): nothing below it may
#: import it (the CLI and the chaos harness excepted), and it may only
#: reach the layers beneath it through the serve/supervise surface —
#: never the physics or hardware layers.
GATEWAY_DIR = SRC / "repro" / "gateway"
GATEWAY_IMPORTERS = (
    SRC / "repro" / "cli.py",
    *sorted(CHAOS_DIR.glob("*.py")),
)
GATEWAY_FORBIDDEN = (
    "repro.scenarios",
    "repro.transport",
    "repro.execution",
    "repro.cluster",
    "repro.simd",
    "repro.machine",
)

#: Rule 9: the one module every persisting tier imports.
DURABLE_FILE = SRC / "repro" / "durable.py"


def _rel(path: Path) -> Path:
    """Repo-relative for readable messages; absolute paths from outside
    the repo (the lint's own tests run on tmp fixtures) pass through."""
    try:
        return path.relative_to(REPO)
    except ValueError:
        return path


def _is_type_checking(test: ast.expr) -> bool:
    if isinstance(test, ast.Name):
        return test.id == "TYPE_CHECKING"
    if isinstance(test, ast.Attribute):
        return test.attr == "TYPE_CHECKING"
    return False


def runtime_imports(tree: ast.Module, package: str):
    """Yield ``(lineno, absolute_module)`` for every runtime import.

    Relative imports are resolved against ``package`` (the importing
    module's package); imports inside ``if TYPE_CHECKING:`` bodies are
    skipped — they never execute.
    """
    guarded: set[int] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.If) and _is_type_checking(node.test):
            for stmt in node.body:
                for sub in ast.walk(stmt):
                    guarded.add(id(sub))
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


def check() -> list[str]:
    errors: list[str] = []
    for path, package in STAGE_FILES.items():
        tree = ast.parse(path.read_text(), filename=str(path))
        for lineno, mod in runtime_imports(tree, package):
            for layer in UPWARD_LAYERS:
                if _in_layer(mod, layer):
                    errors.append(
                        f"{_rel(path)}:{lineno}: kernel layer "
                        f"imports upward layer {mod!r}"
                    )
    for path, package in EXECUTION_MODEL_FILES.items():
        tree = ast.parse(path.read_text(), filename=str(path))
        for lineno, mod in runtime_imports(tree, package):
            if _in_layer(mod, "repro.transport"):
                errors.append(
                    f"{_rel(path)}:{lineno}: execution model "
                    f"imports {mod!r} directly (route through "
                    f"ExecutionContext)"
                )
    errors.extend(_check_package(
        JIT_DIR, "repro.transport.jit", UPWARD_LAYERS,
        "kernel layer imports upward layer",
    ))
    errors.extend(_check_package(
        SUPERVISE_DIR, "repro.supervise", SUPERVISE_FORBIDDEN,
        "supervision layer imports supervised layer",
    ))
    errors.extend(_check_package(
        RESILIENCE_DIR, "repro.resilience", RESILIENCE_FORBIDDEN,
        "resilience primitive imports execution model",
    ))
    errors.extend(_check_scenarios_roof())
    errors.extend(_check_roof(
        GATEWAY_DIR, "repro.gateway", GATEWAY_IMPORTERS,
        "core module imports the gateway roof layer",
    ))
    errors.extend(_check_package(
        GATEWAY_DIR, "repro.gateway", GATEWAY_FORBIDDEN,
        "gateway tier reaches below the serve surface into",
    ))
    errors.extend(_check_roof(
        CHAOS_DIR, "repro.chaos", CHAOS_IMPORTERS,
        "core module imports the chaos roof layer",
    ))
    errors.extend(_check_package(
        CHAOS_DIR, "repro.chaos", CHAOS_FORBIDDEN,
        "chaos harness reaches below the service surface into",
    ))
    errors.extend(_check_leaf(DURABLE_FILE))
    return errors


def _check_leaf(path: Path) -> list[str]:
    """Rule 9: a top-level leaf module imports only ``repro.errors``."""
    tree = ast.parse(path.read_text(), filename=str(path))
    return [
        f"{_rel(path)}:{lineno}: leaf module imports {mod!r}"
        for lineno, mod in runtime_imports(tree, "repro")
        if _in_layer(mod, "repro") and mod != "repro.errors"
    ]


def _check_scenarios_roof() -> list[str]:
    """Rule 5: no core module imports ``repro.scenarios`` (CLI excepted)."""
    return _check_roof(
        SCENARIOS_DIR, "repro.scenarios", SCENARIOS_IMPORTERS,
        "core module imports the scenario roof layer",
    )


def _check_roof(
    roof_dir: Path,
    roof_package: str,
    allowed_importers: tuple[Path, ...],
    label: str,
    *,
    search_files=None,
    package_of=None,
) -> list[str]:
    """A roof layer may be imported only by its allowed importers.

    ``search_files``/``package_of`` let tests point the checker at a
    synthetic tree; by default it walks the real ``src/repro``.
    """
    if search_files is None:
        search_files = sorted((SRC / "repro").rglob("*.py"))
    if package_of is None:
        def package_of(path):
            return ".".join(
                path.relative_to(SRC).parent.parts
            ) or "repro"
    errors: list[str] = []
    for path in search_files:
        if roof_dir in path.parents or path in allowed_importers:
            continue
        package = package_of(path)
        tree = ast.parse(path.read_text(), filename=str(path))
        for lineno, mod in runtime_imports(tree, package):
            if _in_layer(mod, roof_package):
                errors.append(
                    f"{_rel(path)}:{lineno}: {label} {mod!r} "
                    f"(only the CLI may)"
                )
    return errors


def _check_package(
    directory: Path, package: str, forbidden: tuple[str, ...], label: str
) -> list[str]:
    """Apply a forbidden-layer rule to every module in a package."""
    errors: list[str] = []
    for path in sorted(directory.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for lineno, mod in runtime_imports(tree, package):
            for layer in forbidden:
                if _in_layer(mod, layer):
                    errors.append(
                        f"{_rel(path)}:{lineno}: {label} "
                        f"{mod!r}"
                    )
    return errors


def main() -> int:
    missing = [
        p for p in (*STAGE_FILES, *EXECUTION_MODEL_FILES,
                    JIT_DIR, SUPERVISE_DIR, RESILIENCE_DIR, SCENARIOS_DIR,
                    GATEWAY_DIR, CHAOS_DIR, DURABLE_FILE)
        if not p.exists()
    ]
    if missing:
        for p in missing:
            print(f"layering lint: missing file {p}", file=sys.stderr)
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
