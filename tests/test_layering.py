"""The layering lint itself must pass, and must actually catch violations."""

import ast
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "tools"))

import check_layering  # noqa: E402


def test_repo_layering_clean():
    assert check_layering.check() == []


def test_cli_exit_code_zero():
    assert check_layering.main() == 0


def test_detects_upward_import():
    tree = ast.parse("from ..execution.native import NativeModel\n")
    mods = [m for _, m in check_layering.runtime_imports(
        tree, "repro.transport")]
    assert mods == ["repro.execution.native"]
    assert check_layering._in_layer(mods[0], "repro.execution")


def test_type_checking_imports_exempt():
    src = (
        "from typing import TYPE_CHECKING\n"
        "if TYPE_CHECKING:\n"
        "    from ..transport.stats import TransportStats\n"
        "from ..errors import ExecutionError\n"
    )
    tree = ast.parse(src)
    mods = [m for _, m in check_layering.runtime_imports(
        tree, "repro.execution")]
    assert "repro.transport.stats" not in mods
    assert "repro.errors" in mods
    assert "typing" in mods


def test_relative_import_resolution():
    tree = ast.parse("from . import context\nfrom .stats import T\n")
    mods = sorted(m for _, m in check_layering.runtime_imports(
        tree, "repro.transport"))
    assert mods == ["repro.transport", "repro.transport.stats"]


def test_jit_rule_flags_upward_import(tmp_path):
    """Rule 7: a transport/jit module importing a driving layer is a
    violation, detected by the same package checker as the stages rule."""
    pkg = tmp_path / "jit"
    pkg.mkdir()
    (pkg / "bad.py").write_text(
        "from ...simd.analysis import lane_utilization_report\n"
    )
    errors = check_layering._check_package(
        pkg, "repro.transport.jit", check_layering.UPWARD_LAYERS,
        "kernel layer imports upward layer",
    )
    assert len(errors) == 1
    assert "repro.simd.analysis" in errors[0]


def test_jit_package_is_kernel_layer():
    """The real transport/jit package imports nothing upward — and its
    runtime imports stay within physics/data/rng/types/transport."""
    allowed_prefixes = (
        "repro.transport", "repro.physics", "repro.data", "repro.rng",
        "repro.types", "repro.errors", "repro.work",
    )
    for path in sorted(check_layering.JIT_DIR.glob("*.py")):
        tree = ast.parse(path.read_text())
        for _, mod in check_layering.runtime_imports(
            tree, "repro.transport.jit"
        ):
            if mod.startswith("repro."):
                assert mod.startswith(allowed_prefixes), (
                    f"{path.name} imports {mod}"
                )


def test_supervise_rule_flags_transport_import(tmp_path):
    """A supervise module importing transport internals is a violation."""
    pkg = tmp_path / "supervise"
    pkg.mkdir()
    (pkg / "bad.py").write_text(
        "from ..transport.stats import TransportStats\n"
    )
    errors = check_layering._check_package(
        pkg, "repro.supervise", check_layering.SUPERVISE_FORBIDDEN,
        "supervision layer imports supervised layer",
    )
    assert len(errors) == 1
    assert "repro.transport.stats" in errors[0]


def test_resilience_rule_flags_execution_import(tmp_path):
    pkg = tmp_path / "resilience"
    pkg.mkdir()
    (pkg / "bad.py").write_text(
        "from ..execution.native import NativeModel\n"
    )
    errors = check_layering._check_package(
        pkg, "repro.resilience", check_layering.RESILIENCE_FORBIDDEN,
        "resilience primitive imports execution model",
    )
    assert len(errors) == 1
    assert "repro.execution.native" in errors[0]


def test_supervise_package_is_a_leaf():
    """The real supervise package imports none of the supervised layers
    (and, transitively stricter: nothing outside errors + stdlib)."""
    for path in sorted(check_layering.SUPERVISE_DIR.glob("*.py")):
        tree = ast.parse(path.read_text())
        for _, mod in check_layering.runtime_imports(
            tree, "repro.supervise"
        ):
            if mod.startswith("repro.") and not mod.startswith(
                "repro.supervise"
            ):
                assert mod == "repro.errors", (
                    f"{path.name} imports {mod}"
                )


def test_durable_leaf_rule_flags_any_repro_import(tmp_path):
    """Rule 9: the durable-I/O module may import repro.errors only."""
    leaf = tmp_path / "durable.py"
    leaf.write_text(
        "import os\nfrom .errors import ReproError\n"
        "from .serve.jobs import JobSpec\n"
    )
    errors = check_layering._check_leaf(leaf)
    assert len(errors) == 1
    assert "repro.serve.jobs" in errors[0]


def test_scenarios_roof_rule_flags_core_import(tmp_path):
    """Rule 5 machinery: a core-module import of repro.scenarios is a
    violation, and the CLI's own import is exempt."""
    # The real tree is clean...
    assert check_layering._check_scenarios_roof() == []
    # ...and the detector recognizes the forbidden import shape.
    tree = ast.parse("from .scenarios import load_scenario\n")
    mods = [m for _, m in check_layering.runtime_imports(tree, "repro")]
    assert mods == ["repro.scenarios"]
    assert check_layering._in_layer(mods[0], "repro.scenarios")


def test_gateway_roof_rule_flags_core_import(tmp_path):
    """Rule 6 machinery: the gateway tier is a roof — only the CLI may
    import it, and the generic roof checker catches everything else."""
    # The real tree is clean...
    assert check_layering._check_roof(
        check_layering.GATEWAY_DIR, "repro.gateway",
        check_layering.GATEWAY_IMPORTERS,
        "core module imports the gateway roof layer",
    ) == []
    # ...and the detector recognizes the forbidden import shape.
    core = tmp_path / "core.py"
    core.write_text("from .gateway import Gateway\n")
    errors = check_layering._check_roof(
        check_layering.GATEWAY_DIR, "repro.gateway",
        check_layering.GATEWAY_IMPORTERS,
        "core module imports the gateway roof layer",
        search_files=[core], package_of=lambda p: "repro",
    )
    assert len(errors) == 1
    assert "repro.gateway" in errors[0]


def test_gateway_package_imports_nothing_below_serve():
    """The gateway composes serve + supervise surfaces only: it must not
    reach into scenarios, transport, execution, cluster, simd, or
    machine — placement and caching sit strictly above the service."""
    for path in sorted(check_layering.GATEWAY_DIR.glob("*.py")):
        tree = ast.parse(path.read_text())
        for _, mod in check_layering.runtime_imports(
            tree, "repro.gateway"
        ):
            for layer in check_layering.GATEWAY_FORBIDDEN:
                assert not check_layering._in_layer(mod, layer), (
                    f"{path.name} imports {mod}"
                )


def test_scenarios_package_imports_no_roof_peers():
    """Scenarios may import downward (transport, serve, data, geometry)
    but never execution/cluster/simd/machine — it lowers documents onto
    the run path, it does not schedule."""
    forbidden = ("repro.execution", "repro.cluster", "repro.simd",
                 "repro.machine")
    for path in sorted(check_layering.SCENARIOS_DIR.glob("*.py")):
        tree = ast.parse(path.read_text())
        for _, mod in check_layering.runtime_imports(
            tree, "repro.scenarios"
        ):
            for layer in forbidden:
                assert not check_layering._in_layer(mod, layer), (
                    f"{path.name} imports {mod}"
                )
