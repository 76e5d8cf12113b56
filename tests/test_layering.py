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
        "    from ..transport.tally import GlobalTallies\n"
        "from ..errors import ExecutionError\n"
    )
    tree = ast.parse(src)
    mods = [m for _, m in check_layering.runtime_imports(
        tree, "repro.execution")]
    assert "repro.transport.tally" not in mods
    assert "repro.errors" in mods
    assert "typing" in mods


def test_relative_import_resolution():
    tree = ast.parse("from . import context\nfrom .tally import T\n")
    mods = sorted(m for _, m in check_layering.runtime_imports(
        tree, "repro.transport"))
    assert mods == ["repro.transport", "repro.transport.tally"]


def violations(tmp_path, rel, source):
    """Run the real table over a one-file synthetic ``src`` tree."""
    path = tmp_path / "repro" / rel
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(source)
    return check_layering.check(src=tmp_path)


def real_imports(layer):
    """``(file name, module)`` for every runtime import of a real layer."""
    root = check_layering.SRC / "repro"
    package = "repro." + layer.replace("/", ".")
    for path in sorted((root / layer).glob("*.py")):
        tree = ast.parse(path.read_text())
        for _, mod in check_layering.runtime_imports(tree, package):
            yield path.name, mod


def test_every_declared_layer_exists():
    for name in check_layering.LAYERS:
        assert (check_layering.SRC / "repro" / name).exists(), name


def test_stages_rule_flags_upward_import(tmp_path):
    errors = violations(
        tmp_path, "transport/stages.py",
        "from ..profiling.timers import TimerRegistry\n"
        "from ..physics.macroxs import XSCalculator\n",
    )
    assert len(errors) == 1
    assert "repro.profiling.timers" in errors[0]


def test_execution_model_rule_flags_transport_import(tmp_path):
    """Any execution module importing transport is a violation: the
    package prices and plans, it runs nothing."""
    source = "from ..transport.events import run_generation_event\n"
    errors = violations(tmp_path, "execution/symmetric.py", source)
    assert len(errors) == 1
    assert "repro.transport.events" in errors[0]
    assert "only cluster/ runs ranks" in errors[0]


def test_supervise_rule_flags_transport_import(tmp_path):
    """A supervise module importing transport internals is a violation."""
    errors = violations(
        tmp_path, "supervise/bad.py",
        "from ..transport.tally import GlobalTallies\n",
    )
    assert len(errors) == 1
    assert "repro.transport.tally" in errors[0]


def test_resilience_rule_flags_execution_import(tmp_path):
    errors = violations(
        tmp_path, "resilience/bad.py",
        "from ..execution.native import NativeModel\n",
    )
    assert len(errors) == 1
    assert "repro.execution.native" in errors[0]


def test_supervise_package_is_a_leaf():
    """The real supervise package imports none of the supervised layers
    (and, transitively stricter: nothing outside errors + stdlib)."""
    for name, mod in real_imports("supervise"):
        if mod.startswith("repro.") and not mod.startswith("repro.supervise"):
            assert mod == "repro.errors", f"{name} imports {mod}"


def test_durable_leaf_rule_flags_any_repro_import(tmp_path):
    """The durable-I/O module may import repro.errors only."""
    errors = violations(
        tmp_path, "durable.py",
        "import os\nfrom .errors import ReproError\n"
        "from .serve.jobs import JobSpec\n",
    )
    assert len(errors) == 1
    assert "repro.serve.jobs" in errors[0]


def test_scenarios_roof_rule_flags_core_import(tmp_path):
    """A core-module import of repro.scenarios is a violation; the CLI's
    and the chaos harness's are exempt."""
    source = "from .scenarios import load_scenario\n"
    errors = violations(tmp_path, "core.py", source)
    assert len(errors) == 1
    assert "repro.scenarios" in errors[0]
    (tmp_path / "repro" / "core.py").unlink()
    assert violations(tmp_path, "cli.py", source) == []
    assert violations(
        tmp_path, "chaos/runner.py", "from ..scenarios import load_suite\n"
    ) == []


def test_gateway_roof_rule_flags_core_import(tmp_path):
    """The gateway tier is a roof — only the CLI and the chaos harness may
    import it — and it reaches nothing below the serve surface."""
    errors = violations(
        tmp_path, "serve/bad.py", "from ..gateway import Gateway\n"
    )
    assert len(errors) == 1
    assert "repro.gateway" in errors[0]
    errors = violations(
        tmp_path, "gateway/bad.py",
        "from ..transport.simulation import Simulation\n"
        "from ..serve.jobs import JobSpec\n",
    )
    assert len(errors) == 2  # serve/bad.py is still there
    assert "repro.transport.simulation" in errors[0]


def test_chaos_roof_rule_flags_core_and_physics_imports(tmp_path):
    """Only the CLI may import the chaos harness, and the harness never
    touches the physics or hardware layers."""
    errors = violations(
        tmp_path, "gateway/bad.py", "from ..chaos import ChaosRunner\n"
    )
    assert len(errors) == 1
    assert "repro.chaos" in errors[0]
    errors = violations(
        tmp_path, "chaos/bad.py",
        "from ..machine.presets import MIC_7120A\n"
        "from ..gateway import Gateway\n",
    )
    assert len(errors) == 2  # gateway/bad.py is still there
    assert "repro.machine.presets" in errors[0]


def test_gateway_package_imports_nothing_below_serve():
    """The gateway composes serve + supervise surfaces only: it must not
    reach into scenarios, transport, execution, cluster, simd, or
    machine — placement and caching sit strictly above the service."""
    forbidden = check_layering.LAYERS["gateway"].forbid
    assert set(forbidden) == {
        "scenarios", "transport", "execution", "cluster", "simd", "machine",
    }
    for name, mod in real_imports("gateway"):
        for layer in forbidden:
            assert not check_layering._in_layer(mod, f"repro.{layer}"), (
                f"{name} imports {mod}"
            )


def test_scenarios_package_imports_no_roof_peers():
    """Scenarios may import downward (transport, serve, data, geometry)
    but never execution/cluster/simd/machine — it lowers documents onto
    the run path, it does not schedule."""
    forbidden = ("repro.execution", "repro.cluster", "repro.simd",
                 "repro.machine")
    for name, mod in real_imports("scenarios"):
        for layer in forbidden:
            assert not check_layering._in_layer(mod, layer), (
                f"{name} imports {mod}"
            )
