"""The public API surface: imports, __all__, version, module entry."""

import ast
import pathlib
import subprocess
import sys

import repro

PACKAGE = pathlib.Path(repro.__file__).resolve().parent


def test_all_names_resolve():
    for name in repro.__all__:
        assert getattr(repro, name, None) is not None, name


def test_version_string():
    assert repro.__version__.count(".") == 2


def test_key_classes_importable_from_top_level():
    from repro import (  # noqa: F401
        Cluster,
        CoupledMapLattice,
        HeatEquation1D,
        HeatEquation2D,
        JacobiSolver,
        KuramotoProgram,
        MPRunner,
        NBodyProgram,
        PerformanceModel,
        SpeculativeDriver,
        SyncIterativeProgram,
        WaveEquation1D,
        run_program,
        wustl_1994,
    )


def test_one_result_type_is_exported_and_the_old_ones_resolve_nowhere():
    import repro.api
    import repro.core
    import repro.core.results
    import repro.parallel
    import repro.parallel.runner

    assert {"RunReport", "RunConfig", "run"} <= set(repro.__all__)
    assert (repro.RunReport is repro.api.RunReport is repro.core.RunReport
            is repro.core.results.RunReport)
    for module in (repro, repro.api, repro.core, repro.core.results,
                   repro.parallel, repro.parallel.runner):
        for gone in ("RunResult", "MPRunResult"):
            assert not hasattr(module, gone), (module.__name__, gone)
    fields = set(repro.RunReport.__dataclass_fields__)
    assert not {"raw", "makespan", "final_blocks"} & fields
    assert not any(hasattr(repro.RunReport, old)
                   for old in ("raw", "makespan", "final_blocks"))


def test_subpackages_importable():
    import repro.core
    import repro.core.receive_driven
    import repro.des
    import repro.harness
    import repro.nbody.barneshut
    import repro.netsim
    import repro.parallel
    import repro.partition
    import repro.perfmodel.extended
    import repro.platforms
    import repro.trace  # noqa: F401


def _module_name(path):
    parts = path.relative_to(PACKAGE.parent).with_suffix("").parts
    return ".".join(parts[:-1] if parts[-1] == "__init__" else parts)


def test_every_module_is_imported_by_another():
    # An ast walk, so nothing is executed: a module no other module of
    # src/repro imports (at any depth, or as a package re-export) is
    # dead code.  The two entry points are the only exceptions.
    modules = {_module_name(path): path for path in PACKAGE.rglob("*.py")}
    imported = set()
    for name, path in modules.items():
        package = name if path.name == "__init__.py" else name.rpartition(".")[0]
        found = set()
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                targets = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                base = node.module or ""
                if node.level:
                    anchor = package.rsplit(".", node.level - 1)[0]
                    base = f"{anchor}.{base}" if base else anchor
                targets = [base] + [f"{base}.{alias.name}" for alias in node.names]
            else:
                continue
            for target in targets:
                # Importing a.b.c imports its packages a and a.b too.
                parts = target.split(".")
                found.update(".".join(parts[:i]) for i in range(1, len(parts) + 1))
        imported |= found - {name}
    orphans = set(modules) - imported - {"repro.__main__", "repro.cli"}
    assert not orphans, sorted(orphans)


def test_python_dash_m_entry():
    out = subprocess.run(
        [sys.executable, "-m", "repro", "list"],
        capture_output=True, text=True, timeout=120,
    )
    assert out.returncode == 0
    assert "fig8" in out.stdout
