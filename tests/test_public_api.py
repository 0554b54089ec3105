"""The public API surface: imports, __all__, version, module entry."""

import ast
import io
import os
import pathlib
import re
import subprocess
import sys
import tokenize

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
        JacobiSolver,
        KuramotoProgram,
        NBodyProgram,
        PerformanceModel,
        RunConfig,
        SyncIterativeProgram,
        WaveEquation1D,
        run,
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


#: The per-backend entry points :func:`repro.api.run` replaced.
GONE_ENTRY_POINTS = ("SpeculativeDriver", "run_program", "ReceiveDrivenDriver",
                     "run_loopback", "build_loopback", "MPRunner")


def test_run_is_the_only_entry_point_and_the_old_ones_resolve_nowhere():
    import repro.core
    import repro.core.receive_driven
    import repro.engine
    import repro.engine.loopback
    import repro.parallel
    import repro.parallel.runner

    for module in (repro, repro.core, repro.core.receive_driven, repro.engine,
                   repro.engine.loopback, repro.parallel, repro.parallel.runner):
        for gone in GONE_ENTRY_POINTS:
            assert not hasattr(module, gone), (module.__name__, gone)
    assert not (PACKAGE / "core" / "driver.py").exists()
    defined = set()
    for path in PACKAGE.rglob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined.add(node.name)
    assert not defined & set(GONE_ENTRY_POINTS)


#: What a DES rank could once be written or slowed with besides an
#: engine behind ``DESTransport`` and a ``RankFault``: owner -> names.
GONE_SIMULATOR_NAMES = {
    "VirtualProcessor": ("compute", "advance", "broadcast", "probe", "pending",
                         "sent_count", "recv_count", "load"),
    "Process": ("interrupt", "target"),
    "Event": ("trigger", "__and__", "__or__"),
    "StoreGet": ("cancel",),
    "Store": ("count",),
}
GONE_SIMULATOR_CLASSES = ("AnyOf", "Condition", "Interrupt",
                          "BackgroundLoad", "RandomWalkLoad")


def test_the_simulator_has_one_program_shape_and_one_slowdown():
    import inspect

    import repro.api
    import repro.cli
    import repro.des
    import repro.des.errors
    import repro.des.events
    import repro.des.resources
    import repro.platforms
    import repro.vm
    from repro.engine.sanitizer import ProtocolSanitizer
    from repro.vm import Cluster, uniform_specs

    owners = {
        "VirtualProcessor": Cluster(uniform_specs(1)).processor(0),
        "Process": repro.des.Process,
        "Event": repro.des.Environment().event(),
        "StoreGet": repro.des.resources.StoreGet,
        "Store": repro.des.Store,
    }
    for owner, names in GONE_SIMULATOR_NAMES.items():
        for gone in names:
            assert not hasattr(owners[owner], gone), (owner, gone)
    for module in (repro, repro.des, repro.des.errors, repro.des.events,
                   repro.des.resources, repro.vm, repro.platforms):
        for gone in GONE_SIMULATOR_CLASSES:
            assert not hasattr(module, gone), (module.__name__, gone)
    assert not (PACKAGE / "vm" / "load.py").exists()
    defined = set()
    for path in PACKAGE.rglob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ClassDef):
                defined.add(node.name)
    assert not defined & set(GONE_SIMULATOR_CLASSES)

    def params(func):
        return set(inspect.signature(func).parameters)

    assert "load" not in params(repro.vm.VirtualProcessor)
    assert "loads" not in params(Cluster)
    assert "loads" not in repro.platforms.PlatformConfig.__dataclass_fields__
    assert "background_load" not in params(repro.platforms.wustl_1994)
    assert params(repro.cli._mp_flags) == {"args"}
    assert not params(ProtocolSanitizer)
    fields = repro.api.RunConfig.__dataclass_fields__
    assert "p" not in fields and len(fields) == 15


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


def _imports(name, path):
    """Every module ``path`` imports, at any depth of its AST.

    An ast walk, so nothing is executed: function-local imports and
    imports under ``TYPE_CHECKING`` count.  Importing a.b.c imports its
    packages a and a.b too.
    """
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
            parts = target.split(".")
            found.update(".".join(parts[:i]) for i in range(1, len(parts) + 1))
    return found - {name}


def test_every_module_is_imported_by_another():
    # A module no other module of src/repro imports (at any depth, or
    # as a package re-export) is dead code.  The two entry points are
    # the only exceptions.
    modules = {_module_name(path): path for path in PACKAGE.rglob("*.py")}
    imported = set().union(*(_imports(name, path) for name, path in modules.items()))
    orphans = set(modules) - imported - {"repro.__main__", "repro.cli"}
    assert not orphans, sorted(orphans)


def test_only_the_front_end_imports_the_analyzers():
    # The layer rule: repro.analysis may import the runtime, and nothing
    # outside it imports repro.analysis except the CLI.
    offenders = []
    for path in sorted(PACKAGE.rglob("*.py")):
        name = _module_name(path)
        if name == "repro.cli" or name.startswith("repro.analysis"):
            continue
        if "repro.analysis" in _imports(name, path):
            offenders.append(name)
    assert not offenders, offenders


def test_importing_repro_loads_no_analyzer():
    path = os.pathsep.join(filter(None, [str(PACKAGE.parent),
                                         os.environ.get("PYTHONPATH")]))
    out = subprocess.run(
        [sys.executable, "-c",
         "import sys, repro; "
         "print(sorted(m for m in sys.modules if m.startswith('repro')))"],
        capture_output=True, text=True, timeout=120,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert out.returncode == 0, out.stderr
    loaded = ast.literal_eval(out.stdout)
    assert "repro.api" in loaded
    assert not [m for m in loaded if m.startswith("repro.analysis")]


def _code_words(path):
    """``(line, word)`` for each word of ``path``'s code, its comments
    and docstrings left out: a name a comment or a docstring mentions
    is not called."""
    text = path.read_text(encoding="utf-8")
    docstrings = {(node.body[0].lineno, node.body[0].col_offset)
                  for node in ast.walk(ast.parse(text))
                  if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef))
                  and ast.get_docstring(node, clean=False) is not None}
    return [(token.start[0], word)
            for token in tokenize.generate_tokens(io.StringIO(text).readline)
            if token.type != tokenize.COMMENT and token.start not in docstrings
            for word in re.findall(r"\w+", token.string)]


#: Public names that only tests call and that stay, each with its reason.
TEST_ONLY = {
    "nbody/particles.py::ParticleSystem.total_energy":
        "the energy-conservation oracle of tests/test_nbody_physics.py",
}


def _public_defs(tree):
    """A module's public top-level functions and classes, and the public
    methods and properties of those classes: (qualified name, node)."""
    for node in tree.body:
        if (not isinstance(node, (ast.FunctionDef, ast.ClassDef))
                or node.name.startswith("_")):
            continue
        yield node.name, node
        if isinstance(node, ast.ClassDef):
            for member in node.body:
                if (isinstance(member, ast.FunctionDef)
                        and not member.name.startswith("_")):
                    yield f"{node.name}.{member.name}", member


def test_every_public_name_has_a_caller():
    # A public name of src/repro (top-level function or class, or a
    # method or property of such a class) must be named by the code of
    # another non-__init__ file of src/repro, benchmarks, examples,
    # scripts or bench, or used by its own module's code outside its
    # definition and its __all__.  A name only tests call is dead code.
    root = PACKAGE.parent.parent
    paths = [path for path in PACKAGE.rglob("*.py") if path.name != "__init__.py"]
    for folder in ("benchmarks", "examples", "scripts", "bench"):
        paths.extend((root / folder).rglob("*.py"))
    callers = {path: {word for _, word in _code_words(path)} for path in paths}
    uncalled = []
    for path in sorted(PACKAGE.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        words = _code_words(path)
        exports = [node for node in tree.body if isinstance(node, ast.Assign)
                   and any(getattr(t, "id", None) == "__all__" for t in node.targets)]
        for qualified, node in _public_defs(tree):
            name = qualified.rpartition(".")[2]
            spans = [(min([span.lineno] + [d.lineno for d in
                                           getattr(span, "decorator_list", ())]),
                      span.end_lineno) for span in (node, *exports)]
            if any(word == name and not any(a <= line <= b for a, b in spans)
                   for line, word in words):
                continue
            if not any(name in other_words for other, other_words in callers.items()
                       if other != path):
                uncalled.append(f"{path.relative_to(PACKAGE)}::{qualified}")
    dead = [name for name in uncalled if name not in TEST_ONLY]
    assert not dead, "only tests call:\n" + "\n".join(dead)
    stale = set(TEST_ONLY) - set(uncalled)
    assert not stale, f"these have a caller now, drop their exemption: {stale}"


def test_python_dash_m_entry():
    out = subprocess.run(
        [sys.executable, "-m", "repro", "list"],
        capture_output=True, text=True, timeout=120,
    )
    assert out.returncode == 0
    assert "fig8" in out.stdout
