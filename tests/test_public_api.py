"""The public API surface: imports, __all__, version, module entry."""

import ast
import os
import pathlib
import re
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
#: engine stepped by ``CalendarRunner`` and a ``RankFault``: owner -> names.
GONE_SIMULATOR_NAMES = {
    "VirtualProcessor": ("compute", "advance", "broadcast", "probe", "pending",
                         "sent_count", "recv_count", "load", "try_recv",
                         "charged"),
    "Process": ("interrupt", "target"),
    "Event": ("trigger", "__and__", "__or__"),
    "StoreGet": ("cancel",),
    "Store": ("count", "peek"),
    "Environment": ("schedule_at",),
    "Timeout": ("delay",),
}
GONE_SIMULATOR_CLASSES = ("AnyOf", "Condition", "Interrupt",
                          "BackgroundLoad", "RandomWalkLoad", "DESTransport",
                          "Resource", "ResourceRequest", "Initialize")


def test_the_simulator_has_one_program_shape_and_one_slowdown():
    import inspect

    import repro.api
    import repro.cli
    import repro.des
    import repro.des.errors
    import repro.des.events
    import repro.des.resources
    import repro.engine
    import repro.platforms
    import repro.trace
    import repro.vm
    from repro.engine.sanitizer import ProtocolSanitizer
    from repro.vm import Cluster, uniform_specs

    owners = {
        "VirtualProcessor": Cluster(uniform_specs(1)).processors[0],
        "Process": repro.des.Process,
        "Event": repro.des.Environment().event(),
        "StoreGet": repro.des.resources.StoreGet,
        "Store": repro.des.Store,
        "Environment": repro.des.Environment,
        "Timeout": repro.des.Timeout,
    }
    for owner, names in GONE_SIMULATOR_NAMES.items():
        for gone in names:
            assert not hasattr(owners[owner], gone), (owner, gone)
    for module in (repro, repro.des, repro.des.errors, repro.des.events,
                   repro.des.resources, repro.vm, repro.platforms, repro.engine):
        for gone in GONE_SIMULATOR_CLASSES:
            assert not hasattr(module, gone), (module.__name__, gone)
    assert not (PACKAGE / "vm" / "load.py").exists()
    assert not (PACKAGE / "engine" / "des_transport.py").exists()
    defined = set()
    for path in PACKAGE.rglob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ClassDef):
                defined.add(node.name)
    assert not defined & set(GONE_SIMULATOR_CLASSES)

    def params(func):
        return set(inspect.signature(func).parameters)

    assert "at" not in params(repro.des.Event.succeed)
    assert "load" not in params(repro.vm.VirtualProcessor)
    assert "loads" not in params(Cluster)
    # One trace-recording seat on the DES: the runner, as on the other
    # backends; the processor and the cluster record nothing.
    assert "event_log" not in params(Cluster)
    assert not hasattr(Cluster(uniform_specs(1)), "event_log")
    assert not hasattr(repro.trace.EventLog, "record_message")
    assert not hasattr(repro.trace, "split_tag")
    for path in (PACKAGE / "vm").glob("*.py"):
        assert "repro.trace.events" not in _imports(_module_name(path), path), path
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


#: Modules an in-process run never uses: OpenSSL's libcrypto (behind
#: ``hashlib``), the multiprocessing stack, and ``numpy.ma``.
UNUSED_BY_IN_PROCESS_RUNS = ("_hashlib", "multiprocessing", "numpy.ma")


def test_in_process_runs_load_no_openssl_mp_stack_or_numpy_ma():
    path = os.pathsep.join(filter(None, [str(PACKAGE.parent),
                                         os.environ.get("PYTHONPATH")]))
    script = (
        "import sys, repro\n"
        "from repro.harness.toys import ConstantProgram\n"
        "from repro.nbody import uniform_cube\n"
        f"unused = {UNUSED_BY_IN_PROCESS_RUNS!r}\n"
        "repro.run(repro.RunConfig(ConstantProgram(nprocs=2, iterations=3), fw=1))\n"
        "print(sorted(m for m in unused if m in sys.modules))\n"
        "repro.NBodyProgram(uniform_cube(16, seed=0, softening=0.1), [1.0, 1.0],\n"
        "                   iterations=2, dt=0.01, threshold=0.01)\n"
        "print(sorted(m for m in ('numpy.ma',) if m in sys.modules))\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True, text=True, timeout=120,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert out.returncode == 0, out.stderr
    after_des, after_nbody = map(ast.literal_eval, out.stdout.splitlines())
    assert after_des == [], after_des
    assert after_nbody == [], after_nbody


#: Nodes whose ``name`` defines rather than uses it.
DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _code_words(path):
    """``(line, word)`` for each identifier of ``path``'s code and each
    word of its string constants.  Left out: comments, docstrings, the
    literal text of f-strings, and a class's reads of ``self.<name>`` in
    its dunder methods other than ``__init__``.  A name a comment, a
    docstring or a printed label mentions is not called, nor is a member
    only its own class's ``__repr__`` (or ``__eq__``, ...) reads."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    skip = {id(node.body[0].value) for node in ast.walk(tree)
            if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef))
            and ast.get_docstring(node, clean=False) is not None}
    skip.update(id(part) for node in ast.walk(tree) if isinstance(node, ast.JoinedStr)
                for part in node.values if isinstance(part, ast.Constant))
    skip.update(id(node) for cls in ast.walk(tree) if isinstance(cls, ast.ClassDef)
                for method in cls.body if isinstance(method, ast.FunctionDef)
                and method.name not in ("__init__", "__post_init__")
                and method.name.startswith("__") and method.name.endswith("__")
                for node in ast.walk(method)
                if getattr(getattr(node, "value", None), "id", None) == "self"
                or isinstance(node, ast.Constant))
    words = []
    for node in ast.walk(tree):
        if id(node) in skip:
            continue
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            words += [(node.lineno, w) for w in re.findall(r"\w+", node.value)]
        for field in ("id", "attr", "name", "asname", "module"):
            value = getattr(node, field, None)
            if isinstance(value, str) and not isinstance(node, DEFINITIONS):
                words += [(getattr(node, "lineno", 0), w)
                          for w in re.findall(r"\w+", value)]
    return words


#: Public names that only tests call, and parameters only tests pass,
#: that stay, each with its reason.
TEST_ONLY = {
    "nbody/particles.py::ParticleSystem.total_energy":
        "the energy-conservation oracle of tests/test_nbody_physics.py",
    "cli.py::main(argv=)":
        "the console entry point; tests drive the CLI in-process through it",
    "harness/experiments.py::fig4_forward_window(spike_extra=)":
        "tier-1 runs the paper's experiments at reduced size through it",
    "harness/experiments.py::fig6_error_sensitivity(k_values=)":
        "tier-1 runs the paper's experiments at reduced size through it",
    "harness/experiments.py::fig8_nbody_speedup(ps=)":
        "tier-1 runs the paper's experiments at reduced size through it",
    "harness/experiments.py::table3_threshold_sweep(thetas=)":
        "tier-1 runs the paper's experiments at reduced size through it",
    "harness/experiments.py::fig9_model_vs_measured(ps=)":
        "tier-1 runs the paper's experiments at reduced size through it",
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


def _is_frozen_dataclass(node):
    return any(isinstance(d, ast.Call) and getattr(d.func, "id", None) == "dataclass"
               and any(k.arg == "frozen" and getattr(k.value, "value", False)
                       for k in d.keywords)
               for d in node.decorator_list)


def _init_fields(node):
    """A frozen dataclass's ``__init__`` fields: (name, has a default)."""
    for member in node.body:
        if (not isinstance(member, ast.AnnAssign)
                or not isinstance(member.target, ast.Name)
                or "ClassVar" in ast.unparse(member.annotation)):
            continue
        value = member.value
        if isinstance(value, ast.Call) and getattr(value.func, "id", None) == "field":
            keywords = {k.arg: k.value for k in value.keywords}
            if getattr(keywords.get("init"), "value", True) is False:
                continue
            yield member.target.id, bool({"default", "default_factory"} & set(keywords))
        else:
            yield member.target.id, value is not None


def _defaulted_parameters(tree):
    """``(label, callee, position, parameter)`` for each parameter with a
    default of a module's public functions and methods (``__init__``
    included; ``callee`` is the name a call uses, the class's for
    ``__init__``) and each defaulted field of its frozen dataclasses.
    ``position`` is the number of positional arguments a call needs to
    reach the parameter, None for a keyword-only one."""
    def signature(func, label, callee, bound):
        args = func.args
        positional = [a.arg for a in args.posonlyargs + args.args][bound:]
        for i, name in enumerate(positional):
            if i >= len(positional) - len(args.defaults):
                yield f"{label}({name}=)", callee, i + 1, name
        for arg, default in zip(args.kwonlyargs, args.kw_defaults):
            if default is not None:
                yield f"{label}({arg.arg}=)", callee, None, arg.arg

    for qualified, node in _public_defs(tree):
        if isinstance(node, ast.ClassDef):
            if _is_frozen_dataclass(node):
                names = list(_init_fields(node))
                for i, (name, has_default) in enumerate(names):
                    if has_default:
                        yield f"{qualified}({name}=)", qualified, i + 1, name
            for member in node.body:
                if isinstance(member, ast.FunctionDef) and member.name == "__init__":
                    yield from signature(member, qualified, qualified, 1)
            continue
        owner, _, name = qualified.rpartition(".")
        static = any(getattr(d, "id", None) == "staticmethod"
                     for d in node.decorator_list)
        if not any(getattr(d, "id", None) == "property" for d in node.decorator_list):
            yield from signature(node, qualified, name, 0 if static or not owner else 1)


def _passed(paths):
    """What the code of ``paths`` passes: the keyword names of its calls
    and the string keys of its dict displays, and for each callee name
    the most positional arguments any call gives it (a ``*`` argument
    reaches every position)."""
    keywords, reach = set(), {}
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Dict):
                keywords.update(k.value for k in node.keys if isinstance(k, ast.Constant)
                                and isinstance(k.value, str))
            elif isinstance(node, ast.Call):
                keywords.update(k.arg for k in node.keywords if k.arg)
                callee = getattr(node.func, "id", None) or getattr(node.func, "attr", None)
                count = (float("inf") if any(isinstance(a, ast.Starred) for a in node.args)
                         else len(node.args))
                reach[callee] = max(reach.get(callee, 0), count)
    return keywords, reach


def test_every_public_name_has_a_caller():
    # A public name of src/repro (top-level function or class, or a
    # method or property of such a class) must be named by the code of
    # another non-__init__ file of src/repro, benchmarks, examples,
    # scripts or bench, or used by its own module's code outside its
    # definition and its __all__.  A parameter with a default of a
    # public function or method, or a defaulted field of a frozen
    # dataclass, must be passed by the code of one of those files or
    # any __init__: by keyword to any callee, as a string key of a dict
    # display, or positionally to a callee of its name.  A name only
    # tests call, or a parameter only tests pass, is dead code.
    # Known gap: a use is matched by name only, so any use of a name
    # keeps every member of that name alive (a read of Arrival.latency
    # once kept a Message.latency that only tests read).
    root = PACKAGE.parent.parent
    paths = [path for path in PACKAGE.rglob("*.py") if path.name != "__init__.py"]
    for folder in ("benchmarks", "examples", "scripts", "bench"):
        paths.extend((root / folder).rglob("*.py"))
    callers = {path: {word for _, word in _code_words(path)} for path in paths}
    keywords, reach = _passed([*paths, *PACKAGE.rglob("__init__.py")])
    uncalled = []
    for path in sorted(PACKAGE.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        where = path.relative_to(PACKAGE)
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
                uncalled.append(f"{where}::{qualified}")
        for label, callee, position, parameter in _defaulted_parameters(tree):
            if parameter in keywords:
                continue
            if position is not None and reach.get(callee, 0) >= position:
                continue
            uncalled.append(f"{where}::{label}")
    dead = [name for name in uncalled if name not in TEST_ONLY]
    assert not dead, "only tests call or pass:\n" + "\n".join(dead)
    stale = set(TEST_ONLY) - set(uncalled)
    assert not stale, f"these have a caller now, drop their exemption: {stale}"


def test_python_dash_m_entry():
    out = subprocess.run(
        [sys.executable, "-m", "repro", "list"],
        capture_output=True, text=True, timeout=120,
    )
    assert out.returncode == 0
    assert "fig8" in out.stdout
