"""The speclint rules (SPL001, SPL003..SPL008).

Each rule is a small, self-contained AST pass tuned to *this*
codebase's speculative-DES idioms (see ``docs/static_analysis.md`` for
the rationale, bad/good examples and the honest list of heuristics).

Shared conventions the rules key on:

* Virtual processors are bound to names ending in ``proc`` (``proc``,
  ``vp``, ``processor``); environments to names ending in ``env``.
* Generator-API methods (``compute``/``advance``/``recv``) only make
  progress when driven with ``yield from``.
* Message tags are ``(family, iteration)`` tuples whose family is a
  declared constant (``VARS``, ``BARRIER_IN``...), never a bare string.
"""

from __future__ import annotations

import ast
import re
from pathlib import PurePosixPath
from typing import TYPE_CHECKING, Callable, Iterator, Optional

from repro.analysis.diagnostics import Diagnostic, Severity, diag_at, register_rule

if TYPE_CHECKING:
    from repro.analysis.program import ProgramIndex

# --------------------------------------------------------------------------
# shared helpers
# --------------------------------------------------------------------------

#: Receiver names that denote a virtual processor.
PROC_NAMES = frozenset({"proc", "processor", "vp"})
#: Receiver names that denote a simulation environment.
ENV_NAMES = frozenset({"env", "environment"})
#: Processor methods that are generators (must be ``yield from``-ed).
#: ``compute`` / ``advance`` are gone from the runtime; SPL001's
#: fixtures are their only witnesses.
GENERATOR_METHODS = frozenset({"compute", "advance", "recv"})
#: Transport primitives whose ``tag=`` keyword speclint inspects.
TAGGED_METHODS = frozenset({"send", "recv", "try_recv", "probe", "broadcast"})
#: Payload-sending primitives inspected by the aliasing rule.
SEND_METHODS = frozenset({"send", "broadcast"})
#: numpy in-place array mutators.
ARRAY_MUTATORS = frozenset(
    {"fill", "sort", "resize", "put", "itemset", "partition", "setflags", "byteswap"}
)
#: ``random`` module-level functions (process-global RNG state).
RANDOM_MODULE_FUNCS = frozenset(
    {
        "random", "randint", "randrange", "uniform", "choice", "choices",
        "shuffle", "sample", "gauss", "normalvariate", "seed", "betavariate",
        "expovariate", "getrandbits", "triangular", "vonmisesvariate",
    }
)
#: Legacy ``numpy.random`` module-level API (global RNG state); the
#: injected ``numpy.random.default_rng`` / ``Generator`` is the allowed
#: replacement.
NUMPY_LEGACY_RANDOM = frozenset(
    {
        "rand", "randn", "random", "random_sample", "ranf", "sample",
        "randint", "random_integers", "seed", "uniform", "normal", "choice",
        "shuffle", "permutation", "standard_normal", "exponential", "poisson",
        "binomial", "get_state", "set_state", "RandomState",
    }
)
#: Handler-body calls that preserve the original traceback.
TRACEBACK_PRESERVERS = frozenset(
    {"format_exc", "print_exc", "format_exception", "exception", "print_exception"}
)


def build_parent_map(tree: ast.Module) -> dict[ast.AST, ast.AST]:
    """Map each node to its syntactic parent."""
    parents: dict[ast.AST, ast.AST] = {}
    for node in ast.walk(tree):
        for child in ast.iter_child_nodes(node):
            parents[child] = node
    return parents


def receiver_tail(expr: ast.expr) -> Optional[str]:
    """Terminal identifier of a receiver expression.

    ``proc`` -> "proc"; ``self.proc`` -> "proc"; ``cluster.env`` ->
    "env"; anything else -> None.
    """
    if isinstance(expr, ast.Name):
        return expr.id
    if isinstance(expr, ast.Attribute):
        return expr.attr
    return None


def is_proc_receiver(expr: ast.expr) -> bool:
    """Does ``expr`` look like a virtual-processor handle?"""
    tail = receiver_tail(expr)
    return tail is not None and (tail in PROC_NAMES or tail.endswith("_proc"))


def is_env_receiver(expr: ast.expr) -> bool:
    """Does ``expr`` look like a simulation environment handle?"""
    tail = receiver_tail(expr)
    return tail is not None and (tail in ENV_NAMES or tail.endswith("_env"))


def dotted_name(expr: ast.expr) -> Optional[str]:
    """``a.b.c`` as a string, or None for non-name chains."""
    parts: list[str] = []
    node: ast.expr = expr
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    parts.append(node.id)
    return ".".join(reversed(parts))


def import_table(tree: ast.Module) -> tuple[dict[str, str], dict[str, tuple[str, str]]]:
    """(module aliases, from-imports) declared in the file.

    Returns ``({"np": "numpy", "time": "time"}, {"urandom": ("os",
    "urandom")})``-style tables.
    """
    modules: dict[str, str] = {}
    from_names: dict[str, tuple[str, str]] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                local = alias.asname or alias.name.split(".")[0]
                modules[local] = alias.name if alias.asname else alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.module and node.level == 0:
            for alias in node.names:
                from_names[alias.asname or alias.name] = (node.module, alias.name)
    return modules, from_names


def iter_functions(
    tree: ast.Module,
) -> Iterator[ast.FunctionDef | ast.AsyncFunctionDef]:
    """Every function definition in the module (any nesting)."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node


def walk_own_body(func: ast.AST) -> Iterator[ast.AST]:
    """Walk a function's body without descending into nested defs."""
    stack: list[ast.AST] = list(ast.iter_child_nodes(func))
    while stack:
        node = stack.pop()
        yield node
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        stack.extend(ast.iter_child_nodes(node))


def is_generator_function(func: ast.FunctionDef | ast.AsyncFunctionDef) -> bool:
    """Does the function's own body contain a yield?"""
    for node in walk_own_body(func):
        if isinstance(node, (ast.Yield, ast.YieldFrom)):
            return True
    return False


# --------------------------------------------------------------------------
# SPL001 — unawaited simulation call
# --------------------------------------------------------------------------


register_rule(
    "SPL001",
    "unawaited-simulation-call",
    Severity.ERROR,
    "generator-API call (proc.compute/advance/recv) not driven with "
    "`yield from`, or an env.timeout event created and discarded",
)


def check_spl001(tree: ast.Module, path: str, source: str) -> Iterator[Diagnostic]:
    """A dropped ``yield from`` silently skips virtual time/blocking."""
    parents = build_parent_map(tree)
    for node in ast.walk(tree):
        if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)):
            continue
        attr = node.func.attr
        recv = node.func.value
        if attr in GENERATOR_METHODS and is_proc_receiver(recv):
            parent = parents.get(node)
            if not isinstance(parent, ast.YieldFrom):
                yield diag_at(
                    path,
                    node,
                    "SPL001",
                    f"simulation call `{receiver_tail(recv)}.{attr}(...)` is a "
                    "generator and does nothing unless driven with `yield from`",
                )
        elif attr == "timeout" and is_env_receiver(recv):
            parent = parents.get(node)
            if isinstance(parent, ast.Expr):
                yield diag_at(
                    path,
                    node,
                    "SPL001",
                    f"`{receiver_tail(recv)}.timeout(...)` creates an event that "
                    "is discarded; yield it (or drop the call)",
                )


# --------------------------------------------------------------------------
# SPL003 — nondeterminism in simulated components
# --------------------------------------------------------------------------


register_rule(
    "SPL003",
    "nondeterministic-source",
    Severity.ERROR,
    "wall-clock or process-global RNG in simulated code; inject a "
    "numpy.random.Generator (default_rng) and use env.now for time",
)


def check_spl003(tree: ast.Module, path: str, source: str) -> Iterator[Diagnostic]:
    """time.time / random.* / os.urandom / legacy np.random break replay."""
    modules, from_names = import_table(tree)

    def flag(node: ast.AST, what: str) -> Diagnostic:
        return diag_at(
            path,
            node,
            "SPL003",
            f"nondeterministic source `{what}` in simulated code; use the "
            "injected numpy.random.Generator / virtual clock instead",
        )

    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if isinstance(func, ast.Attribute):
            dotted = dotted_name(func)
            if dotted is None:
                continue
            head, _, rest = dotted.partition(".")
            base = modules.get(head)
            if base is None:
                continue
            resolved = f"{base}.{rest}" if rest else base
            if resolved in ("time.time", "time.time_ns", "os.urandom"):
                yield flag(node, resolved)
            elif base == "random" and rest in RANDOM_MODULE_FUNCS:
                yield flag(node, f"random.{rest}")
            elif resolved.startswith("numpy.random."):
                leaf = resolved.rsplit(".", 1)[1]
                if leaf in NUMPY_LEGACY_RANDOM:
                    yield flag(node, f"numpy.random.{leaf}")
        elif isinstance(func, ast.Name):
            origin = from_names.get(func.id)
            if origin is None:
                continue
            mod, name = origin
            if (mod, name) in (("time", "time"), ("time", "time_ns"), ("os", "urandom")):
                yield flag(node, f"{mod}.{name}")
            elif mod == "random" and name in RANDOM_MODULE_FUNCS:
                yield flag(node, f"random.{name}")
            elif mod == "numpy.random" and name in NUMPY_LEGACY_RANDOM:
                yield flag(node, f"numpy.random.{name}")


# --------------------------------------------------------------------------
# SPL004 — message-tag discipline
# --------------------------------------------------------------------------


register_rule(
    "SPL004",
    "message-tag-discipline",
    Severity.ERROR,
    "message tags must be (family, iteration) tuples whose family is a "
    "declared constant (e.g. VARS), not a bare string",
)


def check_spl004(tree: ast.Module, path: str, source: str) -> Iterator[Diagnostic]:
    """Bare-string tags collide across protocols and defeat routing."""
    for node in ast.walk(tree):
        if not (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr in TAGGED_METHODS
        ):
            continue
        tag_kw = next((kw for kw in node.keywords if kw.arg == "tag"), None)
        if tag_kw is None:
            continue
        tag = tag_kw.value
        if isinstance(tag, ast.Constant):
            if tag.value is None:
                continue  # wildcard receive
            yield diag_at(
                path,
                tag,
                "SPL004",
                f"bare {type(tag.value).__name__} tag {tag.value!r}; use a "
                "(family, iteration) tuple with a declared family constant",
            )
        elif isinstance(tag, ast.Tuple):
            if len(tag.elts) != 2:
                yield diag_at(
                    path,
                    tag,
                    "SPL004",
                    f"tag tuple has {len(tag.elts)} elements; the protocol "
                    "uses (family, iteration) pairs",
                )
            elif isinstance(tag.elts[0], ast.Constant):
                first = tag.elts[0]
                assert isinstance(first, ast.Constant)
                yield diag_at(
                    path,
                    first,
                    "SPL004",
                    f"inline tag family {first.value!r}; declare a module-level "
                    "family constant (like VARS) and use it in the tuple",
                )


# --------------------------------------------------------------------------
# SPL005 — mutable-payload aliasing
# --------------------------------------------------------------------------


def _mutates_name(node: ast.AST, name: str) -> bool:
    """Does ``node`` mutate the object bound to ``name`` in place?"""
    if isinstance(node, ast.Assign):
        return any(
            isinstance(t, ast.Subscript)
            and isinstance(t.value, ast.Name)
            and t.value.id == name
            for t in node.targets
        )
    if isinstance(node, ast.AugAssign):
        target = node.target
        return (isinstance(target, ast.Name) and target.id == name) or (
            isinstance(target, ast.Subscript)
            and isinstance(target.value, ast.Name)
            and target.value.id == name
        )
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
        return (
            node.func.attr in ARRAY_MUTATORS
            and isinstance(node.func.value, ast.Name)
            and node.func.value.id == name
        )
    return False


def _nested_defs(func: ast.AST) -> Iterator[ast.FunctionDef | ast.AsyncFunctionDef]:
    """Function definitions nested (at any depth) inside ``func``."""
    for node in ast.walk(func):
        if node is not func and isinstance(
            node, (ast.FunctionDef, ast.AsyncFunctionDef)
        ):
            yield node


def _rebinds_param(func: ast.FunctionDef | ast.AsyncFunctionDef, name: str) -> bool:
    """Is ``name`` one of ``func``'s parameters (shadowing the closure)?"""
    args = func.args
    params = [
        *args.posonlyargs, *args.args, *args.kwonlyargs,
    ]
    if args.vararg is not None:
        params.append(args.vararg)
    if args.kwarg is not None:
        params.append(args.kwarg)
    return any(a.arg == name for a in params)


register_rule(
    "SPL005",
    "mutable-payload-aliasing",
    Severity.WARNING,
    "array sent by reference is mutated later in the same function "
    "(or by a closure defined in it); the receiver may observe the "
    "mutation (send a copy)",
)


def check_spl005(tree: ast.Module, path: str, source: str) -> Iterator[Diagnostic]:
    """Zero-copy simulated sends alias sender memory; late writes race.

    Two mutation channels are checked: statements of the sending
    function *after* the send, and nested functions (closures) that
    capture the payload name — a callback mutating a captured array
    races with the receiver no matter where its ``def`` sits, because
    the call happens later.  Closures whose parameter list rebinds the
    name do not capture it and are exempt.
    """
    for func in iter_functions(tree):
        sends: list[tuple[str, ast.Call]] = []
        for node in walk_own_body(func):
            if not (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr in SEND_METHODS
            ):
                continue
            payload: Optional[ast.expr] = None
            idx = 1 if node.func.attr == "send" else 0
            if len(node.args) > idx:
                payload = node.args[idx]
            else:
                kw = next((k for k in node.keywords if k.arg == "payload"), None)
                payload = kw.value if kw is not None else None
            if isinstance(payload, ast.Name):
                sends.append((payload.id, node))
        if not sends:
            continue
        for name, call in sends:
            flagged = False
            for node in walk_own_body(func):
                line = getattr(node, "lineno", 0)
                if line <= call.lineno:
                    continue
                if _mutates_name(node, name):
                    yield diag_at(
                        path,
                        call,
                        "SPL005",
                        f"payload `{name}` is sent by reference but mutated at "
                        f"line {line}; send `{name}.copy()` (simulated sends "
                        "are zero-copy aliases)",
                    )
                    flagged = True
                    break
            if flagged:
                continue
            for nested in _nested_defs(func):
                if _rebinds_param(nested, name):
                    continue
                hit = next(
                    (n for n in ast.walk(nested) if _mutates_name(n, name)),
                    None,
                )
                if hit is not None:
                    yield diag_at(
                        path,
                        call,
                        "SPL005",
                        f"payload `{name}` is sent by reference and mutated "
                        f"by nested function `{nested.name}` (line "
                        f"{getattr(hit, 'lineno', nested.lineno)}); the "
                        "closure runs after the send, so the receiver can "
                        f"observe the write — send `{name}.copy()`",
                    )
                    break


# --------------------------------------------------------------------------
# SPL006 — broad except swallowing Interrupt / SimulationError
# --------------------------------------------------------------------------


def _caught_names(type_expr: Optional[ast.expr]) -> set[str]:
    if type_expr is None:
        return set()
    exprs = type_expr.elts if isinstance(type_expr, ast.Tuple) else [type_expr]
    names: set[str] = set()
    for expr in exprs:
        tail = receiver_tail(expr)
        if tail is not None:
            names.add(tail)
    return names


def _handler_reraises(handler: ast.ExceptHandler) -> bool:
    return any(isinstance(n, ast.Raise) for n in walk_own_body(handler))


#: Builtins that *stringify* an exception rather than preserving it.
_STRINGIFIERS = frozenset({"type", "str", "repr", "format", "print"})


def _handler_preserves_traceback(handler: ast.ExceptHandler) -> bool:
    bound = handler.name
    for node in walk_own_body(handler):
        if isinstance(node, ast.Attribute):
            if node.attr in TRACEBACK_PRESERVERS or node.attr == "__traceback__":
                return True
        if bound is not None and isinstance(node, ast.Call):
            if isinstance(node.func, ast.Name) and node.func.id in _STRINGIFIERS:
                continue  # str(exc)/type(exc) drop the traceback
            for arg in node.args:
                if isinstance(arg, ast.Name) and arg.id == bound:
                    return True
    return False


register_rule(
    "SPL006",
    "broad-except-swallows-interrupt",
    Severity.ERROR,
    "bare/broad except in (or around) DES process bodies can swallow "
    "Interrupt/SimulationError or drop the original traceback",
)


def check_spl006(tree: ast.Module, path: str, source: str) -> Iterator[Diagnostic]:
    """Swallowed Interrupts deadlock cascades; lost tracebacks hide bugs."""
    for func in iter_functions(tree):
        in_generator = is_generator_function(func)
        for node in walk_own_body(func):
            if not isinstance(node, ast.Try):
                continue
            interrupt_handled = any(
                "Interrupt" in _caught_names(h.type) for h in node.handlers
            )
            for handler in node.handlers:
                if handler.type is None:
                    yield diag_at(
                        path,
                        handler,
                        "SPL006",
                        "bare `except:` swallows Interrupt/SimulationError "
                        "(and KeyboardInterrupt); catch specific exceptions",
                    )
                    continue
                names = _caught_names(handler.type)
                if not names & {"Exception", "BaseException"}:
                    continue
                if _handler_reraises(handler):
                    continue
                if in_generator and not interrupt_handled:
                    yield diag_at(
                        path,
                        handler,
                        "SPL006",
                        "broad except in a DES process body swallows "
                        "Interrupt/SimulationError; catch specific exceptions "
                        "or re-raise",
                    )
                elif not _handler_preserves_traceback(handler):
                    yield diag_at(
                        path,
                        handler,
                        "SPL006",
                        "broad except discards the original traceback; "
                        "re-raise, pass the exception object on, or record "
                        "traceback.format_exc()",
                    )


# --------------------------------------------------------------------------
# SPL007 — sans-I/O purity of the protocol engine
# --------------------------------------------------------------------------

#: Engine-package modules that carry the sans-I/O contract by path.
SANS_IO_BASENAMES = frozenset({"core.py", "events.py", "ring.py"})
#: Marker comment declaring the sans-I/O contract for any other module.
_SANS_IO_MARKER = re.compile(r"#\s*speclint:\s*sans-io\b")
#: Modules a sans-I/O engine module must never import: clocks, RNG
#: state, sockets, processes, threads — everything a transport owns.
IMPURE_MODULES = frozenset(
    {
        "time", "random", "socket", "os", "multiprocessing", "threading",
        "subprocess", "select", "selectors", "signal", "asyncio", "queue",
        "socketserver", "ssl", "fcntl",
    }
)
#: Builtins that perform I/O (or break determinism) without an import.
IMPURE_BUILTINS = frozenset({"open", "input", "print", "breakpoint", "exec", "eval"})


def is_sans_io_module(path: str, source: str) -> bool:
    """Does this module carry the sans-I/O purity contract?

    True for the engine core modules by path (``engine/core.py``,
    ``engine/events.py``, ``engine/ring.py``) and for any module
    declaring ``# speclint: sans-io``.
    """
    posix = PurePosixPath(path.replace("\\", "/"))
    if posix.name in SANS_IO_BASENAMES and "engine" in posix.parts:
        return True
    return _SANS_IO_MARKER.search(source) is not None


def _under_type_checking(node: ast.AST, parents: dict[ast.AST, ast.AST]) -> bool:
    """Is ``node`` inside an ``if TYPE_CHECKING:`` block?"""
    current: Optional[ast.AST] = parents.get(node)
    while current is not None:
        if isinstance(current, ast.If):
            for sub in ast.walk(current.test):
                if isinstance(sub, (ast.Name, ast.Attribute)):
                    if receiver_tail(sub) == "TYPE_CHECKING":
                        return True
        current = parents.get(current)
    return False


register_rule(
    "SPL007",
    "sans-io-purity",
    Severity.ERROR,
    "sans-I/O engine module (engine core/events/ring, or any module "
    "marked `# speclint: sans-io`) imports a clock/RNG/socket/process "
    "module or calls an I/O builtin; all effects must be yielded to a "
    "transport",
)


def check_spl007(tree: ast.Module, path: str, source: str) -> Iterator[Diagnostic]:
    """The engine's whole contract is that transports own every side
    effect; one sneaked-in ``time.time()`` silently forks the DES,
    loopback and pipe behaviours apart."""
    if not is_sans_io_module(path, source):
        return
    parents = build_parent_map(tree)
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                top = alias.name.split(".")[0]
                if top in IMPURE_MODULES and not _under_type_checking(node, parents):
                    yield diag_at(
                        path,
                        node,
                        "SPL007",
                        f"sans-I/O engine module imports `{alias.name}`; "
                        "clocks, RNG, sockets and processes belong to "
                        "transports — express the need as a yielded effect",
                    )
        elif isinstance(node, ast.ImportFrom) and node.level == 0 and node.module:
            top = node.module.split(".")[0]
            if top in IMPURE_MODULES and not _under_type_checking(node, parents):
                names = ", ".join(alias.name for alias in node.names)
                yield diag_at(
                    path,
                    node,
                    "SPL007",
                    f"sans-I/O engine module imports `{names}` from "
                    f"`{node.module}`; clocks, RNG, sockets and processes "
                    "belong to transports — express the need as a yielded "
                    "effect",
                )
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
            if node.func.id in IMPURE_BUILTINS:
                yield diag_at(
                    path,
                    node,
                    "SPL007",
                    f"sans-I/O engine module calls `{node.func.id}(...)`; "
                    "I/O belongs in a transport (yield an effect, or move "
                    "this to the driver)",
                )


# --------------------------------------------------------------------------
# SPL008 — effect-alphabet exhaustiveness in transport dispatch
# --------------------------------------------------------------------------

#: Effects a transport must *act* on (Recv/TryRecv also need a response).
IO_EFFECTS = frozenset({"Send", "Recv", "TryRecv", "Charge"})
#: Pure notification effects; a catch-all branch may forward them.
NOTIFY_EFFECTS = frozenset(
    {
        "Speculated", "ComputeBegin", "Verified", "Corrected",
        "CascadeBegin", "CascadeStep", "CascadeEnd", "IterationDone",
        "WindowChanged", "FaultInjected", "Retransmit", "Degraded",
    }
)
#: The full effect alphabet of :mod:`repro.engine.events` (mirrored
#: here because a lint rule sees one file at a time; the test-suite
#: asserts this stays equal to the real ``Effect`` union).
EFFECT_ALPHABET = IO_EFFECTS | NOTIFY_EFFECTS


def _dispatch_names(test: ast.expr) -> set[str]:
    """Effect class names this branch test dispatches on.

    Recognises ``kind is Send`` / ``type(e) == Send`` comparisons and
    ``isinstance(e, (Send, Recv))`` calls.
    """
    names: set[str] = set()
    for node in ast.walk(test):
        if isinstance(node, ast.Compare):
            if all(isinstance(op, (ast.Is, ast.Eq)) for op in node.ops):
                for expr in [node.left, *node.comparators]:
                    tail = receiver_tail(expr)
                    if tail in EFFECT_ALPHABET:
                        names.add(tail)
        elif isinstance(node, ast.Call):
            func = node.func
            if (
                isinstance(func, ast.Name)
                and func.id == "isinstance"
                and len(node.args) == 2
            ):
                second = node.args[1]
                exprs = second.elts if isinstance(second, ast.Tuple) else [second]
                for expr in exprs:
                    tail = receiver_tail(expr)
                    if tail in EFFECT_ALPHABET:
                        names.add(tail)
    return names


def _effect_chains(
    func: ast.FunctionDef | ast.AsyncFunctionDef,
) -> Iterator[tuple[ast.AST, set[str], bool]]:
    """Yield ``(head_node, dispatched_names, has_default)`` for every
    effect-dispatch chain (if/elif ladder or match statement) in the
    function's own body."""
    ifs = [n for n in walk_own_body(func) if isinstance(n, ast.If)]
    elif_nodes = {
        n.orelse[0]
        for n in ifs
        if len(n.orelse) == 1 and isinstance(n.orelse[0], ast.If)
    }
    for head in ifs:
        if head in elif_nodes:
            continue
        names: set[str] = set()
        node = head
        while True:
            names |= _dispatch_names(node.test)
            if len(node.orelse) == 1 and isinstance(node.orelse[0], ast.If):
                node = node.orelse[0]
            else:
                break
        if names:
            yield head, names, bool(node.orelse)
    for node in walk_own_body(func):
        if not isinstance(node, ast.Match):
            continue
        names = set()
        has_default = False
        for case in node.cases:
            pattern = case.pattern
            if isinstance(pattern, ast.MatchClass):
                tail = receiver_tail(pattern.cls)
                if tail in EFFECT_ALPHABET:
                    names.add(tail)
            elif isinstance(pattern, ast.MatchAs) and pattern.pattern is None:
                has_default = True
        if names:
            yield node, names, has_default


register_rule(
    "SPL008",
    "effect-alphabet-exhaustiveness",
    Severity.ERROR,
    "transport effect-dispatch chain does not cover the whole effect "
    "alphabet (Send/Recv/TryRecv/Charge plus a default branch for "
    "notifications); unhandled effects are silently dropped",
)


def check_spl008(tree: ast.Module, path: str, source: str) -> Iterator[Diagnostic]:
    """An effect the interpreter skips never reaches the medium: a
    dropped ``Charge`` corrupts timing, a dropped ``TryRecv`` hangs a
    rank waiting for a response that never comes."""
    for func in iter_functions(tree):
        for head, names, has_default in _effect_chains(func):
            if "Send" not in names or len(names & IO_EFFECTS) < 2:
                # Every real interpreter routes Send; chains without a
                # Send branch (park-signature inspectors, notification
                # observers) are allowed to be partial.
                continue
            missing_io = sorted(IO_EFFECTS - names)
            if missing_io:
                yield diag_at(
                    path,
                    head,
                    "SPL008",
                    f"effect dispatch in `{func.name}` never handles "
                    f"{', '.join(missing_io)}; every I/O effect the engine "
                    "can yield needs a branch (see repro.engine.events)",
                )
            if not has_default:
                missing_notify = sorted(NOTIFY_EFFECTS - names)
                if missing_notify:
                    yield diag_at(
                        path,
                        head,
                        "SPL008",
                        f"effect dispatch in `{func.name}` has no default "
                        "branch and never handles the notification "
                        f"effect(s) {', '.join(missing_notify)}; add an "
                        "`else`/`case _` forwarding to the observer",
                    )


#: code -> checker, the pack :func:`findings` iterates.
RULE_CHECKERS: dict[str, Callable[[ast.Module, str, str], Iterator[Diagnostic]]] = {
    "SPL001": check_spl001,
    "SPL003": check_spl003,
    "SPL004": check_spl004,
    "SPL005": check_spl005,
    "SPL006": check_spl006,
    "SPL007": check_spl007,
    "SPL008": check_spl008,
}


def findings(index: ProgramIndex) -> Iterator[Diagnostic]:
    """Every SPL finding: the rules are per-module, so the shared parse
    is all they take from the index."""
    for module in index.modules:
        for checker in RULE_CHECKERS.values():
            yield from checker(module.tree, module.path, module.source)
