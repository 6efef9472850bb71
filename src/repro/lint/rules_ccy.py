"""Concurrency (CCY) rules: static races in fork-based worker code.

Process parallelism lives in the wafer fleet (:mod:`repro.fleet`), whose
shard workers are separate processes.  Code that runs in such a worker
is correct only under conventions the type system cannot see: a forked
worker holds a copy-on-write snapshot of the parent, so module-level
mutable state written from a worker diverges silently; objects handed
to a worker payload are frozen at hand-off time, so parent-side
mutation afterwards desyncs the two sides; shared-memory segments leak
OS handles unless a ``close()``/``unlink()`` pair runs at interpreter
exit; and every checkpoint resume and shard merge is only sound while
the config fingerprint covers every data-affecting
:class:`~repro.measure.config.ScanConfig` field.  These rules turn each
convention into a checked invariant:

``CCY001 fork-captured-global-write``
    A function reachable from a worker entry point (``_init_worker``,
    ``_scan_one``, ``_worker_main``, or anything passed as an
    ``initializer=`` / ``target=`` keyword) writes to a module-level
    mutable object or rebinds a module global.  Under ``fork`` that
    write lands in the worker's copy-on-write snapshot — the parent
    never sees it, and repeated scans read stale state.  The sanctioned
    per-process installer pattern annotates ``# lint: allow-worker-state``.

``CCY002 mutation-after-handoff``
    A name is handed to a worker payload (``initargs=`` / ``args=``
    keyword, or a positional argument to ``.run()`` / ``.submit()`` /
    ``.map()`` / ``.apply_async()``) and then mutated later in the same
    function.  The workers captured the object at fork/submit time;
    the parent-side mutation is invisible to them.  Rebinding the name
    is fine — only in-place mutation is flagged.
    (``# lint: allow-handoff-mutation``)

``CCY003 shm-missing-cleanup``
    A module creates a ``SharedMemory(create=True)`` segment but never
    calls ``.unlink()``, or registers no interpreter-exit teardown
    (``atexit.register`` / ``weakref.finalize``).  Leaked segments
    survive the process on POSIX and eventually exhaust ``/dev/shm``.
    (``# lint: allow-shm-lifecycle``)

``CCY004 fingerprint-drift`` (target ``project``)
    The run ledger's :func:`~repro.obs.ledger.config_fingerprint` —
    which also keys checkpoint resume and fleet shard merges — no longer
    covers every data-affecting (``compare=True``) field of
    :class:`~repro.measure.config.ScanConfig`, or carries a stale key.
    A missing field means two materially different configs fingerprint
    identically: resumed checkpoints replay the wrong run.  Checked
    against the live dataclasses, so the two definitions can never
    drift apart silently.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.lint.diagnostics import Diagnostic, Severity
from repro.lint.pylint_rules import (
    _is_test_file,
    _line_has_pragma,
    _subject_triple,
)
from repro.lint.registry import rule

#: Function names treated as worker entry points unconditionally.
WORKER_ENTRY_NAMES = ("_init_worker", "_scan_one", "_worker_main")

#: Keyword arguments whose function-valued operand is a worker entry.
_ENTRY_KEYWORDS = ("initializer", "target")

#: Callable factories whose result is module-level *mutable* state.
_MUTABLE_FACTORIES = frozenset(
    {"list", "dict", "set", "deque", "defaultdict", "OrderedDict",
     "Counter", "bytearray"}
)

#: Literal node types that build mutable containers.
_MUTABLE_LITERALS = (
    ast.List, ast.Dict, ast.Set, ast.ListComp, ast.SetComp, ast.DictComp,
)

#: Method names that mutate their receiver in place.
_MUTATOR_METHODS = frozenset(
    {"append", "extend", "insert", "add", "update", "setdefault", "pop",
     "popitem", "remove", "discard", "clear", "appendleft", "extendleft",
     "sort", "reverse"}
)

#: Method names that hand their positional arguments to workers.
_HANDOFF_METHODS = frozenset(
    {"run", "submit", "map", "starmap", "imap", "imap_unordered",
     "apply_async", "map_async"}
)

#: Keyword arguments whose tuple/list operand is a worker payload.
_HANDOFF_KEYWORDS = ("initargs", "args")


def _root_name(node: ast.AST) -> str | None:
    """The base ``Name`` of an attribute/subscript chain, if any."""
    while isinstance(node, (ast.Attribute, ast.Subscript)):
        node = node.value
    if isinstance(node, ast.Name):
        return node.id
    return None


def _module_mutable_globals(tree: ast.Module) -> dict[str, int]:
    """Module-level names bound to mutable containers -> def lineno."""
    found: dict[str, int] = {}
    for stmt in tree.body:
        targets: list[ast.expr] = []
        value: ast.expr | None = None
        if isinstance(stmt, ast.Assign):
            targets, value = stmt.targets, stmt.value
        elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
            targets, value = [stmt.target], stmt.value
        if value is None:
            continue
        mutable = isinstance(value, _MUTABLE_LITERALS) or (
            isinstance(value, ast.Call)
            and (
                (isinstance(value.func, ast.Name)
                 and value.func.id in _MUTABLE_FACTORIES)
                or (isinstance(value.func, ast.Attribute)
                    and value.func.attr in _MUTABLE_FACTORIES)
            )
        )
        if not mutable:
            continue
        for target in targets:
            if isinstance(target, ast.Name):
                found[target.id] = stmt.lineno
    return found


def _module_global_names(tree: ast.Module) -> set[str]:
    """Every name bound at module level (mutable or not)."""
    names: set[str] = set()
    for stmt in tree.body:
        if isinstance(stmt, ast.Assign):
            names.update(
                t.id for t in stmt.targets if isinstance(t, ast.Name)
            )
        elif isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
            names.add(stmt.target.id)
    return names


def _module_functions(tree: ast.Module) -> dict[str, ast.FunctionDef]:
    return {
        stmt.name: stmt
        for stmt in tree.body
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef))
    }


def _worker_entries(
    tree: ast.Module, functions: dict[str, ast.FunctionDef]
) -> dict[str, str]:
    """Worker entry functions -> reason they count as entries."""
    entries: dict[str, str] = {}
    for name in WORKER_ENTRY_NAMES:
        if name in functions:
            entries[name] = f"named {name}"
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        for kw in node.keywords:
            if kw.arg in _ENTRY_KEYWORDS and isinstance(kw.value, ast.Name):
                if kw.value.id in functions:
                    entries.setdefault(kw.value.id, f"passed as {kw.arg}=")
    return entries


def _reachable_from(
    entries: dict[str, str], functions: dict[str, ast.FunctionDef]
) -> dict[str, str]:
    """Transitive callees of the entry set -> originating entry."""
    origin = dict(entries)
    frontier = list(entries)
    while frontier:
        caller = frontier.pop()
        for node in ast.walk(functions[caller]):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id in functions
                and node.func.id not in origin
            ):
                origin[node.func.id] = origin[caller]
                frontier.append(node.func.id)
    return origin


def _local_names(func: ast.FunctionDef) -> set[str]:
    """Parameter names plus plain-Name assignment targets (locals)."""
    args = func.args
    names = {
        a.arg
        for a in (
            *args.posonlyargs, *args.args, *args.kwonlyargs,
            *((args.vararg,) if args.vararg else ()),
            *((args.kwarg,) if args.kwarg else ()),
        )
    }
    for node in ast.walk(func):
        if isinstance(node, ast.Assign):
            names.update(
                t.id for t in node.targets if isinstance(t, ast.Name)
            )
        elif isinstance(node, (ast.AnnAssign, ast.AugAssign)):
            if isinstance(node.target, ast.Name):
                names.add(node.target.id)
    return names


def _global_decls(func: ast.FunctionDef) -> set[str]:
    names: set[str] = set()
    for node in ast.walk(func):
        if isinstance(node, ast.Global):
            names.update(node.names)
    return names


def _iter_mutations(func: ast.FunctionDef) -> Iterator[tuple[str, int, str]]:
    """Yield ``(root_name, lineno, kind)`` for in-place writes in ``func``.

    ``kind`` is ``"subscript"`` / ``"augassign"`` / ``"method"``; plain
    rebinding of a local name is not a mutation and is never yielded.
    """
    for node in ast.walk(func):
        if isinstance(node, ast.Assign):
            for target in node.targets:
                if isinstance(target, (ast.Subscript, ast.Attribute)):
                    name = _root_name(target)
                    if name is not None:
                        yield name, node.lineno, "subscript"
        elif isinstance(node, ast.AugAssign):
            if isinstance(node.target, (ast.Subscript, ast.Attribute)):
                name = _root_name(node.target)
                if name is not None:
                    yield name, node.lineno, "augassign"
        elif (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr in _MUTATOR_METHODS
        ):
            name = _root_name(node.func.value)
            if name is not None:
                yield name, node.lineno, "method"


@rule(
    "CCY001",
    "fork-captured-global-write",
    target="source",
    summary="worker-reachable write to a fork-captured module global",
)
def check_fork_captured_global_write(
    subject: object, context: dict[str, object]
) -> Iterator[Diagnostic]:
    """Flag writes to module globals reachable from worker entry points.

    Forked workers see a copy-on-write snapshot: a write to module-level
    mutable state inside a worker never reaches the parent (or the other
    workers), so code that *appears* to share state through a module
    global silently diverges per process.
    """
    tree, path, lines = _subject_triple(subject, context)
    if _is_test_file(path):
        return
    functions = _module_functions(tree)
    entries = _worker_entries(tree, functions)
    if not entries:
        return
    mutable = _module_mutable_globals(tree)
    module_names = _module_global_names(tree)
    origin = _reachable_from(entries, functions)
    for fname, entry in origin.items():
        func = functions[fname]
        locals_ = _local_names(func) - _global_decls(func)
        globals_ = _global_decls(func)
        for name, lineno, _kind in _iter_mutations(func):
            if name not in mutable or name in locals_:
                continue
            if _line_has_pragma(lines, lineno, "lint: allow-worker-state"):
                continue
            yield check_fork_captured_global_write.diagnostic(
                f"{fname}() writes to fork-captured module global {name!r} "
                f"(reachable from worker entry: {entry}); the parent never "
                "sees worker-side writes under fork",
                subject=str(path),
                nodes=(name,),
                location=f"{path}:{lineno}",
            )
        for node in ast.walk(func):
            if not isinstance(node, (ast.Assign, ast.AugAssign)):
                continue
            targets = (
                node.targets if isinstance(node, ast.Assign) else [node.target]
            )
            for target in targets:
                if (
                    isinstance(target, ast.Name)
                    and target.id in globals_
                    and target.id in module_names
                    and not _line_has_pragma(
                        lines, node.lineno, "lint: allow-worker-state"
                    )
                ):
                    yield check_fork_captured_global_write.diagnostic(
                        f"{fname}() rebinds module global {target.id!r} via "
                        f"`global` (reachable from worker entry: {entry}); "
                        "the rebinding stays inside the forked worker",
                        subject=str(path),
                        nodes=(target.id,),
                        location=f"{path}:{node.lineno}",
                    )


def _handoff_events(func: ast.FunctionDef) -> dict[str, int]:
    """Names handed to a worker payload -> earliest handoff lineno."""
    events: dict[str, int] = {}

    def _note(name: str, lineno: int) -> None:
        if name not in events or lineno < events[name]:
            events[name] = lineno

    for node in ast.walk(func):
        if not isinstance(node, ast.Call):
            continue
        for kw in node.keywords:
            if kw.arg in _HANDOFF_KEYWORDS and isinstance(
                kw.value, (ast.Tuple, ast.List)
            ):
                for element in kw.value.elts:
                    if isinstance(element, ast.Name):
                        _note(element.id, node.lineno)
        if (
            isinstance(node.func, ast.Attribute)
            and node.func.attr in _HANDOFF_METHODS
        ):
            for arg in node.args:
                if isinstance(arg, ast.Name):
                    _note(arg.id, node.lineno)
    return events


@rule(
    "CCY002",
    "mutation-after-handoff",
    target="source",
    summary="object mutated after being handed to a worker payload",
)
def check_mutation_after_handoff(
    subject: object, context: dict[str, object]
) -> Iterator[Diagnostic]:
    """Flag in-place mutation of objects already handed to workers.

    ``initargs=`` captures at fork, task lists capture at submit; a
    later parent-side ``.append()`` or item assignment changes an object
    the workers will never re-read.
    """
    tree, path, lines = _subject_triple(subject, context)
    if _is_test_file(path):
        return
    for func in ast.walk(tree):
        if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        events = _handoff_events(func)
        if not events:
            continue
        for name, lineno, kind in _iter_mutations(func):
            handed = events.get(name)
            if handed is None or lineno <= handed:
                continue
            if _line_has_pragma(lines, lineno, "lint: allow-handoff-mutation"):
                continue
            verb = {
                "subscript": "item/attribute assignment",
                "augassign": "augmented assignment",
                "method": "mutating method call",
            }[kind]
            yield check_mutation_after_handoff.diagnostic(
                f"{name!r} was handed to a worker payload at line {handed} "
                f"and mutated afterwards ({verb}); workers captured it at "
                "fork/submit time and will not see the change",
                subject=str(path),
                nodes=(name,),
                location=f"{path}:{lineno}",
            )


@rule(
    "CCY003",
    "shm-missing-cleanup",
    target="source",
    summary="SharedMemory segment created without unlink/atexit teardown",
)
def check_shm_missing_cleanup(
    subject: object, context: dict[str, object]
) -> Iterator[Diagnostic]:
    """Flag shared-memory creation without a full teardown story.

    A ``SharedMemory(create=True)`` segment outlives the process unless
    ``.unlink()`` runs; and because scans cache segments for reuse, the
    unlink must be wired to interpreter exit (``atexit.register`` or
    ``weakref.finalize``), not just the happy path.
    """
    tree, path, lines = _subject_triple(subject, context)
    if _is_test_file(path):
        return
    creates: list[int] = []
    has_unlink = False
    has_exit_hook = False
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            func = node.func
            callee = (
                func.id if isinstance(func, ast.Name)
                else func.attr if isinstance(func, ast.Attribute)
                else None
            )
            if callee == "SharedMemory" and any(
                kw.arg == "create"
                and isinstance(kw.value, ast.Constant)
                and kw.value.value is True
                for kw in node.keywords
            ):
                creates.append(node.lineno)
            elif isinstance(func, ast.Attribute):
                if func.attr == "unlink":
                    has_unlink = True
                elif (
                    func.attr == "register"
                    and isinstance(func.value, ast.Name)
                    and func.value.id == "atexit"
                ) or (
                    func.attr == "finalize"
                    and isinstance(func.value, ast.Name)
                    and func.value.id == "weakref"
                ):
                    has_exit_hook = True
    creates = [
        lineno for lineno in creates
        if not _line_has_pragma(lines, lineno, "lint: allow-shm-lifecycle")
    ]
    if not creates:
        return
    if not has_unlink:
        yield check_shm_missing_cleanup.diagnostic(
            "SharedMemory(create=True) segment is never unlink()ed in this "
            "module; POSIX segments outlive the process and leak /dev/shm",
            subject=str(path),
            location=f"{path}:{creates[0]}",
        )
    if not has_exit_hook:
        yield check_shm_missing_cleanup.diagnostic(
            "SharedMemory(create=True) without an interpreter-exit teardown "
            "(atexit.register or weakref.finalize); a crashed or interrupted "
            "run leaks the segment",
            subject=str(path),
            location=f"{path}:{creates[0]}",
        )


@rule(
    "CCY004",
    "fingerprint-drift",
    target="project",
    summary="config_fingerprint no longer covers ScanConfig's data fields",
)
def check_fingerprint_drift(
    subject: object, context: dict[str, object]
) -> Iterator[Diagnostic]:
    """Cross-check the ledger fingerprint against ScanConfig's fields.

    The fingerprint keys run-ledger provenance, checkpoint resume and
    fleet shard merges, so a ``compare=True`` field missing from it
    makes materially different runs indistinguishable.  ``context`` may
    override ``data_fields`` / ``fingerprint_keys`` / ``pinned_fields``
    (tests); by default the live dataclass and ledger are introspected.

    On top of the set-consistency checks, a **pinned** field list
    (default: ``technology``) must be present in both sets.  The
    consistency checks alone cannot catch a field being flipped to
    ``compare=False`` and dropped from the fingerprint *together* —
    for pinned fields that coordinated drift is an error too, because
    the backend choice changes the physics of every recorded run.
    """
    data_fields = context.get("data_fields")
    fingerprint_keys = context.get("fingerprint_keys")
    if data_fields is None or fingerprint_keys is None:
        from dataclasses import fields as dataclass_fields

        from repro.measure.config import ScanConfig
        from repro.obs.ledger import config_fingerprint

        data_fields = [f.name for f in dataclass_fields(ScanConfig) if f.compare]
        fingerprint_keys = set(config_fingerprint(ScanConfig()))
    data = set(data_fields)  # type: ignore[arg-type]
    prints = set(fingerprint_keys)  # type: ignore[arg-type]
    for name in sorted(data - prints):
        yield check_fingerprint_drift.diagnostic(
            f"data-affecting ScanConfig field {name!r} is missing from "
            "config_fingerprint(); two different runs would fingerprint "
            "identically (ledger provenance and resume keys both lie)",
            subject="ScanConfig vs config_fingerprint",
            nodes=(name,),
        )
    for name in sorted(prints - data):
        yield check_fingerprint_drift.diagnostic(
            f"config_fingerprint() carries {name!r} which is not a "
            "data-affecting (compare=True) ScanConfig field; stale key",
            subject="ScanConfig vs config_fingerprint",
            nodes=(name,),
            severity=Severity.WARNING,
        )
    pinned = context.get("pinned_fields", ("technology",))
    for name in pinned:  # type: ignore[union-attr]
        missing = [
            set_name
            for set_name, keys in (
                ("ScanConfig data fields", data),
                ("config_fingerprint()", prints),
            )
            if name not in keys
        ]
        if missing:
            yield check_fingerprint_drift.diagnostic(
                f"pinned field {name!r} must appear in the data-field "
                "and fingerprint key sets but is missing from "
                f"{', '.join(missing)}; the technology choice selects the "
                "cell physics, so dropping it anywhere makes runs against "
                "different memories indistinguishable",
                subject="pinned fingerprint fields",
                nodes=(name,),
            )
