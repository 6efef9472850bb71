"""Determinism (DET) rules: nondeterminism that can reach measurement data.

The project's reproducibility contract is bit-exactness: kernel,
per-macro, resumed and sharded runs of the same array must produce
identical planes, and the run ledger's drift gate assumes two runs with equal
config fingerprints are replays.  Four bug classes silently break that
contract; each gets a rule:

``DET001 wallclock-in-measurement-path``
    ``time.time()`` / ``time.time_ns()`` / ``datetime.now()`` /
    ``datetime.utcnow()`` / ``date.today()`` called inside a measurement
    module.  Wall-clock values differ per run; any one feeding a result
    makes replays diverge.  ``perf_counter`` / ``process_time`` /
    ``monotonic`` are fine — they time runs, they never *are* data.
    Only files under measurement path parts (``measure``, ``circuit``,
    ``edram``, ``kernel``, ``calibration``, ``bitmap``, ``diagnosis``,
    ``wafer``) are checked.  (``# lint: allow-wallclock``)

``DET002 unseeded-rng``
    ``np.random.default_rng()`` / ``np.random.RandomState()`` with no
    seed, any legacy global-state ``np.random.<fn>(...)`` draw, or a
    ``random.<fn>(...)`` module-level draw.  The project idiom is an
    explicitly seeded ``np.random.default_rng(seed)`` Generator —
    anything else produces different values per process and per run,
    and fork-inherited global RNG state is *shared* across workers.
    (``# lint: allow-unseeded-rng``)

``DET003 unordered-reduction``
    A numeric reduction over a ``set`` / ``frozenset`` — ``sum()`` /
    ``math.fsum()`` / ``np.sum()`` over a set expression, or a ``for``
    loop over one accumulating via augmented assignment.  Set iteration
    order depends on insertion history and hash randomization; float
    addition is not associative, so the reduced value changes run to
    run.  Sort first (``sorted(...)``) or reduce over an ordered
    container.  (``# lint: allow-unordered-reduction``)

``DET004 completion-order-accumulation``
    A float accumulation (augmented assignment with a non-integer
    operand) inside a completion-order callback — a function or lambda
    passed as ``on_result=``, or the body of a ``for`` loop over
    ``as_completed(...)`` / ``.imap_unordered(...)``.  Tasks complete in
    scheduler order; accumulating floats in that order makes the total
    depend on pool timing.  Collect then sort (the scan engine's
    ``timings.sort()`` idiom), or accumulate integers (associative).
    (``# lint: allow-order-dependent``)
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.lint.diagnostics import Diagnostic
from repro.lint.pylint_rules import (
    _is_test_file,
    _line_has_pragma,
    _subject_triple,
)
from repro.lint.registry import rule

#: Path parts marking a module as part of the measurement data path.
MEASUREMENT_PATH_PARTS = frozenset(
    {"measure", "circuit", "edram", "kernel", "calibration", "bitmap",
     "diagnosis", "wafer"}
)

#: ``module.attr`` call chains that read the wall clock.
_WALLCLOCK_CALLS = {
    ("time", "time"),
    ("time", "time_ns"),
    ("datetime", "now"),
    ("datetime", "utcnow"),
    ("date", "today"),
}

#: Legacy numpy global-state draw functions (``np.random.<fn>``).
_NP_GLOBAL_DRAWS = frozenset(
    {"rand", "randn", "randint", "random", "random_sample", "normal",
     "uniform", "choice", "shuffle", "permutation", "poisson", "binomial",
     "standard_normal", "exponential", "seed"}
)

#: stdlib ``random.<fn>`` module-level draw functions.
_STDLIB_DRAWS = frozenset(
    {"random", "randint", "randrange", "uniform", "choice", "choices",
     "shuffle", "sample", "gauss", "normalvariate", "betavariate",
     "expovariate", "seed"}
)

#: Reduction callables whose set-typed operand is order-dependent.
_REDUCERS = frozenset({"sum", "fsum"})


def _in_measurement_path(path) -> bool:
    parts = set(path.parts) | {path.stem}
    return bool(parts & MEASUREMENT_PATH_PARTS)


def _attr_chain(node: ast.AST) -> tuple[str, ...]:
    """``a.b.c`` -> ("a", "b", "c"); empty tuple if not a pure chain."""
    names: list[str] = []
    while isinstance(node, ast.Attribute):
        names.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        names.append(node.id)
        return tuple(reversed(names))
    return ()


@rule(
    "DET001",
    "wallclock-in-measurement-path",
    target="source",
    summary="wall-clock read inside a measurement module",
)
def check_wallclock_in_measurement_path(
    subject: object, context: dict[str, object]
) -> Iterator[Diagnostic]:
    """Flag wall-clock calls in modules on the measurement data path."""
    tree, path, lines = _subject_triple(subject, context)
    if _is_test_file(path) or not _in_measurement_path(path):
        return
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        chain = _attr_chain(node.func)
        if len(chain) < 2 or chain[-2:] not in {
            (mod, fn) for mod, fn in _WALLCLOCK_CALLS
        }:
            continue
        if _line_has_pragma(lines, node.lineno, "lint: allow-wallclock"):
            continue
        yield check_wallclock_in_measurement_path.diagnostic(
            f"{'.'.join(chain)}() reads the wall clock in a measurement "
            "module; replays diverge if it feeds a result (time runs with "
            "perf_counter/process_time instead)",
            subject=str(path),
            location=f"{path}:{node.lineno}",
        )


def _is_unseeded_rng_call(node: ast.Call) -> str | None:
    """A human name for the offending call, or None when compliant."""
    chain = _attr_chain(node.func)
    if not chain:
        return None
    dotted = ".".join(chain)
    # np.random.default_rng() / RandomState() with no (or None) seed.
    if len(chain) >= 2 and chain[-2] == "random" and chain[-1] in (
        "default_rng", "RandomState", "Generator",
    ):
        if chain[-1] == "Generator":
            return None  # Generator(bit_gen) wraps an explicit bit generator
        seeded = bool(node.args) and not (
            isinstance(node.args[0], ast.Constant) and node.args[0].value is None
        )
        seeded = seeded or any(kw.arg == "seed" for kw in node.keywords)
        return None if seeded else f"{dotted}()"
    # Legacy numpy global draws: np.random.rand(...), numpy.random.seed(...)
    if (
        len(chain) >= 3
        and chain[-2] == "random"
        and chain[0] in ("np", "numpy")
        and chain[-1] in _NP_GLOBAL_DRAWS
    ):
        return f"{dotted}(...)"
    # stdlib module-level draws: random.random(), random.shuffle(...)
    if len(chain) == 2 and chain[0] == "random" and chain[1] in _STDLIB_DRAWS:
        return f"{dotted}(...)"
    return None


@rule(
    "DET002",
    "unseeded-rng",
    target="source",
    summary="RNG use without an explicitly seeded Generator",
)
def check_unseeded_rng(
    subject: object, context: dict[str, object]
) -> Iterator[Diagnostic]:
    """Flag unseeded or global-state randomness in library code."""
    tree, path, lines = _subject_triple(subject, context)
    if _is_test_file(path):
        return
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        offender = _is_unseeded_rng_call(node)
        if offender is None:
            continue
        if _line_has_pragma(lines, node.lineno, "lint: allow-unseeded-rng"):
            continue
        yield check_unseeded_rng.diagnostic(
            f"{offender} draws from an unseeded or process-global RNG; use "
            "an explicitly seeded np.random.default_rng(seed) Generator so "
            "runs (and forked workers) replay bit-exact",
            subject=str(path),
            location=f"{path}:{node.lineno}",
        )


def _is_set_expr(node: ast.expr) -> bool:
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if isinstance(node, ast.Call):
        callee = node.func
        name = (
            callee.id if isinstance(callee, ast.Name)
            else callee.attr if isinstance(callee, ast.Attribute)
            else None
        )
        return name in ("set", "frozenset")
    return False


@rule(
    "DET003",
    "unordered-reduction",
    target="source",
    summary="numeric reduction over unordered set iteration",
)
def check_unordered_reduction(
    subject: object, context: dict[str, object]
) -> Iterator[Diagnostic]:
    """Flag float reductions whose operand order is set-iteration order."""
    tree, path, lines = _subject_triple(subject, context)
    if _is_test_file(path):
        return
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            callee = node.func
            name = (
                callee.id if isinstance(callee, ast.Name)
                else callee.attr if isinstance(callee, ast.Attribute)
                else None
            )
            if (
                name in _REDUCERS
                and node.args
                and _is_set_expr(node.args[0])
                and not _line_has_pragma(
                    lines, node.lineno, "lint: allow-unordered-reduction"
                )
            ):
                yield check_unordered_reduction.diagnostic(
                    f"{name}() over a set expression reduces in hash order; "
                    "float addition is not associative — sort first "
                    "(sum(sorted(...)))",
                    subject=str(path),
                    location=f"{path}:{node.lineno}",
                )
        elif isinstance(node, ast.For) and _is_set_expr(node.iter):
            accumulates = any(
                isinstance(child, ast.AugAssign)
                for stmt in node.body
                for child in ast.walk(stmt)
            )
            if accumulates and not _line_has_pragma(
                lines, node.lineno, "lint: allow-unordered-reduction"
            ):
                yield check_unordered_reduction.diagnostic(
                    "for-loop over a set accumulates via augmented "
                    "assignment; iteration order is unordered — iterate "
                    "sorted(...) instead",
                    subject=str(path),
                    location=f"{path}:{node.lineno}",
                )


def _is_integer_step(value: ast.expr) -> bool:
    """True when the accumulated operand is an integer literal (associative)."""
    if isinstance(value, ast.Constant):
        return isinstance(value.value, int) and not isinstance(value.value, bool)
    if isinstance(value, ast.UnaryOp) and isinstance(value.operand, ast.Constant):
        return isinstance(value.operand.value, int)
    return False


def _float_accumulations(body: list[ast.stmt] | ast.AST) -> Iterator[ast.AugAssign]:
    nodes = body if isinstance(body, list) else [body]
    for stmt in nodes:
        for node in ast.walk(stmt):
            if (
                isinstance(node, ast.AugAssign)
                and isinstance(node.op, (ast.Add, ast.Sub))
                and not _is_integer_step(node.value)
            ):
                yield node


def _is_unordered_completion_iter(node: ast.expr) -> bool:
    if not isinstance(node, ast.Call):
        return False
    callee = node.func
    name = (
        callee.id if isinstance(callee, ast.Name)
        else callee.attr if isinstance(callee, ast.Attribute)
        else None
    )
    return name in ("as_completed", "imap_unordered")


@rule(
    "DET004",
    "completion-order-accumulation",
    target="source",
    summary="float accumulation ordered by task completion order",
)
def check_completion_order_accumulation(
    subject: object, context: dict[str, object]
) -> Iterator[Diagnostic]:
    """Flag float ``+=`` inside completion-order callbacks and loops.

    Covers functions passed as ``on_result=`` (a completion hook) and
    loop bodies over ``as_completed(...)`` /
    ``.imap_unordered(...)``.  Integer counters are associative and
    stay legal; collect-then-sort is the deterministic alternative.
    """
    tree, path, lines = _subject_triple(subject, context)
    if _is_test_file(path):
        return
    functions = {
        node.name: node
        for node in ast.walk(tree)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
    }
    callback_bodies: list[tuple[str, ast.AST]] = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            for kw in node.keywords:
                if kw.arg != "on_result":
                    continue
                if isinstance(kw.value, ast.Lambda):
                    callback_bodies.append(("on_result lambda", kw.value.body))
                elif isinstance(kw.value, ast.Name) and kw.value.id in functions:
                    callback_bodies.append(
                        (f"on_result callback {kw.value.id}()",
                         functions[kw.value.id]),
                    )
        elif isinstance(node, ast.For) and _is_unordered_completion_iter(node.iter):
            callback_bodies.append(("loop over unordered completions", node))
    seen: set[int] = set()
    for label, body in callback_bodies:
        for aug in _float_accumulations(
            body.body if isinstance(body, (ast.FunctionDef, ast.AsyncFunctionDef, ast.For)) else body
        ):
            if aug.lineno in seen:
                continue
            seen.add(aug.lineno)
            if _line_has_pragma(lines, aug.lineno, "lint: allow-order-dependent"):
                continue
            yield check_completion_order_accumulation.diagnostic(
                f"float accumulation inside {label} runs in task completion "
                "order; the total depends on pool timing — collect results "
                "and reduce in index order instead",
                subject=str(path),
                location=f"{path}:{aug.lineno}",
            )
