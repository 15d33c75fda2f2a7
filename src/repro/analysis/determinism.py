"""Determinism lint: the static half of the bit-for-bit score contract.

The sharded scheduler, the simulation backends and the parametric caches
all promise that scores are pure functions of ``(population, config,
seed)`` — independent of worker count, scheduling order and wall clock.  A single unseeded ``np.random`` call or a time-based branch erodes
that silently until a flaky 1e-9 diff appears in the equivalence suite.
This checker flags the sources of that erosion at lint time:

``det-global-rng``
    Draws from process-global entropy: ``numpy.random`` *module* functions
    (the shared legacy global stream), stdlib ``random.*``, ``os.urandom``,
    ``secrets.*``, ``uuid.uuid1/uuid4``.  Seeded ``Generator`` objects
    threaded through call chains (``repro.utils.rng``) are the sanctioned
    alternative.

``det-unpinned-rng``
    ``numpy.random.default_rng()`` / ``random.Random()`` called with no
    seed — a fresh OS-entropy stream per call.

``det-wall-clock``
    ``time.time()``, ``time.time_ns()``, ``datetime.now()`` and friends.
    Wall clock may feed *stats*; anything else is nondeterminism.  Intended
    uses carry ``# repro: ignore[det-wall-clock] -- <why>``.

``det-monotonic-flow``
    A monotonic-clock read (``time.perf_counter``/``time.monotonic``/...)
    whose value flows anywhere except a plain local-variable assignment
    (``start = time.perf_counter()``).  Timing deltas accumulated into
    stats counters are the intended use — each such sink is annotated with
    a suppression so the audit trail lives next to the code.

``det-unordered-iter``
    Ordering-sensitive consumption of a set: iterating a ``set()`` /
    ``frozenset()`` call or a set literal in a ``for`` loop, a
    comprehension, or a ``list()``/``tuple()``/``enumerate()`` capture.
    Set iteration order varies across processes (string hashing is salted),
    so anything it feeds — shard assignment, cache keys, export payloads —
    diverges between the parent and its workers.  Wrap in ``sorted(...)``
    or iterate the originating ordered container instead.
"""

from __future__ import annotations

import ast
from typing import List, Optional

from .findings import Finding, Rule, Severity
from .project import ModuleInfo, Project, dotted_name
from .registry import Checker, register_checker

__all__ = ["DeterminismChecker"]

GLOBAL_RNG = Rule(
    "det-global-rng",
    Severity.ERROR,
    "call draws from process-global entropy (numpy.random module functions, "
    "stdlib random, os.urandom, secrets, uuid1/uuid4)",
)
UNPINNED_RNG = Rule(
    "det-unpinned-rng",
    Severity.ERROR,
    "default_rng()/Random() constructed without a seed",
)
WALL_CLOCK = Rule(
    "det-wall-clock",
    Severity.ERROR,
    "wall-clock read (time.time/datetime.now) — results must not depend on "
    "when they were computed",
)
MONOTONIC_FLOW = Rule(
    "det-monotonic-flow",
    Severity.WARNING,
    "monotonic-clock value flows beyond a plain local timestamp assignment",
)
UNORDERED_ITER = Rule(
    "det-unordered-iter",
    Severity.WARNING,
    "ordering-sensitive consumption of an unordered set",
)

#: numpy.random attributes that are deterministic constructors, not draws
#: from the legacy global stream
_NUMPY_RANDOM_OK = {
    "default_rng",
    "Generator",
    "SeedSequence",
    "RandomState",
    "BitGenerator",
    "PCG64",
    "PCG64DXSM",
    "MT19937",
    "Philox",
    "SFC64",
}

_WALL_CLOCK_FNS = {
    "time.time",
    "time.time_ns",
    "datetime.datetime.now",
    "datetime.datetime.utcnow",
    "datetime.datetime.today",
    "datetime.date.today",
}

_MONOTONIC_FNS = {
    "time.perf_counter",
    "time.perf_counter_ns",
    "time.monotonic",
    "time.monotonic_ns",
    "time.process_time",
    "time.process_time_ns",
}

#: callables whose consumption of a set is ordering-sensitive
_ORDER_CAPTURING = {"list", "tuple", "enumerate", "iter", "next"}


def _enclosing_statement(node: ast.AST) -> Optional[ast.stmt]:
    while node is not None and not isinstance(node, ast.stmt):
        node = getattr(node, "_repro_parent", None)
    return node


def _is_set_expression(node: ast.expr, module: ModuleInfo) -> bool:
    if isinstance(node, ast.Set):
        return True
    if isinstance(node, ast.SetComp):
        return True
    if isinstance(node, ast.Call):
        path = dotted_name(node.func)
        if path is not None and module.resolve(path) in ("set", "frozenset"):
            return True
    return False


@register_checker
class DeterminismChecker(Checker):
    """AST lint for global RNG, wall clock and unordered iteration."""

    name = "determinism"
    rules = (GLOBAL_RNG, UNPINNED_RNG, WALL_CLOCK, MONOTONIC_FLOW, UNORDERED_ITER)

    def check_module(self, module: ModuleInfo, project: Project) -> List[Finding]:
        findings: List[Finding] = []
        path = module.display_path
        for node in ast.walk(module.tree):
            if isinstance(node, ast.Call):
                findings.extend(self._check_call(node, module, path))
            elif isinstance(node, (ast.For, ast.AsyncFor)):
                if _is_set_expression(node.iter, module):
                    findings.append(self._unordered(node.iter, path, "for loop"))
            elif isinstance(
                node, (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)
            ):
                for generator in node.generators:
                    if _is_set_expression(generator.iter, module):
                        findings.append(
                            self._unordered(generator.iter, path, "comprehension")
                        )
        return findings

    # -- calls ----------------------------------------------------------------

    def _check_call(
        self, node: ast.Call, module: ModuleInfo, path: str
    ) -> List[Finding]:
        local = dotted_name(node.func)
        if local is None:
            return []
        resolved = module.resolve(local)
        findings: List[Finding] = []

        if resolved.startswith("numpy.random."):
            tail = resolved[len("numpy.random."):]
            if tail == "default_rng":
                if not node.args and not node.keywords:
                    findings.append(
                        UNPINNED_RNG.finding(
                            path,
                            node.lineno,
                            "numpy.random.default_rng() has no seed",
                            hint="pass a pinned seed (e.g. utils.rng."
                            "stable_seed(key)) or accept an rng argument",
                            col=node.col_offset,
                        )
                    )
            elif "." not in tail and tail not in _NUMPY_RANDOM_OK:
                findings.append(
                    GLOBAL_RNG.finding(
                        path,
                        node.lineno,
                        f"numpy.random.{tail} draws from the shared legacy "
                        "global stream",
                        hint="thread a seeded np.random.Generator through "
                        "(see repro.utils.rng)",
                        col=node.col_offset,
                    )
                )
        elif resolved.startswith("random."):
            tail = resolved[len("random."):]
            if tail == "Random":
                if not node.args and not node.keywords:
                    findings.append(
                        UNPINNED_RNG.finding(
                            path,
                            node.lineno,
                            "random.Random() has no seed",
                            hint="pass an explicit seed",
                            col=node.col_offset,
                        )
                    )
            elif "." not in tail:
                findings.append(
                    GLOBAL_RNG.finding(
                        path,
                        node.lineno,
                        f"random.{tail} uses the process-global stdlib stream",
                        hint="use a seeded np.random.Generator instead",
                        col=node.col_offset,
                    )
                )
        elif resolved == "os.urandom" or resolved.startswith("secrets."):
            findings.append(
                GLOBAL_RNG.finding(
                    path,
                    node.lineno,
                    f"{resolved} reads OS entropy — unreproducible by design",
                    hint="derive bytes from utils.rng.stable_seed instead",
                    col=node.col_offset,
                )
            )
        elif resolved in ("uuid.uuid1", "uuid.uuid4"):
            findings.append(
                GLOBAL_RNG.finding(
                    path,
                    node.lineno,
                    f"{resolved} generates entropy-/host-dependent ids",
                    hint="build stable ids from content hashes "
                    "(utils.rng.stable_seed)",
                    col=node.col_offset,
                )
            )
        elif resolved in _WALL_CLOCK_FNS:
            findings.append(
                WALL_CLOCK.finding(
                    path,
                    node.lineno,
                    f"{resolved}() reads the wall clock",
                    hint="wall clock may feed stats only; suppress with "
                    "# repro: ignore[det-wall-clock] -- <why> if intended",
                    col=node.col_offset,
                )
            )
        elif resolved in _MONOTONIC_FNS:
            statement = _enclosing_statement(node)
            if not (
                isinstance(statement, ast.Assign)
                and all(isinstance(t, ast.Name) for t in statement.targets)
            ):
                findings.append(
                    MONOTONIC_FLOW.finding(
                        path,
                        node.lineno,
                        f"{resolved}() value flows beyond a local timestamp "
                        "assignment",
                        hint="keep timing in stats/bookkeeping sinks and "
                        "annotate them with # repro: "
                        "ignore[det-monotonic-flow] -- <sink>",
                        col=node.col_offset,
                    )
                )
        elif resolved in _ORDER_CAPTURING and node.args:
            if _is_set_expression(node.args[0], module):
                findings.append(
                    self._unordered(node.args[0], path, f"{resolved}() capture")
                )
        return findings

    def _unordered(self, node: ast.expr, path: str, context: str) -> Finding:
        return UNORDERED_ITER.finding(
            path,
            node.lineno,
            f"set iterated in a {context} — iteration order varies across "
            "processes",
            hint="wrap in sorted(...) before anything order-sensitive "
            "consumes it",
            col=node.col_offset,
        )
