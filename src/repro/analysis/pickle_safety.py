"""Pickle-safety of the payloads crossing the shard runtime's process boundary.

``_ShardTask`` / ``_ShardResult`` (and everything reachable from their
fields) are pickled into worker processes every generation, for both sharded
engines.  A lock, an open handle, an executor or a lambda smuggled into that
graph fails at *dispatch* time — deep inside a generation, where the runtime
degrades with a warning and quietly eats the whole speedup.  This checker
fails at *lint* time instead.

Root payloads are discovered two ways:

* a standalone ``# repro: pickle-boundary`` comment on the line above the
  class definition (the explicit, self-documenting marker used in
  :mod:`repro.execution.shards` and on the other payload classes), or
* the runtime's payload naming convention ``_Shard*`` as a fallback, so
  deleting a marker cannot silently un-check the real payloads.

From each root the checker walks field annotations recursively through
project-local dataclasses.  A class is accepted if it

* defines ``__getstate__`` (it has opted into controlling its pickled form —
  the lean-pickle idiom of ``Device`` / ``CompiledCircuit``), or
* is a dataclass whose fields are all statically picklable: scalars,
  strings, bytes, ``np.ndarray``, containers of picklable things, and other
  conforming project classes.

Known-unpicklable annotations (``threading.Lock``, executors, ``Callable``,
IO handles, generators) fire ``pickle-unsafe-field``.  A reachable plain
class without ``__getstate__`` has its ``__init__`` scanned for assignments
of unpicklable values (``self._lock = threading.Lock()``, ``self.f =
lambda ...``, ``self.fh = open(...)``) — those fire ``pickle-unsafe-attr``.
Unresolvable external types are ignored: the checker is a tripwire for the
known failure modes, not a proof of picklability.
"""

from __future__ import annotations

import ast
import re
from typing import List, Optional, Set, Tuple

from .findings import Finding, Rule, Severity
from .project import ModuleInfo, Project, dotted_name
from .registry import Checker, register_checker

__all__ = ["PickleSafetyChecker"]

UNSAFE_FIELD = Rule(
    "pickle-unsafe-field",
    Severity.ERROR,
    "process-boundary payload field has a statically-unpicklable type",
)
UNSAFE_ATTR = Rule(
    "pickle-unsafe-attr",
    Severity.ERROR,
    "class reachable from a process-boundary payload assigns an "
    "unpicklable attribute and defines no __getstate__",
)

_ROOT_NAME_RE = re.compile(r"^_Shard(Task|Result)$")

#: resolved dotted names that pickle cleanly as annotation atoms
_SAFE_ATOMS = {
    "int", "float", "str", "bool", "bytes", "complex", "object", "None",
    "type(None)",
    "typing.Any", "typing.Hashable", "collections.abc.Hashable",
    "numpy.ndarray", "numpy.dtype",
}

#: container heads whose subscript arguments are analyzed recursively
_CONTAINERS = {
    "list", "dict", "tuple", "set", "frozenset",
    "typing.List", "typing.Dict", "typing.Tuple", "typing.Set",
    "typing.FrozenSet", "typing.Sequence", "typing.Iterable",
    "typing.Mapping", "typing.MutableMapping", "typing.Optional",
    "typing.Union", "collections.OrderedDict", "typing.OrderedDict",
    "List", "Dict", "Tuple", "Set", "FrozenSet", "Sequence", "Iterable",
    "Mapping", "MutableMapping", "Optional", "Union", "OrderedDict",
}

#: resolved dotted names that are known pickle hazards in annotations
_UNSAFE_TYPES = {
    "threading.Lock", "threading.RLock", "threading.Condition",
    "threading.Semaphore", "threading.BoundedSemaphore", "threading.Event",
    "threading.Barrier", "threading.Thread", "threading.local",
    "multiprocessing.Lock", "multiprocessing.RLock", "multiprocessing.Queue",
    "multiprocessing.Pool", "multiprocessing.Process",
    "concurrent.futures.Executor", "concurrent.futures.ProcessPoolExecutor",
    "concurrent.futures.ThreadPoolExecutor", "concurrent.futures.Future",
    "socket.socket",
    "io.IOBase", "io.TextIOWrapper", "io.BufferedReader", "io.BufferedWriter",
    "io.FileIO", "io.BytesIO", "io.StringIO",
    "typing.IO", "typing.TextIO", "typing.BinaryIO",
    "typing.Callable", "collections.abc.Callable", "Callable", "callable",
    "types.FunctionType", "types.LambdaType", "types.GeneratorType",
    "typing.Generator", "typing.Coroutine",
    # live telemetry objects: a Tracer (span stack, writer handle), a
    # metrics registry or an open TraceWriter smuggled into a shard payload
    # drags process-local observation state across the boundary — workers
    # ship flat SpanRecord buffers home instead
    "repro.telemetry.Tracer", "repro.telemetry.spans.Tracer",
    "repro.telemetry.MetricsRegistry", "repro.telemetry.metrics.MetricsRegistry",
    "repro.telemetry.TraceWriter", "repro.telemetry.export.TraceWriter",
}

#: resolved callables whose *result*, assigned to an attribute, is unpicklable
_UNSAFE_CONSTRUCTORS = {
    "threading.Lock", "threading.RLock", "threading.Condition",
    "threading.Semaphore", "threading.BoundedSemaphore", "threading.Event",
    "threading.Barrier", "threading.Thread", "threading.local",
    "multiprocessing.Lock", "multiprocessing.RLock", "multiprocessing.Queue",
    "multiprocessing.Pool", "multiprocessing.Process",
    "concurrent.futures.ProcessPoolExecutor",
    "concurrent.futures.ThreadPoolExecutor",
    "open", "io.open", "socket.socket",
}


def _is_dataclass(node: ast.ClassDef, module: ModuleInfo) -> bool:
    for decorator in node.decorator_list:
        target = decorator.func if isinstance(decorator, ast.Call) else decorator
        path = dotted_name(target)
        if path is not None and module.resolve(path) in (
            "dataclasses.dataclass", "dataclass",
        ):
            return True
    return False


def _defines(node: ast.ClassDef, method: str) -> bool:
    return any(
        isinstance(item, ast.FunctionDef) and item.name == method
        for item in node.body
    )


def _marker_lines(node: ast.ClassDef) -> Set[int]:
    """Lines a ``pickle-boundary`` marker may target for this class."""
    lines = {node.lineno}
    if node.decorator_list:
        lines.add(min(d.lineno for d in node.decorator_list))
    return lines


@register_checker
class PickleSafetyChecker(Checker):
    """Walks process-boundary payload dataclasses for pickle hazards."""

    name = "pickle-safety"
    rules = (UNSAFE_FIELD, UNSAFE_ATTR)

    def check_module(self, module: ModuleInfo, project: Project) -> List[Finding]:
        findings: List[Finding] = []
        for node in module.tree.body:
            if not isinstance(node, ast.ClassDef):
                continue
            marked = bool(_marker_lines(node) & module.boundary_markers)
            if marked or _ROOT_NAME_RE.match(node.name):
                self._walk_class(
                    module, node, project, trail=node.name,
                    seen=set(), findings=findings,
                )
        return findings

    # -- class walk -----------------------------------------------------------

    def _walk_class(
        self,
        module: ModuleInfo,
        node: ast.ClassDef,
        project: Project,
        trail: str,
        seen: Set[Tuple[str, str]],
        findings: List[Finding],
    ) -> None:
        key = (module.name, node.name)
        if key in seen:
            return
        seen.add(key)
        if _defines(node, "__getstate__"):
            # the class controls its own pickled form — trusted boundary
            return
        if _is_dataclass(node, module):
            for item in node.body:
                if isinstance(item, ast.AnnAssign) and isinstance(
                    item.target, ast.Name
                ):
                    self._check_annotation(
                        module, item.annotation, project,
                        field_name=item.target.id, owner=node.name,
                        trail=trail, line=item.lineno,
                        seen=seen, findings=findings,
                    )
        else:
            self._scan_plain_class(module, node, trail, findings)

    def _check_annotation(
        self,
        module: ModuleInfo,
        annotation: ast.expr,
        project: Project,
        field_name: str,
        owner: str,
        trail: str,
        line: int,
        seen: Set[Tuple[str, str]],
        findings: List[Finding],
    ) -> None:
        if isinstance(annotation, ast.Constant):
            # string / None annotation: re-parse forward references
            if annotation.value is None:
                return
            if isinstance(annotation.value, str):
                try:
                    parsed = ast.parse(annotation.value, mode="eval").body
                except SyntaxError:
                    return
                parsed = ast.copy_location(parsed, annotation)
                for child in ast.walk(parsed):
                    if not hasattr(child, "lineno"):
                        continue
                    ast.copy_location(child, annotation)
                self._check_annotation(
                    module, parsed, project, field_name, owner, trail,
                    line, seen, findings,
                )
            return
        if isinstance(annotation, ast.Subscript):
            head = dotted_name(annotation.value)
            if head is not None and (
                module.resolve(head) in _CONTAINERS or head in _CONTAINERS
            ):
                slice_node = annotation.slice
                elements = (
                    slice_node.elts
                    if isinstance(slice_node, ast.Tuple)
                    else [slice_node]
                )
                for element in elements:
                    self._check_annotation(
                        module, element, project, field_name, owner, trail,
                        line, seen, findings,
                    )
                return
            # unknown generic (e.g. Callable[..., x]) — check its head below
            annotation = annotation.value
        path = dotted_name(annotation)
        if path is None:
            return
        resolved = module.resolve(path)
        if resolved in _SAFE_ATOMS or resolved in _CONTAINERS:
            return
        if resolved in _UNSAFE_TYPES or path in _UNSAFE_TYPES:
            findings.append(
                UNSAFE_FIELD.finding(
                    module.display_path,
                    line,
                    f"field {field_name!r} of {owner!r} (process-boundary "
                    f"payload via {trail}) has unpicklable type {path!r}",
                    hint="drop the field, replace it with picklable state, "
                    "or give the class __getstate__/__setstate__",
                    col=annotation.col_offset,
                )
            )
            return
        located = project.find_class(module, path)
        if located is not None:
            owner_module, class_node = located
            self._walk_class(
                owner_module, class_node, project,
                trail=f"{trail}.{field_name}",
                seen=seen, findings=findings,
            )
        # unresolvable external types are accepted (tripwire, not a proof)

    # -- plain (non-dataclass) reachable classes ------------------------------

    def _scan_plain_class(
        self,
        module: ModuleInfo,
        node: ast.ClassDef,
        trail: str,
        findings: List[Finding],
    ) -> None:
        for item in node.body:
            if not (isinstance(item, ast.FunctionDef) and item.name == "__init__"):
                continue
            for statement in ast.walk(item):
                if not isinstance(statement, ast.Assign):
                    continue
                targets = [
                    t for t in statement.targets
                    if isinstance(t, ast.Attribute)
                    and isinstance(t.value, ast.Name)
                    and t.value.id == "self"
                ]
                if not targets:
                    continue
                hazard = self._unpicklable_value(statement.value, module)
                if hazard is None:
                    continue
                names = ", ".join(t.attr for t in targets)
                findings.append(
                    UNSAFE_ATTR.finding(
                        module.display_path,
                        statement.lineno,
                        f"{node.name!r} (reachable from process-boundary "
                        f"payload {trail}) assigns unpicklable {hazard} to "
                        f"attribute(s) {names} and defines no __getstate__",
                        hint="exclude the attribute via __getstate__ (see "
                        "Device/CompiledCircuit) or store picklable state",
                        col=statement.col_offset,
                    )
                )

    @staticmethod
    def _unpicklable_value(value: ast.expr, module: ModuleInfo) -> Optional[str]:
        if isinstance(value, ast.Lambda):
            return "lambda"
        if isinstance(value, ast.Call):
            path = dotted_name(value.func)
            if path is not None:
                resolved = module.resolve(path)
                if resolved in _UNSAFE_CONSTRUCTORS:
                    return f"{resolved}(...)"
        return None
