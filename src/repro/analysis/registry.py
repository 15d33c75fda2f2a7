"""The pluggable checker registry.

A checker subclasses :class:`Checker`, declares a ``name`` and the
:class:`~repro.analysis.findings.Rule` catalogue it can fire, and registers
itself with :func:`register_checker`.  The runner
and the CLI only ever talk to the registry, so an out-of-tree checker (or a
repo-specific one added later) needs no wiring beyond its import.
"""

from __future__ import annotations

import abc
from typing import Dict, List, Type

from .findings import Finding, Rule
from .project import ModuleInfo, Project

__all__ = [
    "Checker",
    "register_checker",
    "available_checkers",
    "checker_class",
    "all_rules",
]


class Checker(abc.ABC):
    """Base of every static checker.

    A checker is stateless between runs; the runner constructs one instance
    per analysis and calls :meth:`check_module` for every module, handing it
    the whole :class:`Project` so cross-module facts (imported payload
    classes) resolve.  Findings are returned raw —
    suppression filtering is the runner's job.
    """

    #: registry key; subclasses must override
    name: str = ""
    #: the rules this checker can fire (drives ``--list-rules`` and
    #: ``--select`` validation)
    rules: tuple = ()

    @abc.abstractmethod
    def check_module(
        self, module: ModuleInfo, project: Project
    ) -> List[Finding]:
        """All findings for one module."""

    def rule(self, rule_id: str) -> Rule:
        for rule in self.rules:
            if rule.id == rule_id:
                return rule
        raise KeyError(f"{type(self).__name__} declares no rule {rule_id!r}")


_REGISTRY: Dict[str, Type[Checker]] = {}


def register_checker(cls: Type[Checker]) -> Type[Checker]:
    """Class decorator: register ``cls`` under its ``name`` attribute."""
    name = getattr(cls, "name", "")
    if not name:
        raise ValueError(f"{cls.__name__} must define a non-empty name")
    if not issubclass(cls, Checker):
        raise TypeError(f"{cls.__name__} must subclass Checker")
    _REGISTRY[name] = cls
    return cls


def available_checkers() -> List[str]:
    """Registered checker names, sorted for stable messages."""
    return sorted(_REGISTRY)


def checker_class(name: str) -> Type[Checker]:
    try:
        return _REGISTRY[name]
    except KeyError:
        raise ValueError(
            f"unknown checker {name!r}; registered: {available_checkers()}"
        ) from None


def all_rules() -> List[Rule]:
    """Every rule of every registered checker, sorted by id."""
    rules: List[Rule] = []
    for name in available_checkers():
        rules.extend(_REGISTRY[name].rules)
    return sorted(rules, key=lambda rule: rule.id)
