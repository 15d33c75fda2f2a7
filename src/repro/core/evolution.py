"""Evolutionary co-search of SubCircuit and qubit mapping.

The gene concatenates the circuit sub-gene (number of blocks + per-layer
widths) with the qubit-mapping sub-gene (one physical qubit per logical
qubit).  Each iteration evaluates the population with the performance
estimator, keeps the best candidates as parents, and produces the next
population from mutations and crossovers, repairing any duplicated physical
qubits exactly as described in Section III-C.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..devices.library import Device
from ..utils.rng import ensure_rng
from .design_space import DesignSpace
from .subcircuit import SubCircuitConfig

if TYPE_CHECKING:
    from .checkpoint import SearchCheckpointer

__all__ = ["Candidate", "EvolutionConfig", "EvolutionResult", "EvolutionEngine",
           "SearchRun", "PopulationScoreFn", "random_search"]


@dataclass(frozen=True)
class Candidate:
    """One (SubCircuit configuration, qubit mapping) pair."""

    config: SubCircuitConfig
    mapping: Tuple[int, ...]

    def gene(self) -> List[int]:
        return self.config.as_gene() + list(self.mapping)


@dataclass
class EvolutionConfig:
    """Search hyper-parameters (paper defaults: 40 iterations, population 40)."""

    iterations: int = 40
    population_size: int = 40
    parent_size: int = 10
    mutation_size: int = 20
    mutation_probability: float = 0.4
    crossover_size: int = 10
    seed: int = 0
    search_mapping: bool = True       # co-search qubit mapping with the circuit
    search_circuit: bool = True       # disable to search the mapping only
    #: persist search state here after every generation and resume from it
    #: when the file exists (see :mod:`repro.core.checkpoint`); None disables
    checkpoint_path: Optional[str] = None


@dataclass
class EvolutionResult:
    """Best candidate found plus the per-iteration search trace."""

    best: Candidate
    best_score: float
    history: List[Dict[str, float]] = field(default_factory=list)
    evaluated: int = 0


ScoreFn = Callable[[SubCircuitConfig, Tuple[int, ...]], float]
#: scores a whole population at once (see repro.execution.ExecutionEngine);
#: must return one lower-is-better score per candidate, in order
PopulationScoreFn = Callable[[Sequence["Candidate"]], Sequence[float]]


class EvolutionEngine:
    """Genetic search over the joint circuit / qubit-mapping space."""

    def __init__(
        self,
        space: DesignSpace,
        n_qubits: int,
        device: Device,
        config: Optional[EvolutionConfig] = None,
        fixed_config: Optional[SubCircuitConfig] = None,
        fixed_mapping: Optional[Sequence[int]] = None,
    ) -> None:
        self.space = space
        self.n_qubits = int(n_qubits)
        self.device = device
        self.config = config or EvolutionConfig()
        self.rng = ensure_rng(self.config.seed)
        self.max_widths = space.max_widths(self.n_qubits)
        if self.n_qubits > device.n_qubits:
            raise ValueError("circuit does not fit on the device")
        self.fixed_config = fixed_config
        self.fixed_mapping = tuple(fixed_mapping) if fixed_mapping is not None else None

    # -- candidate generation ------------------------------------------------------

    def random_mapping(self) -> Tuple[int, ...]:
        if self.fixed_mapping is not None or not self.config.search_mapping:
            return self.fixed_mapping or tuple(range(self.n_qubits))
        physical = self.rng.permutation(self.device.n_qubits)[: self.n_qubits]
        return tuple(int(q) for q in physical)

    def random_config(self) -> SubCircuitConfig:
        if self.fixed_config is not None or not self.config.search_circuit:
            return self.fixed_config or SubCircuitConfig.full(self.space, self.n_qubits)
        n_blocks = int(self.rng.integers(1, self.space.max_blocks + 1))
        widths = tuple(
            tuple(
                int(self.rng.integers(self.space.min_width, w + 1))
                for w in self.max_widths
            )
            for _ in range(self.space.max_blocks)
        )
        return SubCircuitConfig(n_blocks, widths)

    def random_candidate(self) -> Candidate:
        return Candidate(self.random_config(), self.random_mapping())

    def candidate_from_gene(self, gene: Sequence[int]) -> Candidate:
        """Rebuild a candidate from its serialized gene (checkpoint format)."""
        circuit_len = 1 + self.space.max_blocks * self.space.n_layers
        config = SubCircuitConfig.from_gene(
            self.space, self.n_qubits, list(gene[:circuit_len])
        )
        return Candidate(config, tuple(int(q) for q in gene[circuit_len:]))

    # -- genetic operators -----------------------------------------------------------

    def repair_mapping(self, mapping: Sequence[int]) -> Tuple[int, ...]:
        """Replace repeated physical qubits with the first unused ones."""
        seen: set[int] = set()
        repaired: List[int] = []
        for physical in mapping:
            physical = int(physical) % self.device.n_qubits
            if physical in seen:
                replacement = next(
                    q for q in range(self.device.n_qubits) if q not in seen
                )
                physical = replacement
            seen.add(physical)
            repaired.append(physical)
        return tuple(repaired)

    def mutate(self, candidate: Candidate) -> Candidate:
        probability = self.config.mutation_probability
        config = candidate.config
        if self.config.search_circuit and self.fixed_config is None:
            widths = [list(block) for block in config.widths]
            for block in range(self.space.max_blocks):
                for layer in range(self.space.n_layers):
                    if self.rng.random() < probability:
                        widths[block][layer] = int(
                            self.rng.integers(
                                self.space.min_width, self.max_widths[layer] + 1
                            )
                        )
            n_blocks = config.n_blocks
            if self.rng.random() < probability:
                n_blocks = int(self.rng.integers(1, self.space.max_blocks + 1))
            config = SubCircuitConfig(n_blocks, tuple(tuple(b) for b in widths))
        mapping = list(candidate.mapping)
        if self.config.search_mapping and self.fixed_mapping is None:
            for index in range(len(mapping)):
                if self.rng.random() < probability:
                    mapping[index] = int(self.rng.integers(0, self.device.n_qubits))
            mapping = list(self.repair_mapping(mapping))
        return Candidate(config, tuple(mapping))

    def crossover(self, parent_a: Candidate, parent_b: Candidate) -> Candidate:
        gene_a = parent_a.gene()
        gene_b = parent_b.gene()
        child_gene = [
            gene_a[i] if self.rng.random() < 0.5 else gene_b[i]
            for i in range(len(gene_a))
        ]
        circuit_len = 1 + self.space.max_blocks * self.space.n_layers
        config = SubCircuitConfig.from_gene(
            self.space, self.n_qubits, child_gene[:circuit_len]
        )
        mapping = self.repair_mapping(child_gene[circuit_len:])
        if self.fixed_config is not None or not self.config.search_circuit:
            config = self.fixed_config or config
        if self.fixed_mapping is not None or not self.config.search_mapping:
            mapping = self.fixed_mapping or mapping
        return Candidate(config, mapping)

    # -- main loop ----------------------------------------------------------------------

    def start_search(
        self,
        score_fn: Optional[ScoreFn] = None,
        verbose: bool = False,
        population_score_fn: Optional[PopulationScoreFn] = None,
        checkpointer: Optional["SearchCheckpointer"] = None,
    ) -> "SearchRun":
        """A :class:`SearchRun` stepping this search one generation at a time.

        ``search()`` is ``start_search(...)`` driven to completion; callers
        that need to interleave several searches (the multi-tenant
        :mod:`repro.service` scheduler) call :meth:`SearchRun.step`
        themselves.  The run restores checkpoint state on construction, so
        suspending after any ``step()`` and rebuilding the run later resumes
        bitwise.  A ``score_fn`` is wrapped as a population scorer that
        calls it once per pending candidate, in population order.
        """
        if (score_fn is None) == (population_score_fn is None):
            raise ValueError(
                "provide exactly one of score_fn or population_score_fn"
            )
        if score_fn is not None:
            def population_score_fn(candidates):
                return [score_fn(c.config, c.mapping) for c in candidates]

        return SearchRun(
            self,
            population_score_fn,
            verbose=verbose,
            checkpointer=checkpointer,
        )

    def search(
        self,
        score_fn: Optional[ScoreFn] = None,
        verbose: bool = False,
        population_score_fn: Optional[PopulationScoreFn] = None,
        checkpointer: Optional["SearchCheckpointer"] = None,
    ) -> EvolutionResult:
        """Run the evolutionary search (scores are lower-is-better).

        Scoring goes through exactly one of two interfaces: ``score_fn``
        evaluates one ``(config, mapping)`` at a time, while
        ``population_score_fn`` receives every not-yet-cached candidate of a
        generation at once — the hook the batched
        :class:`~repro.execution.ExecutionEngine` plugs into.

        ``checkpointer`` (see :mod:`repro.core.checkpoint`) persists the
        search state after every completed generation and, when its file
        already holds a checkpoint, resumes from it bitwise — same
        populations, same rng stream, same history tail as the
        uninterrupted run.
        """
        run = self.start_search(
            score_fn=score_fn,
            verbose=verbose,
            population_score_fn=population_score_fn,
            checkpointer=checkpointer,
        )
        while run.step():
            pass
        return run.result()


class SearchRun:
    """One evolutionary search, advanced one generation per :meth:`step`.

    Owns the full loop state ``EvolutionEngine.search`` used to keep in
    locals: population, gene→score cache, history, best candidate and the
    iteration cursor.  The constructor reproduces ``search()``'s setup
    exactly — the initial population is drawn (consuming the engine rng)
    *before* any checkpoint overrides population and rng state — so driving
    a run to completion is bitwise identical to the monolithic loop, and a
    run interleaved with other tenants' runs scores the same populations as
    one run alone.
    """

    def __init__(
        self,
        engine: EvolutionEngine,
        population_score_fn: PopulationScoreFn,
        verbose: bool = False,
        checkpointer: Optional["SearchCheckpointer"] = None,
    ) -> None:
        self.engine = engine
        self.population_score_fn = population_score_fn
        self.checkpointer = checkpointer
        self.verbose = verbose
        self.population: List[Candidate] = [
            engine.random_candidate()
            for _ in range(engine.config.population_size)
        ]
        self.cache: Dict[Tuple[int, ...], float] = {}
        self.history: List[Dict[str, float]] = []
        self.evaluated = 0
        self.best: Optional[Candidate] = None
        self.best_score = float("inf")
        self.iteration = 0

        if checkpointer is not None:
            state = checkpointer.load()
            if state is not None:
                self.iteration = int(state["iteration"])
                engine.rng.bit_generator.state = state["rng_state"]
                self.population = [
                    engine.candidate_from_gene(gene)
                    for gene in state["population"]
                ]
                self.cache = {
                    tuple(gene): score for gene, score in state["cache"]
                }
                self.history = list(state["history"])
                self.evaluated = int(state["evaluated"])
                self.best_score = float(state["best_score"])
                if state["best"] is not None:
                    self.best = engine.candidate_from_gene(state["best"])

    @property
    def done(self) -> bool:
        return self.iteration >= self.engine.config.iterations

    def step(self) -> bool:
        """Run one generation; ``False`` when the search is already done."""
        if self.done:
            return False
        engine = self.engine
        iteration = self.iteration
        pending: List[Candidate] = []
        seen: set = set()
        for candidate in self.population:
            key = tuple(candidate.gene())
            if key not in self.cache and key not in seen:
                seen.add(key)
                pending.append(candidate)
        if pending:
            scores = self.population_score_fn(pending)
            if len(scores) != len(pending):
                raise ValueError(
                    "population_score_fn returned "
                    f"{len(scores)} scores for {len(pending)} candidates"
                )
            for candidate, score in zip(pending, scores):
                self.cache[tuple(candidate.gene())] = float(score)
            self.evaluated += len(pending)
        scored = [
            (self.cache[tuple(candidate.gene())], candidate)
            for candidate in self.population
        ]
        scored.sort(key=lambda item: item[0])
        if scored[0][0] < self.best_score:
            self.best_score, self.best = scored[0]
        self.history.append(
            {
                "iteration": iteration,
                "best_score": self.best_score,
                "population_best": scored[0][0],
                "population_mean": float(np.mean([s for s, _c in scored])),
            }
        )
        if self.verbose:
            print(
                f"[evolution] iter {iteration:3d} best={self.best_score:.4f} "
                f"mean={self.history[-1]['population_mean']:.4f}"
            )
        parents = [
            candidate for _score, candidate in scored[: engine.config.parent_size]
        ]
        mutations = [
            engine.mutate(parents[int(engine.rng.integers(0, len(parents)))])
            for _ in range(engine.config.mutation_size)
        ]
        crossovers = [
            engine.crossover(
                parents[int(engine.rng.integers(0, len(parents)))],
                parents[int(engine.rng.integers(0, len(parents)))],
            )
            for _ in range(engine.config.crossover_size)
        ]
        self.population = parents + mutations + crossovers
        self.iteration = iteration + 1
        if self.checkpointer is not None:
            self.checkpointer.save(
                {
                    "iteration": self.iteration,
                    "rng_state": engine.rng.bit_generator.state,
                    "population": [c.gene() for c in self.population],
                    "cache": [
                        (list(gene), score) for gene, score in self.cache.items()
                    ],
                    "history": list(self.history),
                    "evaluated": self.evaluated,
                    "best": self.best.gene() if self.best is not None else None,
                    "best_score": self.best_score,
                }
            )
        return True

    def result(self) -> EvolutionResult:
        """The search outcome (valid once at least one generation ran)."""
        assert self.best is not None
        return EvolutionResult(
            best=self.best,
            best_score=self.best_score,
            history=self.history,
            evaluated=self.evaluated,
        )


def random_search(
    space: DesignSpace,
    n_qubits: int,
    device: Device,
    score_fn: ScoreFn,
    n_samples: int,
    seed: int = 0,
    search_mapping: bool = True,
) -> EvolutionResult:
    """Pure random search baseline over the same joint space (Fig. 22)."""
    engine = EvolutionEngine(
        space,
        n_qubits,
        device,
        EvolutionConfig(seed=seed, search_mapping=search_mapping),
    )
    best = None
    best_score = float("inf")
    history = []
    for index in range(n_samples):
        candidate = engine.random_candidate()
        score = float(score_fn(candidate.config, candidate.mapping))
        if score < best_score:
            best_score, best = score, candidate
        history.append({"iteration": index, "best_score": best_score,
                        "population_best": score, "population_mean": score})
    assert best is not None
    return EvolutionResult(best=best, best_score=best_score, history=history,
                           evaluated=n_samples)
