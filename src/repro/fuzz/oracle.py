"""Differential oracle: one kernel, every pipeline configuration.

The semantic anchor is the **unoptimized** lowering of the kernel,
executed by the SIMT interpreter — not the baseline pipeline's output, so
a miscompile in the shared cleanup battery is caught even when every
configuration reproduces it identically.  Each configuration must then

* survive the pipeline with ``verify_each=True`` (a clean
  :mod:`repro.ir.verifier` run after every pass), and
* produce **bit-identical** per-lane return values for all 32 lanes of a
  warp.

Anything else is a :class:`ConfigOutcome` failure of kind ``verifier``,
``crash``, or ``mismatch``.

Subjects are *rebuildable* (re-lowered or re-parsed per configuration)
because passes mutate modules in place.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..analysis.loops import LoopInfo
from ..directive import LoopDirective
from ..frontend.ast import KernelDef
from ..frontend.lower import lower_kernels
from ..gpu.counters import Counters
from ..gpu.machine import SimtMachine
from ..ir.function import Function
from ..ir.module import Module
from ..ir.parser import parse_module
from ..ir.printer import print_module
from ..ir.types import FloatType, IntType
from ..ir.verifier import verify_module
from ..transforms.pipeline import compile_module

#: One warp; every kernel runs all 32 lanes so divergent branches matter.
LANES = 32
#: u&u unroll factors checked per loop (the paper's sweep).
UU_FACTORS = (2, 4, 8)
#: Plain-unroll factor checked per loop.
UNROLL_FACTOR = 2
#: Growth cap passed to the transforms, here and wherever else a bare
#: module is compiled (served ir/kernel submissions, the similarity
#: corpus).  Deliberately small: such kernels have tens of instructions,
#: and a cap in the thousands already lets u&u duplicate multi-way merges
#: across unrolled iterations while keeping the cleanup fixpoint (the cost
#: of a config run) tractable on one core.  Registered apps compile at
#: :data:`repro.transforms.unmerge.MAX_INSTRUCTIONS` instead.
BARE_MAX_INSTRUCTIONS = 3_000


class OracleError(Exception):
    """The subject itself is unusable (not a miscompile)."""


@dataclass(frozen=True)
class ConfigSpec:
    """One pipeline configuration to check a kernel under."""

    config: str
    loop_id: Optional[str] = None
    factor: int = 1
    #: An explicit multi-directive plan, replayed like ``tuned`` does.
    plan: Optional[Tuple[LoopDirective, ...]] = None

    @property
    def label(self) -> str:
        parts = [self.config]
        if self.loop_id is not None:
            parts.append(self.loop_id)
        if self.factor != 1:
            parts.append(f"u={self.factor}")
        parts.extend(str(d) for d in self.plan or ())
        return "/".join(parts)


@dataclass
class ConfigOutcome:
    """Result of one configuration run against the reference."""

    spec: ConfigSpec
    ok: bool
    kind: str = "ok"     # ok | mismatch | verifier | crash
    detail: str = ""

    def describe(self) -> str:
        if self.ok:
            return f"{self.spec.label}: ok"
        return f"{self.spec.label}: {self.kind} — {self.detail}"


@dataclass
class KernelReport:
    """All configuration outcomes for one kernel."""

    name: str
    seed: Optional[int] = None
    outcomes: List[ConfigOutcome] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return all(o.ok for o in self.outcomes)

    @property
    def failures(self) -> List[ConfigOutcome]:
        return [o for o in self.outcomes if not o.ok]


class Subject:
    """A kernel under differential test, rebuildable from its source."""

    def __init__(self, kernel: Optional[KernelDef] = None,
                 text: Optional[str] = None, name: Optional[str] = None,
                 seed: Optional[int] = None) -> None:
        if (kernel is None) == (text is None):
            raise OracleError("Subject needs exactly one of kernel/text")
        self.kernel = kernel
        self.text = text
        self.name = name or (kernel.name if kernel is not None else "subject")
        self.seed = seed

    def build(self) -> Module:
        """Fresh, unoptimized module (lowering does not mutate the AST)."""
        if self.kernel is not None:
            return lower_kernels([self.kernel], self.name)
        return parse_module(self.text, self.name)  # type: ignore[arg-type]

    @property
    def ir(self) -> str:
        return print_module(self.build())


def subject_from_kernel(kernel: KernelDef,
                        seed: Optional[int] = None) -> Subject:
    return Subject(kernel=kernel, seed=seed)


def subject_from_text(text: str, name: str = "subject",
                      seed: Optional[int] = None) -> Subject:
    return Subject(text=text, name=name, seed=seed)


# ---------------------------------------------------------------------------
# Execution
# ---------------------------------------------------------------------------

def default_args(func: Function) -> List:
    """Deterministic scalar arguments derived from parameter position."""
    args: List = []
    for i, arg in enumerate(func.args):
        if isinstance(arg.type, IntType):
            args.append(5 + 3 * i)
        elif isinstance(arg.type, FloatType):
            args.append(1.5 + 0.75 * i)
        else:
            raise OracleError(
                f"@{func.name}: parameter {arg.name} has type {arg.type!r}; "
                f"differential subjects must be pure scalar kernels")
    return args


def run_one_warp(module: Module, lanes: int = LANES,
                 engine: Optional[str] = None
                 ) -> Tuple[Dict[str, np.ndarray], Counters]:
    """Run every function of a bare module on one warp with
    :func:`default_args`: per-lane return values plus summed counters.

    ``engine`` selects the execution engine; the engines are bit-identical
    by contract, and single-warp subjects take the per-warp path anyway,
    so the oracle treats them as interchangeable.
    """
    machine = SimtMachine(module, engine=engine)
    outputs: Dict[str, np.ndarray] = {}
    total = Counters()
    for name, func in module.functions.items():
        ret, counters = machine.run_function(func, default_args(func), lanes)
        outputs[name] = (np.zeros(0) if ret is None
                         else np.ascontiguousarray(ret))
        total.merge(counters)
    return outputs, total


def execute(module: Module, lanes: int = LANES,
            engine: Optional[str] = None) -> Dict[str, np.ndarray]:
    """The outputs half of :func:`run_one_warp`."""
    return run_one_warp(module, lanes, engine)[0]


def compare(reference: Dict[str, np.ndarray],
            candidate: Dict[str, np.ndarray]) -> Optional[str]:
    """First bitwise difference, or None.  NaNs compare by representation."""
    for name, ref in reference.items():
        got = candidate.get(name)
        if got is None:
            return f"@{name}: output missing"
        if got.dtype != ref.dtype or got.shape != ref.shape:
            return (f"@{name}: shape/dtype {got.dtype}{got.shape} != "
                    f"{ref.dtype}{ref.shape}")
        if got.tobytes() == ref.tobytes():
            continue
        for lane in range(ref.size):
            if ref[lane:lane + 1].tobytes() != got[lane:lane + 1].tobytes():
                return (f"@{name} lane {lane}: {got[lane]!r} != "
                        f"{ref[lane]!r} (reference)")
    return None


# ---------------------------------------------------------------------------
# The differential
# ---------------------------------------------------------------------------

def config_specs(module: Module) -> List[ConfigSpec]:
    """Every configuration applicable to ``module``.

    Loop ids are discovered on the unoptimized module — the same ids
    :meth:`repro.bench.base.Benchmark.loop_ids` reports and the transform
    stage re-resolves at run time.  A multi-loop kernel also gets one
    list-shaped spec: every loop ``unmerge``, outermost first — an order
    the heuristic's nesting rule never produces, so it exercises
    re-finding each later loop by header across the earlier relayouts.
    """
    specs = [ConfigSpec("baseline")]
    outermost_first: List[LoopDirective] = []
    for func in module.functions.values():
        info = LoopInfo.compute(func)
        for loop in info.loops:
            specs.append(ConfigSpec("unroll", loop.loop_id, UNROLL_FACTOR))
            specs.append(ConfigSpec("unmerge", loop.loop_id, 1))
            for factor in UU_FACTORS:
                specs.append(ConfigSpec("uu", loop.loop_id, factor))
        outermost_first.extend(
            LoopDirective(loop.loop_id, 1, True)
            for loop in sorted(info.loops, key=lambda l: l.depth))
    specs.append(ConfigSpec("uu_heuristic"))
    if len(outermost_first) > 1:
        specs.append(ConfigSpec("tuned", plan=tuple(outermost_first)))
    return specs


def run_config(subject: Subject, spec: ConfigSpec,
               reference: Dict[str, np.ndarray], lanes: int = LANES,
               max_instructions: int = BARE_MAX_INSTRUCTIONS,
               engine: Optional[str] = None) -> ConfigOutcome:
    """Compile one configuration and compare its outputs to the reference."""
    module = subject.build()
    try:
        compile_module(module, spec.config, loop_id=spec.loop_id,
                       factor=spec.factor, max_instructions=max_instructions,
                       verify_each=True, plan=spec.plan)
    except AssertionError as exc:
        # PassManager's verify_each wrapper: the message names the pass.
        return ConfigOutcome(spec, False, "verifier", str(exc))
    except Exception as exc:  # noqa: BLE001 — any pipeline crash is a finding
        return ConfigOutcome(spec, False, "crash",
                             f"{type(exc).__name__}: {exc}")
    try:
        outputs = execute(module, lanes, engine=engine)
    except Exception as exc:  # noqa: BLE001
        return ConfigOutcome(spec, False, "crash",
                             f"interpreting optimized IR: "
                             f"{type(exc).__name__}: {exc}")
    detail = compare(reference, outputs)
    if detail is not None:
        return ConfigOutcome(spec, False, "mismatch", detail)
    return ConfigOutcome(spec, True)


def run_differential(subject: Subject, lanes: int = LANES,
                     max_instructions: int = BARE_MAX_INSTRUCTIONS,
                     engine: Optional[str] = None) -> KernelReport:
    """Check ``subject`` under every applicable configuration."""
    module = subject.build()
    verify_module(module)  # a broken *unoptimized* module is a subject bug
    reference = execute(module, lanes, engine=engine)
    report = KernelReport(subject.name, subject.seed)
    for spec in config_specs(module):
        report.outcomes.append(
            run_config(subject, spec, reference, lanes, max_instructions,
                       engine=engine))
    return report
