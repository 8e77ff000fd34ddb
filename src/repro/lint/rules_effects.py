"""Effect rules (EFF001, EFF002, EFF004, PROTO003) over the dataflow summaries.

These rules consume ``module.effect_index`` — the engine-built
:class:`~repro.lint.effects.EffectIndex` — and check transitive effect
summaries against the contracts declared in
:mod:`repro.lint.contracts` (whose phase tables, in
``repro/network/kernel.py``, describe the phases ``Simulator.step``
runs).

Reporting convention: when the offending write lives in the module being
linted, the finding lands on the write's own line; when it is only
*reached* from here (a callee in another module), the finding lands on
the anchoring method's ``def`` line and names the origin.  Either way a
finding is definite — unresolved calls contribute no effects (see
``repro.lint.effects``), so every reported write provably happens.
"""

from __future__ import annotations

import ast
from typing import Dict, FrozenSet, Iterator, List, Optional, Set

from repro.lint import contracts
from repro.lint.effects import (
    EffectIndex,
    EffectSummary,
    _iter_own_nodes,
)
from repro.lint.findings import Finding
from repro.lint.module import ClassSummary, ModuleInfo, dotted_name
from repro.lint.registry import Rule, register_rule

_DETECTOR_ROOT = "repro.core.detector.DeadlockDetector"


def _effect_index(module: ModuleInfo) -> Optional[EffectIndex]:
    index = getattr(module, "effect_index", None)
    if isinstance(index, EffectIndex):
        return index
    return None


def _class_index(module: ModuleInfo) -> Dict[str, ClassSummary]:
    index = getattr(module, "class_index", None)
    if isinstance(index, dict):
        return index
    return {}


def _detector_chain(
    cls: ClassSummary, index: Dict[str, ClassSummary]
) -> Optional[List[ClassSummary]]:
    """Ancestry up to (excluding) DeadlockDetector, or None."""
    chain: List[ClassSummary] = [cls]
    current = cls
    seen = {cls.qualname}
    while True:
        next_cls: Optional[ClassSummary] = None
        for base in current.bases:
            if base == _DETECTOR_ROOT or base.endswith(".DeadlockDetector"):
                return chain
            resolved = index.get(base) or index.get(
                f"{current.module}.{base}"
            )
            if resolved is not None and resolved.qualname not in seen:
                next_cls = resolved
                break
        if next_cls is None:
            return None
        chain.append(next_cls)
        seen.add(next_cls.qualname)
        current = next_cls


class _EffectRule(Rule):
    """Shared origin-aware reporting for the effect rules."""

    def _contract_finding(
        self,
        module: ModuleInfo,
        summary: EffectSummary,
        attr: str,
        what: str,
    ) -> Finding:
        origin_module, origin_qual, line, col = summary.trans_writes[attr]
        if origin_module == module.module_name:
            suffix = (
                ""
                if origin_qual == summary.qualname
                else f" (reached via {origin_qual})"
            )
            return self.finding(
                module,
                line,
                col,
                f"{what} writes '{attr}' outside its declared effect "
                f"contract{suffix}",
            )
        return self.finding(
            module,
            summary.lineno,
            summary.col,
            f"{what} writes '{attr}' outside its declared effect contract "
            f"via {origin_qual}",
        )


@register_rule
class PhaseContractRule(_EffectRule):
    code = "EFF001"
    summary = (
        "cycle phases and detector hooks must write only state their "
        "declared effect contract allows"
    )
    hint = (
        "move the write to a phase/hook whose contract covers it, extend "
        "PHASE_EFFECTS for the Simulator.step phases (with justification) "
        "if the contract itself is wrong, or line-waive with a rationale "
        "comment"
    )
    scopes = ("repro.network", "repro.core", "repro.faults")

    def check(self, module: ModuleInfo) -> Iterator[Finding]:
        effect_index = _effect_index(module)
        if effect_index is None:
            return
        class_index = _class_index(module)
        for cls in module.classes:
            for method in sorted(
                cls.methods & set(contracts.PHASE_METHODS)
            ):
                phase = contracts.PHASE_METHODS[method]
                yield from self._check_anchor(
                    module,
                    effect_index,
                    cls,
                    method,
                    contracts.PHASE_EFFECTS[phase],
                    f"phase '{phase}' ({cls.name}.{method})",
                )
            if _detector_chain(cls, class_index) is not None:
                for method in sorted(
                    cls.methods & set(contracts.HOOK_CONTRACTS)
                ):
                    yield from self._check_anchor(
                        module,
                        effect_index,
                        cls,
                        method,
                        contracts.HOOK_CONTRACTS[method].writes,
                        f"detector hook {cls.name}.{method}",
                    )

    def _check_anchor(
        self,
        module: ModuleInfo,
        effect_index: EffectIndex,
        cls: ClassSummary,
        method: str,
        allowed: FrozenSet[str],
        what: str,
    ) -> Iterator[Finding]:
        summary = effect_index.summary(f"{cls.qualname}.{method}")
        if summary is None:
            return
        for attr in sorted(set(summary.trans_writes) - allowed):
            yield self._contract_finding(module, summary, attr, what)


@register_rule
class WakeCoverageRule(_EffectRule):
    code = "EFF002"
    summary = (
        "a write that can unblock a parked waiter must reach an "
        "event-engine wake call"
    )
    hint = (
        "wake the affected waiters on the same path (clear route_asleep/"
        "move_asleep through the channel wake loops), or line-waive with "
        "a comment naming the caller that provably wakes afterwards"
    )
    scopes = ("repro.network", "repro.core", "repro.faults")

    def check(self, module: ModuleInfo) -> Iterator[Finding]:
        effect_index = _effect_index(module)
        if effect_index is None:
            return
        for qualname in sorted(effect_index.summaries):
            summary = effect_index.summaries[qualname]
            if summary.module_name != module.module_name:
                continue
            if summary.trans_wake:
                continue
            label = qualname[len(module.module_name) + 1:]
            for site in summary.writes:
                if site.obligation is None:
                    continue
                yield self.finding(
                    module,
                    site.line,
                    site.col,
                    f"write of '{site.attr}' ({site.obligation}) can "
                    "unblock a parked waiter, but no event-engine wake "
                    f"is reachable from {label}",
                )


_MATH_SANITIZERS = frozenset({"floor", "ceil", "trunc", "isqrt", "gcd", "comb"})


def _expr_tainted(expr: ast.expr, tainted: Set[str]) -> bool:
    """Whether evaluating ``expr`` can produce a float-contaminated value.

    Comparison results are bools and ``int(...)`` re-quantizes, so both
    stop the descent; ``/``, float literals, ``float()``/``math.*`` calls
    and already-tainted locals taint the whole expression.
    """
    stack: List[ast.AST] = [expr]
    while stack:
        node = stack.pop()
        if isinstance(node, ast.Compare):
            continue
        if isinstance(node, ast.Call):
            name = dotted_name(node.func)
            if name == "int":
                continue
            if name is not None:
                parts = name.split(".")
                if parts[0] == "math" and parts[-1] not in _MATH_SANITIZERS:
                    return True
                if parts[-1] in ("float", "perf_counter", "process_time"):
                    return True
            stack.extend(ast.iter_child_nodes(node))
            continue
        if isinstance(node, ast.Constant) and isinstance(node.value, float):
            return True
        if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Div):
            return True
        if isinstance(node, ast.Name) and node.id in tainted:
            return True
        stack.extend(ast.iter_child_nodes(node))
    return False


@register_rule
class FloatFlowRule(Rule):
    code = "EFF004"
    summary = (
        "no float arithmetic flowing into behavioural (digest-relevant) "
        "fields"
    )
    hint = (
        "behavioural state must stay integral for bit-identical digests: "
        "use //, integer thresholds, and int() at the boundary; floats "
        "belong in stats/telemetry fields only"
    )
    scopes = ("repro.network", "repro.core")

    def check(self, module: ModuleInfo) -> Iterator[Finding]:
        for func in ast.walk(module.tree):
            if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield from self._check_function(module, func)

    def _check_function(
        self, module: ModuleInfo, func: ast.AST
    ) -> Iterator[Finding]:
        assert isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef))
        tainted: Set[str] = set()
        changed = True
        while changed:
            changed = False
            for node in _iter_own_nodes(func):
                if isinstance(node, ast.Assign):
                    if _expr_tainted(node.value, tainted):
                        for target in node.targets:
                            if (
                                isinstance(target, ast.Name)
                                and target.id not in tainted
                            ):
                                tainted.add(target.id)
                                changed = True
                elif isinstance(node, ast.AugAssign) and isinstance(
                    node.target, ast.Name
                ):
                    if (
                        isinstance(node.op, ast.Div)
                        or _expr_tainted(node.value, tainted)
                    ) and node.target.id not in tainted:
                        tainted.add(node.target.id)
                        changed = True
        for node in _iter_own_nodes(func):
            if isinstance(node, ast.Assign):
                for target in node.targets:
                    if (
                        isinstance(target, ast.Attribute)
                        and target.attr in contracts.DOMAIN
                        and _expr_tainted(node.value, tainted)
                    ):
                        yield self.finding(
                            module,
                            node.lineno,
                            node.col_offset,
                            "float-tainted value written to behavioural "
                            f"field '{target.attr}'",
                        )
            elif isinstance(node, ast.AugAssign):
                if (
                    isinstance(node.target, ast.Attribute)
                    and node.target.attr in contracts.DOMAIN
                    and (
                        isinstance(node.op, ast.Div)
                        or _expr_tainted(node.value, tainted)
                    )
                ):
                    yield self.finding(
                        module,
                        node.lineno,
                        node.col_offset,
                        "float-tainted update of behavioural field "
                        f"'{node.target.attr}'",
                    )


@register_rule
class DeadlinePurityRule(Rule):
    code = "PROTO003"
    summary = (
        "blocked_deadline/probe_phase must not mutate detector state "
        "behind the caches, read wall-clock, or draw randomness"
    )
    hint = (
        "compute deadlines purely from channel counters (the cached "
        "value must stay a valid lower bound); move state updates into "
        "the routing hooks and randomness into seeded draws elsewhere"
    )
    scopes = ()  # detectors may live anywhere

    def check(self, module: ModuleInfo) -> Iterator[Finding]:
        effect_index = _effect_index(module)
        if effect_index is None:
            return
        class_index = _class_index(module)
        for cls in module.classes:
            if _detector_chain(cls, class_index) is None:
                continue
            if "blocked_deadline" in cls.methods:
                summary = effect_index.summary(
                    f"{cls.qualname}.blocked_deadline"
                )
                if summary is not None:
                    # Domain-attribute writes are EFF001's (the hook
                    # contract is empty); PROTO003 adds the rest of the
                    # purity surface: private-state mutation and time/
                    # randomness sources.
                    for site in summary.writes:
                        if site.attr in contracts.DOMAIN:
                            continue
                        yield self.finding(
                            module,
                            site.line,
                            site.col,
                            f"{cls.name}.blocked_deadline mutates "
                            f"'{site.attr}'; cached deadlines must stay "
                            "valid lower bounds",
                        )
                    yield from self._clock_and_rng(
                        module, cls, summary, "blocked_deadline"
                    )
            if "probe_phase" in cls.methods:
                summary = effect_index.summary(
                    f"{cls.qualname}.probe_phase"
                )
                if summary is not None:
                    yield from self._clock_and_rng(
                        module, cls, summary, "probe_phase"
                    )

    def _clock_and_rng(
        self,
        module: ModuleInfo,
        cls: ClassSummary,
        summary: EffectSummary,
        hook: str,
    ) -> Iterator[Finding]:
        for origin, verb in (
            (summary.trans_wallclock, "reads wall-clock time"),
            (summary.trans_rng, "draws randomness"),
        ):
            if origin is None:
                continue
            origin_module, origin_qual, line, col = origin
            if origin_module == module.module_name:
                suffix = (
                    ""
                    if origin_qual == summary.qualname
                    else f" (reached via {origin_qual})"
                )
                yield self.finding(
                    module,
                    line,
                    col,
                    f"{cls.name}.{hook} {verb}{suffix}; detection "
                    "scheduling must be cycle-deterministic",
                )
            else:
                yield self.finding(
                    module,
                    summary.lineno,
                    summary.col,
                    f"{cls.name}.{hook} {verb} via {origin_qual}; "
                    "detection scheduling must be cycle-deterministic",
                )
