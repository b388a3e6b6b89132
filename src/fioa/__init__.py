"""Compositional workbench for finite input/output automata.

Build machines (:mod:`fioa.core`), compose them with the weak product
(:mod:`fioa.product`), couple them through channels or coordination
conditions (:mod:`fioa.channels`, :mod:`fioa.conditions`,
:mod:`fioa.network`), analyze the results (:mod:`fioa.analysis`),
execute deterministic ones (:mod:`fioa.executor`), and move everything
through text and diagrams (:mod:`fioa.dsl`, :mod:`fioa.dot`,
:mod:`fioa.cli`).

Names load on first use: ``import fioa`` imports no submodule, and
``fioa.cbr`` (or ``from fioa import cbr``) imports :mod:`fioa.channels`
the first time it is read.  So a ``fioa`` command loads only the modules
it runs.
"""

from importlib import import_module

__version__ = "0.1.0"

# Each public name, under the submodule that defines it.
_EXPORTS = {
    "analysis": """LAWS LawReport SafetyReport TraceEquivalence check_law random_nfioa
        run_law_suite safety_query trace_equivalent trace_language""",
    "channels": """Channel ConfigGraph Configuration Consistency Edge EdgeClass
        RestrictedAutomaton Run WellFormedness cbr channel_str config_str edge_census
        enabled flatten is_consistent is_protocol is_well_formed open_components run""",
    "conditions": """Condition IoPattern QuasiDeterminism Scope cond cond_strict
        is_consistent_cond is_quasi_deterministic is_unaffected""",
    "core": """EPSILON Acceptance AutomatonClass ComponentAlphabet EqualityReport Nfioa
        Projection Transition automata_equal classify project prune reachable_states
        require_valid validate with_initial""",
    "dot": "export_dot",
    "dsl": """Directive NetFactor NetworkDef ResolvedDocument WorkbenchDocument parse
        resolve serialize""",
    "errors": """CapacityExceeded DslError InvalidAutomaton PreconditionError
        SchedulerError StepRejected WiringError WorkbenchError""",
    "executor": "FiniteSystem drive render_trace specifies step system_from_dfioa",
    "network": """BuiltNetwork ChannelSpec CompiledNetwork ConditionSpec FactorRef
        NetworkSpec PatternSpec build_network compile_network""",
    "product": "LazyProduct ProductIndex acceptance_within weak_product",
}
_ORIGIN = {name: module for module, names in _EXPORTS.items() for name in names.split()}
_SUBMODULES = {*_EXPORTS, "cli", "examples"}

__all__ = list(_ORIGIN)


def __getattr__(name: str):
    """Import a public name's submodule (or a submodule) on first access;
    the value is then a module global, so later lookups skip this."""
    if name in _ORIGIN:
        value = getattr(import_module(f".{_ORIGIN[name]}", __name__), name)
    elif name in _SUBMODULES:
        value = import_module(f".{name}", __name__)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_ORIGIN, *_SUBMODULES})
