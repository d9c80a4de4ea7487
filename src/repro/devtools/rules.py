"""The reprolint rule catalogue: RPR001–RPR010.

Each rule encodes one structural invariant the reproduction's headline
claims rest on (bit-identical seeded simulation runs, byte-identical CLI runs,
serial==process sweep equality, content-addressable runs):

========  ==============================================================
RPR001    no unseeded / global-state randomness in library code
RPR002    ``GraphView`` CSR arrays are written only by ``network/views.py``
RPR003    spec/report/trajectory dataclasses are frozen and JSON-typed
RPR004    no calls to deprecated APIs (``register_deprecation`` registry)
RPR005    no calendar-clock reads in library code (benchmarks exempt)
RPR006    plugin registrations are import-time, string-literal-keyed
RPR007    no mutable default arguments or module-level mutable singletons
RPR008    store writes are atomic (service/store.py only) and artifact
          ``to_dict`` documents carry a ``schema_version``
RPR009    timer reads (monotonic/perf_counter) go through
          ``repro.obs.clock`` (benchmarks and obs/clock.py exempt)
RPR010    no builtin ``sum()``: totals go through
          ``repro.determinism.ordered_sum``
========  ==============================================================

Rules register into :data:`RULES` — the same string-keyed
:class:`~repro.scenarios.registry.Registry` idiom the scenario plugins
use — so a new rule is a subclass plus a decorator::

    @register_rule("RPR011")
    class NoPrintRule(Rule):
        rule_id = "RPR011"
        ...

The deprecation list of RPR004 is itself a tiny registry: call
:func:`register_deprecation` (at import time, from ``conftest`` or a
plugin) to extend it.
"""

from __future__ import annotations

import ast
import re
from typing import Dict, Optional

from ..scenarios.registry import Registry
from .engine import Rule

__all__ = [
    "RULES",
    "register_rule",
    "register_deprecation",
    "UnseededRandomnessRule",
    "BuiltinSumRule",
    "GraphViewWriteRule",
    "FrozenArtifactRule",
    "DeprecatedCallRule",
    "WallClockRule",
    "RegistrationDisciplineRule",
    "MutableStateRule",
    "StoreHygieneRule",
    "ClockDisciplineRule",
]

#: Lint rules, keyed by rule id. Iteration order is sorted, so the
#: engine's default rule set is stable.
RULES = Registry("lint-rule")
register_rule = RULES.register


# ---------------------------------------------------------------------------
# RPR001 — randomness must flow from derived seeds
# ---------------------------------------------------------------------------

#: numpy.random attributes that are seedable constructors/classes, not
#: global-state entry points.
_SAFE_NP_RANDOM = frozenset({
    "default_rng", "Generator", "BitGenerator", "SeedSequence",
    "PCG64", "PCG64DXSM", "Philox", "SFC64", "MT19937",
})


@register_rule("RPR001")
class UnseededRandomnessRule(Rule):
    rule_id = "RPR001"
    title = "unseeded-randomness"
    description = (
        "All randomness must flow from explicit, derived seeds: no stdlib "
        "`random.*` module calls, no `np.random.*` global-state calls, no "
        "`default_rng()` / `SeedSequence()` without an argument."
    )

    def visit_Call(self, node: ast.Call) -> None:
        full = self.ctx.resolve(node.func)
        if full is None:
            return
        if full.startswith("random.") and full.count(".") == 1:
            self.report(
                node,
                f"stdlib `{full}` uses hidden global RNG state; derive a "
                "`np.random.Generator` from the scenario seed instead",
            )
            return
        if not full.startswith("numpy.random."):
            return
        attr = full[len("numpy.random."):]
        if "." in attr:
            return
        has_args = bool(node.args or node.keywords)
        if attr == "default_rng":
            if not has_args:
                self.report(
                    node,
                    "`default_rng()` without a seed is entropy-based and "
                    "unreplayable; pass a seed derived via "
                    "`repro.determinism.resolve_seed` / `derive_seed`",
                )
        elif attr == "SeedSequence":
            if not has_args:
                self.report(
                    node,
                    "`SeedSequence()` with no entropy argument draws OS "
                    "entropy; use `repro.determinism.resolve_seed` so the "
                    "drawn seed is logged and replayable",
                )
        elif attr not in _SAFE_NP_RANDOM:
            self.report(
                node,
                f"`np.random.{attr}` call uses numpy's global RNG state; "
                "use a seeded `np.random.Generator`",
            )


# ---------------------------------------------------------------------------
# RPR010 — totals add in one order on every interpreter
# ---------------------------------------------------------------------------


@register_rule("RPR010")
class BuiltinSumRule(Rule):
    rule_id = "RPR010"
    title = "builtin-sum"
    description = (
        "Totals go through `repro.determinism.ordered_sum`: the builtin "
        "`sum()` adds floats left to right on Python 3.11 and with "
        "compensation on 3.12, so a total that feeds a result or a hash "
        "would take other bits on another interpreter."
    )

    def visit_Call(self, node: ast.Call) -> None:
        func = node.func
        if (
            isinstance(func, ast.Name)
            and func.id == "sum"
            and "sum" not in self.ctx.imports
        ):
            self.report(
                node,
                "builtin `sum()` adds floats in an interpreter-dependent "
                "order; use `repro.determinism.ordered_sum`",
            )


# ---------------------------------------------------------------------------
# RPR002 — GraphView arrays are immutable outside network/views.py
# ---------------------------------------------------------------------------

#: The CSR/parallel arrays of :class:`repro.network.views.GraphView`.
_VIEW_FIELDS = frozenset({
    "indptr", "indices", "edge_ids", "balances", "capacities",
    "fee_base", "fee_rate",
})
#: ndarray methods that mutate in place.
_NDARRAY_MUTATORS = frozenset({
    "fill", "sort", "partition", "put", "resize", "setfield",
})
_VIEWS_MODULE = "network/views.py"


@register_rule("RPR002")
class GraphViewWriteRule(Rule):
    rule_id = "RPR002"
    title = "graphview-write"
    description = (
        "GraphView CSR arrays (indptr/indices/edge_ids/balances/...) are "
        "shared, version-cached snapshots: any write outside "
        "network/views.py corrupts every consumer. Copy first "
        "(`view.balances.copy()`)."
    )

    def _exempt(self) -> bool:
        return self.ctx.path.endswith(_VIEWS_MODULE)

    @staticmethod
    def _foreign_field(node: ast.AST) -> Optional[str]:
        """``X.balances`` where ``X`` is not ``self`` -> ``"balances"``."""
        if (
            isinstance(node, ast.Attribute)
            and node.attr in _VIEW_FIELDS
            and not (
                isinstance(node.value, ast.Name) and node.value.id == "self"
            )
        ):
            return node.attr
        return None

    def _check_store(self, target: ast.AST) -> None:
        if isinstance(target, (ast.Tuple, ast.List)):
            for element in target.elts:
                self._check_store(element)
            return
        if isinstance(target, ast.Subscript):
            f = self._foreign_field(target.value)
            if f is not None:
                self.report(
                    target,
                    f"write into GraphView array `{f}` outside "
                    "network/views.py; views are immutable snapshots — "
                    "copy the array first",
                )
            return
        f = self._foreign_field(target)
        if f is not None:
            self.report(
                target,
                f"rebinding GraphView field `{f}` outside network/views.py",
            )

    def visit_Assign(self, node: ast.Assign) -> None:
        if self._exempt():
            return
        for target in node.targets:
            self._check_store(target)

    def visit_AugAssign(self, node: ast.AugAssign) -> None:
        if not self._exempt():
            self._check_store(node.target)

    def visit_AnnAssign(self, node: ast.AnnAssign) -> None:
        if not self._exempt() and node.value is not None:
            self._check_store(node.target)

    def visit_Call(self, node: ast.Call) -> None:
        if self._exempt():
            return
        func = node.func
        if (
            isinstance(func, ast.Attribute)
            and func.attr in _NDARRAY_MUTATORS
        ):
            f = self._foreign_field(func.value)
            if f is not None:
                self.report(
                    node,
                    f"in-place `{func.attr}()` on GraphView array `{f}` "
                    "outside network/views.py",
                )


# ---------------------------------------------------------------------------
# RPR003 — result artifacts are frozen and JSON-typed
# ---------------------------------------------------------------------------

_ARTIFACT_SUFFIXES = ("Spec", "Report", "Record", "Trajectory")
_ARTIFACT_NAMES = frozenset({"Scenario"})
#: Annotation identifiers that provably do not survive a JSON round trip.
_NON_JSON_TYPES = frozenset({
    "ndarray", "Callable", "ChannelGraph", "GraphView", "Generator",
    "bytes", "bytearray", "complex", "set", "Set", "frozenset",
    "FrozenSet", "deque", "Deque", "defaultdict", "DefaultDict",
})
_IDENT_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")


@register_rule("RPR003")
class FrozenArtifactRule(Rule):
    rule_id = "RPR003"
    title = "frozen-artifact"
    description = (
        "Dataclasses named *Spec/*Report/*Record/*Trajectory (and "
        "Scenario) are result artifacts: they must be "
        "@dataclass(frozen=True) and must not declare fields of "
        "known non-JSON types (ndarray, Callable, ChannelGraph, sets, ...)."
    )

    def _dataclass_decorator(self, node: ast.ClassDef) -> Optional[ast.AST]:
        for deco in node.decorator_list:
            target = deco.func if isinstance(deco, ast.Call) else deco
            name = None
            if isinstance(target, ast.Name):
                name = target.id
            elif isinstance(target, ast.Attribute):
                name = target.attr
            if name == "dataclass":
                return deco
        return None

    @staticmethod
    def _is_frozen(deco: ast.AST) -> bool:
        if not isinstance(deco, ast.Call):
            return False
        for keyword in deco.keywords:
            if keyword.arg == "frozen":
                value = keyword.value
                return isinstance(value, ast.Constant) and value.value is True
        return False

    @staticmethod
    def _annotation_idents(annotation: ast.AST) -> set:
        idents = set()
        for sub in ast.walk(annotation):
            if isinstance(sub, ast.Name):
                idents.add(sub.id)
            elif isinstance(sub, ast.Attribute):
                idents.add(sub.attr)
            elif isinstance(sub, ast.Constant) and isinstance(sub.value, str):
                idents.update(_IDENT_RE.findall(sub.value))
        return idents

    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        name = node.name
        if not (
            name.endswith(_ARTIFACT_SUFFIXES) or name in _ARTIFACT_NAMES
        ):
            return
        deco = self._dataclass_decorator(node)
        if deco is None:
            return
        if not self._is_frozen(deco):
            self.report(
                node,
                f"artifact dataclass `{name}` must be "
                "@dataclass(frozen=True): reports and specs are shared "
                "across process boundaries and hashed for addressing",
            )
        for stmt in node.body:
            if not isinstance(stmt, ast.AnnAssign):
                continue
            idents = self._annotation_idents(stmt.annotation)
            if "ClassVar" in idents:
                continue
            bad = sorted(idents & _NON_JSON_TYPES)
            if bad:
                field_name = (
                    stmt.target.id
                    if isinstance(stmt.target, ast.Name) else "<field>"
                )
                self.report(
                    stmt,
                    f"artifact dataclass `{name}` field `{field_name}` has "
                    f"non-JSON-serialisable annotation ({', '.join(bad)}); "
                    "artifacts must round-trip through plain JSON types",
                )


# ---------------------------------------------------------------------------
# RPR004 — deprecated API calls
# ---------------------------------------------------------------------------

#: Deprecated call names -> migration advice. Import-time extensible via
#: :func:`register_deprecation`; mutated in place, never reassigned — the
#: lint-time analogue of the plugin registries. Empty since the
#: ``to_undirected`` / ``to_directed`` deprecation cycle completed (the
#: wrappers were removed outright); the next deprecation starts here.
_DEPRECATED_CALLS: Dict[str, str] = {}


def register_deprecation(name: str, advice: str) -> None:
    """Extend RPR004's deprecation list (call at import time)."""
    _DEPRECATED_CALLS[name] = advice


@register_rule("RPR004")
class DeprecatedCallRule(Rule):
    rule_id = "RPR004"
    title = "deprecated-call"
    description = (
        "Calls to APIs on the repo deprecation list (extensible via "
        "register_deprecation; empty between deprecation cycles). "
        "Deprecated wrappers warn at runtime; library code must not "
        "trip its own deprecations."
    )

    def visit_Call(self, node: ast.Call) -> None:
        func = node.func
        name = None
        if isinstance(func, ast.Attribute):
            name = func.attr
        elif isinstance(func, ast.Name):
            name = func.id
        if name in _DEPRECATED_CALLS:
            self.report(
                node,
                f"call to deprecated `{name}()`; {_DEPRECATED_CALLS[name]}",
            )


# ---------------------------------------------------------------------------
# RPR005 — wall clock in library code
# ---------------------------------------------------------------------------

#: Calendar clocks — absolute dates/times; RPR009 owns the timer family.
_WALL_CLOCK = frozenset({
    "time.time", "time.time_ns",
    "datetime.datetime.now", "datetime.datetime.utcnow",
    "datetime.datetime.today", "datetime.date.today",
})
_WALL_CLOCK_EXEMPT_PREFIXES = ("benchmarks/",)


@register_rule("RPR005")
class WallClockRule(Rule):
    rule_id = "RPR005"
    title = "wall-clock"
    description = (
        "Library code must not read the calendar clock (time.time, "
        "datetime.now, ...): simulated time comes from the event queue, "
        "and timing belongs in benchmarks/ (exempt). Elapsed-time "
        "measurement goes through repro.obs.clock (RPR009)."
    )

    def visit_Call(self, node: ast.Call) -> None:
        if self.ctx.path.startswith(_WALL_CLOCK_EXEMPT_PREFIXES):
            return
        full = self.ctx.resolve(node.func)
        if full in _WALL_CLOCK:
            self.report(
                node,
                f"wall-clock call `{full}` in library code breaks run "
                "replayability; use simulation time, or move timing into "
                "benchmarks/",
            )


# ---------------------------------------------------------------------------
# RPR006 — import-time, literal-keyed plugin registration
# ---------------------------------------------------------------------------

_REGISTRAR_RE = re.compile(r"^register_[a-z0-9_]+$")
#: register_* callables that are *not* plugin registries (event wiring).
_REGISTRAR_EXEMPT = frozenset({"register_handler"})


@register_rule("RPR006")
class RegistrationDisciplineRule(Rule):
    rule_id = "RPR006"
    title = "registration-discipline"
    description = (
        "Plugin registrations (`register_topology(...)`, "
        "`SOMETHING.register(...)`) must happen at import time with "
        "string-literal keys, so registry contents are identical in "
        "every process of a sweep and keys are grep-able."
    )

    def visit_Call(self, node: ast.Call) -> None:
        func = node.func
        name = None
        if isinstance(func, ast.Name):
            if (
                _REGISTRAR_RE.match(func.id)
                and func.id not in _REGISTRAR_EXEMPT
            ):
                name = func.id
        elif isinstance(func, ast.Attribute) and func.attr == "register":
            base = func.value
            if isinstance(base, ast.Name) and base.id.isupper():
                name = f"{base.id}.register"
        if name is None:
            return
        if self.ctx.function_depth > 0:
            self.report(
                node,
                f"`{name}(...)` inside a function: registrations must run "
                "at import time, or process-parallel sweeps see diverging "
                "registries",
            )
        for arg in node.args:
            if not (
                isinstance(arg, ast.Constant) and isinstance(arg.value, str)
            ):
                self.report(
                    arg,
                    f"`{name}(...)` key is not a string literal; registry "
                    "keys must be import-time literals (grep-able, "
                    "spec-hash stable)",
                )


# ---------------------------------------------------------------------------
# RPR007 — mutable defaults and module-level mutable singletons
# ---------------------------------------------------------------------------

_MUTABLE_FACTORIES = frozenset({
    "dict", "list", "set", "defaultdict", "deque", "OrderedDict", "Counter",
})


def _mutable_default(node: ast.AST) -> Optional[str]:
    if isinstance(node, ast.List):
        return "[]" if not node.elts else "[...]"
    if isinstance(node, ast.Dict):
        return "{}" if not node.keys else "{...}"
    if isinstance(node, ast.Set):
        return "{...}"
    if isinstance(node, ast.Call):
        name = None
        if isinstance(node.func, ast.Name):
            name = node.func.id
        elif isinstance(node.func, ast.Attribute):
            name = node.func.attr
        if name in _MUTABLE_FACTORIES:
            return f"{name}(...)"
    return None


@register_rule("RPR007")
class MutableStateRule(Rule):
    rule_id = "RPR007"
    title = "mutable-shared-state"
    description = (
        "No mutable default arguments (shared across calls) and no "
        "module-level empty-container singletons (shared across runs, "
        "diverge across sweep processes). Use None-defaults and "
        "instance/registry state instead."
    )

    def _check_defaults(self, args: ast.arguments) -> None:
        for default in list(args.defaults) + [
            d for d in args.kw_defaults if d is not None
        ]:
            shape = _mutable_default(default)
            if shape is not None:
                self.report(
                    default,
                    f"mutable default argument `{shape}` is shared across "
                    "calls; default to None and create per call",
                )

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self._check_defaults(node.args)

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        self._check_defaults(node.args)

    def visit_Lambda(self, node: ast.Lambda) -> None:
        self._check_defaults(node.args)

    def visit_Assign(self, node: ast.Assign) -> None:
        if self.ctx.function_depth or self.ctx.class_depth:
            return
        value = node.value
        empty = (
            (isinstance(value, ast.List) and not value.elts)
            or (isinstance(value, ast.Dict) and not value.keys)
            or (
                isinstance(value, ast.Call)
                and isinstance(value.func, ast.Name)
                and value.func.id in ("dict", "list", "set")
                and not value.args and not value.keywords
            )
        )
        if not empty:
            return
        for target in node.targets:
            if isinstance(target, ast.Name) and not (
                target.id.startswith("__") and target.id.endswith("__")
            ):
                self.report(
                    node,
                    f"module-level mutable singleton `{target.id}`: "
                    "accumulator state at module scope diverges across "
                    "sweep worker processes; move it into a class or "
                    "registry object",
                )


# ---------------------------------------------------------------------------
# RPR008 — store-write atomicity and versioned artifact serialisation
# ---------------------------------------------------------------------------

#: The one module allowed to write into a result store directly — its
#: tmp+rename dance is what makes concurrent store access crash-safe.
_STORE_MODULE = "service/store.py"
#: Artifact classes whose ``to_dict`` must stamp a schema version.
_VERSIONED_SUFFIXES = ("Report", "Trajectory", "Result")
_VERSIONED_NAMES = frozenset({"Scenario"})
_WRITE_MODE_RE = re.compile(r"[wax+]")


def _mentions_store(node: ast.AST) -> bool:
    """Whether an expression's identifiers smell like a store path."""
    for sub in ast.walk(node):
        name = None
        if isinstance(sub, ast.Name):
            name = sub.id
        elif isinstance(sub, ast.Attribute):
            name = sub.attr
        elif isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            name = sub.value
        if name is not None and "store" in name.lower():
            return True
    return False


@register_rule("RPR008")
class StoreHygieneRule(Rule):
    rule_id = "RPR008"
    title = "store-hygiene"
    description = (
        "Result-store entries are written only by service/store.py "
        "(atomic tmp+rename; a direct `open(store_path, 'w')` elsewhere "
        "can expose half-written JSON to concurrent readers), and "
        "artifact `to_dict` documents (Scenario, *Report, *Trajectory, "
        "*Result) must stamp a `schema_version` so stored payloads "
        "invalidate cleanly when their layout changes."
    )

    def _exempt(self) -> bool:
        return self.ctx.path.endswith(_STORE_MODULE)

    def visit_Call(self, node: ast.Call) -> None:
        if self._exempt():
            return
        func = node.func
        # open(path_mentioning_store, "w"/"a"/"x"/"+")
        if isinstance(func, ast.Name) and func.id == "open" and node.args:
            mode = None
            if len(node.args) > 1:
                mode = node.args[1]
            for keyword in node.keywords:
                if keyword.arg == "mode":
                    mode = keyword.value
            if (
                isinstance(mode, ast.Constant)
                and isinstance(mode.value, str)
                and _WRITE_MODE_RE.search(mode.value)
                and _mentions_store(node.args[0])
            ):
                self.report(
                    node,
                    "non-atomic write into a store directory: concurrent "
                    "readers can observe the half-written entry; go "
                    "through `ResultStore.put` (atomic tmp+rename) instead",
                )
            return
        # store_path.write_text(...) / .write_bytes(...)
        if (
            isinstance(func, ast.Attribute)
            and func.attr in ("write_text", "write_bytes")
            and _mentions_store(func.value)
        ):
            self.report(
                node,
                f"`{func.attr}()` on a store path bypasses the store's "
                "atomic tmp+rename protocol; use `ResultStore.put`",
            )

    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        name = node.name
        if not (
            name.endswith(_VERSIONED_SUFFIXES) or name in _VERSIONED_NAMES
        ):
            return
        for stmt in node.body:
            if (
                isinstance(stmt, ast.FunctionDef)
                and stmt.name == "to_dict"
                and not self._stamps_version(stmt)
            ):
                self.report(
                    stmt,
                    f"`{name}.to_dict` emits an unversioned document; "
                    "include a `schema_version` key so stored artifacts "
                    "invalidate cleanly when the layout changes",
                )

    @staticmethod
    def _stamps_version(func: ast.FunctionDef) -> bool:
        for sub in ast.walk(func):
            if (
                isinstance(sub, ast.Constant)
                and sub.value == "schema_version"
            ):
                return True
        return False


# ---------------------------------------------------------------------------
# RPR009 — timer reads go through repro.obs.clock
# ---------------------------------------------------------------------------

#: Timer-family clocks (elapsed time, no calendar meaning) — disjoint
#: from RPR005's calendar set, so each fixture trips exactly one rule.
_TIMER_CLOCK = frozenset({
    "time.monotonic", "time.monotonic_ns",
    "time.perf_counter", "time.perf_counter_ns",
})
_TIMER_EXEMPT_PREFIXES = ("benchmarks/",)
_TIMER_HOME_SUFFIX = "obs/clock.py"


@register_rule("RPR009")
class ClockDisciplineRule(Rule):
    rule_id = "RPR009"
    title = "clock-discipline"
    description = (
        "Elapsed-time measurement goes through `repro.obs.clock` "
        "(the one injectable, fake-able timer source): direct "
        "`time.monotonic`/`time.perf_counter` calls outside obs/clock.py "
        "and benchmarks/ fragment the timing discipline and dodge "
        "FakeClock-based tests."
    )

    def visit_Call(self, node: ast.Call) -> None:
        path = self.ctx.path
        if path.startswith(_TIMER_EXEMPT_PREFIXES):
            return
        if path.endswith(_TIMER_HOME_SUFFIX):
            return
        full = self.ctx.resolve(node.func)
        if full in _TIMER_CLOCK:
            self.report(
                node,
                f"timer call `{full}` bypasses repro.obs.clock; import "
                "`monotonic` from repro.obs.clock so tests can inject a "
                "FakeClock",
            )
