"""The repro contract rules (RPR001–RPR007).

Each rule encodes one of the engine's unwritten correctness contracts; see
``docs/LINTING.md`` for the catalogue with rationale.  Rules are pure
functions over the :class:`~repro.devtools.lint.framework.ProjectModel` —
they never import or execute the code under analysis.
"""

from __future__ import annotations

import ast
import re
from typing import Dict, Iterable, Iterator, List, Optional, Set, Tuple

from .framework import (
    ClassInfo,
    Finding,
    LintConfig,
    ModuleInfo,
    ProjectModel,
    rule,
)

__all__ = ["register_builtin_rules"]


def _in_engine(module: ModuleInfo, config: LintConfig) -> bool:
    return module.rel_path.startswith(tuple(config.engine_prefixes))


def _symbol(*parts: Optional[str]) -> str:
    return ".".join(p for p in parts if p) or "<module>"


def _walk_functions(
    tree: ast.Module,
) -> Iterator[Tuple[Optional[ast.ClassDef], ast.FunctionDef]]:
    """Yield ``(enclosing_class_or_None, function)`` pairs, outermost first."""

    def visit(node: ast.AST, owner: Optional[ast.ClassDef]) -> Iterator:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                yield from visit(child, child)
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield owner, child
                yield from visit(child, owner)
            else:
                yield from visit(child, owner)

    yield from visit(tree, None)


# --------------------------------------------------------------------------
# RPR001 — determinism
# --------------------------------------------------------------------------

_NONDET_TIME_ATTRS = frozenset(
    {
        "time",
        "time_ns",
        "monotonic",
        "monotonic_ns",
        "perf_counter",
        "perf_counter_ns",
        "clock_gettime",
    }
)

_SET_TYPE_NAMES = frozenset(
    {"set", "frozenset", "Set", "FrozenSet", "MutableSet", "AbstractSet"}
)
_DICT_TYPE_NAMES = frozenset({"dict", "Dict", "Mapping", "MutableMapping", "DefaultDict"})
_SET_RETURNING_METHODS = frozenset(
    {"union", "intersection", "difference", "symmetric_difference", "copy"}
)
#: Wrapping one of these around a set expression makes the result
#: order-insensitive, so iteration inside them is exempt.
_ORDER_INSENSITIVE_WRAPPERS = frozenset(
    {"sorted", "min", "max", "sum", "len", "any", "all", "set", "frozenset", "Counter"}
)


def _ann_is_set(node: Optional[ast.expr]) -> bool:
    if node is None:
        return False
    if isinstance(node, ast.Name):
        return node.id in _SET_TYPE_NAMES
    if isinstance(node, ast.Attribute):
        return node.attr in _SET_TYPE_NAMES
    if isinstance(node, ast.Subscript):
        return _ann_is_set(node.value)
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value.split("[", 1)[0].strip() in _SET_TYPE_NAMES
    return False


def _ann_is_dict_of_set(node: Optional[ast.expr]) -> bool:
    """True for ``Dict[K, set]``-shaped annotations."""
    if not isinstance(node, ast.Subscript):
        return False
    head = node.value
    head_name = head.id if isinstance(head, ast.Name) else getattr(head, "attr", None)
    if head_name not in _DICT_TYPE_NAMES:
        return False
    args = node.slice
    if isinstance(args, ast.Tuple) and len(args.elts) == 2:
        return _ann_is_set(args.elts[1])
    return False


class _SetTyping:
    """Best-effort, purely syntactic set-typedness inference for one function."""

    def __init__(self, cls: Optional[ClassInfo], func: ast.FunctionDef) -> None:
        self.cls = cls
        self.local_sets: Set[str] = set()
        self.local_values: Dict[str, ast.expr] = {}
        for arg in list(func.args.args) + list(func.args.kwonlyargs):
            if _ann_is_set(arg.annotation):
                self.local_sets.add(arg.arg)
        for node in ast.walk(func):
            if isinstance(node, ast.Assign):
                for target in node.targets:
                    if isinstance(target, ast.Name):
                        self.local_values[target.id] = node.value
            elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
                if _ann_is_set(node.annotation):
                    self.local_sets.add(node.target.id)
                elif node.value is not None:
                    self.local_values[node.target.id] = node.value

    def is_set(self, node: ast.expr, depth: int = 0) -> bool:
        if depth > 6:
            return False
        if isinstance(node, (ast.Set, ast.SetComp)):
            return True
        if isinstance(node, ast.Call):
            func = node.func
            if isinstance(func, ast.Name) and func.id in {"set", "frozenset"}:
                return True
            if isinstance(func, ast.Attribute):
                if func.attr in _SET_RETURNING_METHODS:
                    return self.is_set(func.value, depth + 1)
                if func.attr in {"get", "pop", "setdefault"}:
                    return self._is_dict_of_set(func.value)
            return False
        if isinstance(node, ast.Name):
            if node.id in self.local_sets:
                return True
            value = self.local_values.get(node.id)
            return value is not None and self.is_set(value, depth + 1)
        if isinstance(node, ast.Attribute):
            if isinstance(node.value, ast.Name) and node.value.id == "self" and self.cls:
                return _ann_is_set(self.cls.attr_annotations.get(node.attr))
            return False
        if isinstance(node, ast.BinOp) and isinstance(
            node.op, (ast.BitOr, ast.BitAnd, ast.Sub, ast.BitXor)
        ):
            return self.is_set(node.left, depth + 1) or self.is_set(node.right, depth + 1)
        if isinstance(node, ast.IfExp):
            return self.is_set(node.body, depth + 1) or self.is_set(node.orelse, depth + 1)
        return False

    def _is_dict_of_set(self, node: ast.expr) -> bool:
        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id == "self"
            and self.cls is not None
        ):
            return _ann_is_dict_of_set(self.cls.attr_annotations.get(node.attr))
        if isinstance(node, ast.Name):
            value = self.local_values.get(node.id)
            return value is not None and self._is_dict_of_set(value)
        return False


def _iteration_sites(func: ast.FunctionDef) -> Iterator[Tuple[ast.expr, ast.AST]]:
    """Yield ``(iterable_expr, site_node)`` for every ordered iteration."""
    for node in ast.walk(func):
        if isinstance(node, ast.For):
            yield node.iter, node
        elif isinstance(node, (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)):
            for comp in node.generators:
                yield comp.iter, node
        elif isinstance(node, ast.Call):
            name = node.func.id if isinstance(node.func, ast.Name) else None
            if name in {"list", "tuple"} and node.args:
                yield node.args[0], node


def _order_insensitive_parents(func: ast.FunctionDef) -> Set[int]:
    """ids of nodes directly wrapped by an order-insensitive consumer."""
    wrapped: Set[int] = set()
    for node in ast.walk(func):
        if isinstance(node, ast.Call):
            name = node.func.id if isinstance(node.func, ast.Name) else None
            if name in _ORDER_INSENSITIVE_WRAPPERS:
                for arg in node.args:
                    wrapped.add(id(arg))
                    # sorted(x for x in s) — exempt the comprehension too.
                    if isinstance(
                        arg, (ast.GeneratorExp, ast.ListComp, ast.SetComp)
                    ):
                        for comp in arg.generators:
                            wrapped.add(id(comp.iter))
    return wrapped


@rule(
    "RPR001",
    "determinism",
    "no unseeded randomness/clock reads in engine modules; no raw set "
    "iteration in order-critical methods",
)
def check_determinism(model: ProjectModel, config: LintConfig) -> Iterable[Finding]:
    findings: List[Finding] = []
    order_critical = set(config.order_critical_functions)
    for module in model.modules:
        if not _in_engine(module, config):
            continue

        # Part 1: nondeterministic sources anywhere in the module.
        from_random: Set[str] = set()
        for node in ast.walk(module.tree):
            if isinstance(node, ast.ImportFrom) and node.module == "random":
                for alias in node.names:
                    if alias.name != "Random":
                        from_random.add(alias.asname or alias.name)
                        findings.append(
                            Finding(
                                code="RPR001",
                                path=module.display_path,
                                line=node.lineno,
                                col=node.col_offset,
                                symbol="<module>",
                                message=(
                                    f"import of random.{alias.name} — engine modules may "
                                    "only use explicitly seeded random.Random(seed)"
                                ),
                            )
                        )
            elif isinstance(node, ast.Call):
                func = node.func
                bad: Optional[str] = None
                if isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name):
                    owner, attr = func.value.id, func.attr
                    if owner == "random" and attr != "Random":
                        bad = f"random.{attr}"
                    elif owner == "time" and attr in _NONDET_TIME_ATTRS:
                        bad = f"time.{attr}"
                    elif owner == "os" and attr == "urandom":
                        bad = "os.urandom"
                    elif owner == "secrets":
                        bad = f"secrets.{attr}"
                    elif owner == "uuid" and attr.startswith("uuid"):
                        bad = f"uuid.{attr}"
                elif isinstance(func, ast.Name) and func.id in from_random:
                    bad = f"random.{func.id}"
                if bad is not None:
                    findings.append(
                        Finding(
                            code="RPR001",
                            path=module.display_path,
                            line=node.lineno,
                            col=node.col_offset,
                            symbol="<module>",
                            message=(
                                f"call to {bad}() — nondeterministic source in an engine "
                                "module; thread an explicit random.Random(seed) instead"
                            ),
                        )
                    )

        # Part 2: raw set iteration inside order-critical methods.
        for owner, func in _walk_functions(module.tree):
            if func.name not in order_critical:
                continue
            cls = model.classes.get(owner.name) if owner is not None else None
            typing_info = _SetTyping(cls, func)
            exempt = _order_insensitive_parents(func)
            for iterable, site in _iteration_sites(func):
                if id(iterable) in exempt:
                    continue
                if not typing_info.is_set(iterable):
                    continue
                findings.append(
                    Finding(
                        code="RPR001",
                        path=module.display_path,
                        line=site.lineno,
                        col=site.col_offset,
                        symbol=_symbol(owner.name if owner else None, func.name),
                        message=(
                            "iteration over a raw set inside order-critical method "
                            f"{func.name}() — wrap in sorted(...) so activation "
                            "selection and hand-off order are bit-reproducible"
                        ),
                    )
                )
    return findings


# --------------------------------------------------------------------------
# RPR002 — slots
# --------------------------------------------------------------------------


def _is_exempt_from_slots(model: ProjectModel, info: ClassInfo) -> bool:
    from .framework import _ENUM_BASES  # stable private constant

    names = {info.name, *info.bases}
    for ancestor in model.ancestors(info.name):
        names.add(ancestor.name)
        names.update(ancestor.bases)
    if names & _ENUM_BASES:
        return True
    if any(n.endswith(("Error", "Exception", "Warning")) for n in names):
        return True
    if "NamedTuple" in names or "Protocol" in names or "TypedDict" in names:
        return True
    return False


@rule(
    "RPR002",
    "slots",
    "classes in declared hot-path modules must define __slots__",
)
def check_slots(model: ProjectModel, config: LintConfig) -> Iterable[Finding]:
    hot = set(config.hot_path_modules)
    findings: List[Finding] = []
    for name, info in model.classes.items():
        if info.module.rel_path not in hot:
            continue
        if info.declares_slots or _is_exempt_from_slots(model, info):
            continue
        findings.append(
            Finding(
                code="RPR002",
                path=info.module.display_path,
                line=info.lineno,
                col=info.node.col_offset,
                symbol=name,
                message=(
                    f"hot-path class {name} has no __slots__ — instances allocate a "
                    "__dict__, breaking the memory-lean contract of "
                    f"{info.module.rel_path} (use __slots__ or @dataclass(slots=True))"
                ),
            )
        )
    return findings


# --------------------------------------------------------------------------
# RPR003 — checkpoint coverage
# --------------------------------------------------------------------------


@rule(
    "RPR003",
    "checkpoint-coverage",
    "algorithms with mutable state must override checkpoint_state/"
    "restore_checkpoint_state; adversary row tables must derive from "
    "ResumableRows",
)
def check_checkpoint_coverage(
    model: ProjectModel, config: LintConfig
) -> Iterable[Finding]:
    findings: List[Finding] = []
    root = config.algorithm_root
    for name, info in model.classes.items():
        if name == root or not model.derives_from(name, root):
            continue
        if not info.mutable_init_attrs:
            continue
        missing = [
            hook
            for hook in ("checkpoint_state", "restore_checkpoint_state")
            if not model.defines_below_root(name, hook, root)
        ]
        if missing:
            attrs = ", ".join(sorted({a for a, _ in info.mutable_init_attrs}))
            findings.append(
                Finding(
                    code="RPR003",
                    path=info.module.display_path,
                    line=info.lineno,
                    col=info.node.col_offset,
                    symbol=name,
                    message=(
                        f"{name} assigns mutable instance state ({attrs}) but does not "
                        f"override {' / '.join(missing)} — resumed runs would silently "
                        "lose this state (see docs/CHECKPOINT.md)"
                    ),
                )
            )

    rows_root = config.rows_root
    for name, info in model.classes.items():
        if not info.module.rel_path.startswith(tuple(config.rows_module_prefixes)):
            continue
        if not name.endswith(config.rows_class_suffix) or name == rows_root:
            continue
        if model.derives_from(name, rows_root):
            continue
        findings.append(
            Finding(
                code="RPR003",
                path=info.module.display_path,
                line=info.lineno,
                col=info.node.col_offset,
                symbol=name,
                message=(
                    f"adversary row table {name} does not derive from {rows_root} — "
                    "it cannot produce a resume cursor, so checkpointed runs "
                    "replaying its injections would diverge"
                ),
            )
        )
    return findings


# --------------------------------------------------------------------------
# RPR005 — registry hygiene
# --------------------------------------------------------------------------


@rule(
    "RPR005",
    "registry-hygiene",
    "every registered algorithm/adversary/topology name must be discoverable "
    "from the CLI or docs",
)
def check_registry_hygiene(model: ProjectModel, config: LintConfig) -> Iterable[Finding]:
    findings: List[Finding] = []
    surfaces = model.doc_surfaces
    if not surfaces:
        return findings
    blob = "\n".join(surfaces.values())
    for registration in model.registrations:
        names = (registration.name, *registration.aliases)
        missing = [
            n
            for n in names
            if not re.search(rf"(?<![\w-]){re.escape(n)}(?![\w-])", blob)
        ]
        if missing:
            where = ", ".join(sorted(surfaces))
            findings.append(
                Finding(
                    code="RPR005",
                    path=registration.display_path,
                    line=registration.lineno,
                    col=0,
                    symbol=registration.symbol,
                    message=(
                        f"registered {registration.kind} name(s) "
                        f"{', '.join(repr(n) for n in missing)} not mentioned in any "
                        f"user-facing surface ({where}) — users cannot discover them"
                    ),
                )
            )
    return findings


# --------------------------------------------------------------------------
# RPR006 — error discipline
# --------------------------------------------------------------------------

_BROAD_EXCEPTIONS = frozenset({"Exception", "BaseException"})


def _handler_names(node: Optional[ast.expr]) -> List[str]:
    if node is None:
        return []
    if isinstance(node, ast.Tuple):
        return [n for e in node.elts for n in _handler_names(e)]
    name = node.id if isinstance(node, ast.Name) else getattr(node, "attr", None)
    return [name] if name else []


@rule(
    "RPR006",
    "error-discipline",
    "no bare/broad except clauses that swallow, no print() in library code",
)
def check_error_discipline(model: ProjectModel, config: LintConfig) -> Iterable[Finding]:
    findings: List[Finding] = []
    print_allowed = set(config.print_allowed_modules)
    print_prefixes = tuple(config.print_allowed_prefixes)
    for module in model.modules:
        owner_of: Dict[int, str] = {}
        for owner, func in _walk_functions(module.tree):
            for node in ast.walk(func):
                owner_of.setdefault(id(node), _symbol(owner.name if owner else None, func.name))

        for node in ast.walk(module.tree):
            if isinstance(node, ast.ExceptHandler):
                symbol = owner_of.get(id(node), "<module>")
                if node.type is None:
                    findings.append(
                        Finding(
                            code="RPR006",
                            path=module.display_path,
                            line=node.lineno,
                            col=node.col_offset,
                            symbol=symbol,
                            message=(
                                "bare except: — catch a specific exception and re-raise "
                                "as a typed ReproError (ShardingError / CheckpointError "
                                "/ SpecError family)"
                            ),
                        )
                    )
                    continue
                broad = [n for n in _handler_names(node.type) if n in _BROAD_EXCEPTIONS]
                if not broad:
                    continue
                reraises = any(isinstance(sub, ast.Raise) for sub in ast.walk(node))
                if not reraises:
                    findings.append(
                        Finding(
                            code="RPR006",
                            path=module.display_path,
                            line=node.lineno,
                            col=node.col_offset,
                            symbol=symbol,
                            message=(
                                f"except {'/'.join(broad)} without re-raise swallows "
                                "failures — catch narrowly or re-raise as a typed "
                                "ReproError so callers and the CLI see the fault"
                            ),
                        )
                    )
            elif isinstance(node, ast.Call):
                if not (isinstance(node.func, ast.Name) and node.func.id == "print"):
                    continue
                rel = module.rel_path
                if rel in print_allowed or rel.startswith(print_prefixes):
                    continue
                findings.append(
                    Finding(
                        code="RPR006",
                        path=module.display_path,
                        line=node.lineno,
                        col=node.col_offset,
                        symbol=owner_of.get(id(node), "<module>"),
                        message=(
                            "print() in library code — return data or raise; only the "
                            "CLI surface may write to stdout"
                        ),
                    )
                )
    return findings


# --------------------------------------------------------------------------
# RPR007 — frozen-spec mutation
# --------------------------------------------------------------------------


@rule(
    "RPR007",
    "frozen-spec-mutation",
    "object.__setattr__ is reserved for frozen-spec __post_init__ inside "
    "repro/api/specs.py",
)
def check_frozen_spec_mutation(
    model: ProjectModel, config: LintConfig
) -> Iterable[Finding]:
    findings: List[Finding] = []
    allowed = set(config.frozen_setattr_modules)
    for module in model.modules:
        if module.rel_path in allowed:
            continue
        owner_of: Dict[int, str] = {}
        for owner, func in _walk_functions(module.tree):
            for node in ast.walk(func):
                owner_of.setdefault(id(node), _symbol(owner.name if owner else None, func.name))
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if (
                isinstance(func, ast.Attribute)
                and func.attr == "__setattr__"
                and isinstance(func.value, ast.Name)
                and func.value.id == "object"
            ):
                findings.append(
                    Finding(
                        code="RPR007",
                        path=module.display_path,
                        line=node.lineno,
                        col=node.col_offset,
                        symbol=owner_of.get(id(node), "<module>"),
                        message=(
                            "object.__setattr__ outside repro/api/specs.py — frozen "
                            "specs are immutable after __post_init__; construct a new "
                            "spec instead of mutating in place"
                        ),
                    )
                )
    return findings


def register_builtin_rules() -> None:
    """Importing this module registers every rule; kept for explicitness."""
