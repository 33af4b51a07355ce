"""Rule framework for the repro contract linter.

The linter is a two-phase ``ast`` pass:

1. **Collect** — every target file is parsed once into a
   :class:`ModuleInfo` (AST, source lines, suppression pragmas) and folded
   into a :class:`ProjectModel`: a cross-file table of classes (bases,
   methods, class-level flags, mutable ``__init__`` state, attribute
   annotations) and registry registrations.  Cross-file facts are what let
   rules reason about inheritance (``checkpoint_state`` may live on an
   intermediate base) without importing the code under analysis.
2. **Check** — each registered rule receives the whole model and yields
   :class:`Finding` objects.  Rules never execute target code.

Suppression happens in two layers, both recorded rather than silently
dropped:

* ``# repro-lint: disable=CODE[,CODE]`` on (or immediately above) the
  flagged line, and ``# repro-lint: disable-file=CODE`` anywhere in the
  file, silence a finding at the source.  ``disable=all`` is accepted.
* A committed baseline file (:class:`Baseline`) grandfathers known
  findings by ``(code, path, symbol)`` with a mandatory justification.
  Baselined findings do not fail the build; baseline entries that no
  longer match anything are reported as *stale* so debt can only shrink.
"""

from __future__ import annotations

import ast
import json
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import (
    Callable,
    Dict,
    Iterable,
    Iterator,
    List,
    Mapping,
    Optional,
    Sequence,
    Set,
    Tuple,
)

__all__ = [
    "Finding",
    "LintConfig",
    "ModuleInfo",
    "ClassInfo",
    "Registration",
    "ProjectModel",
    "Baseline",
    "BaselineEntry",
    "LintResult",
    "Rule",
    "RULES",
    "rule",
    "collect_modules",
    "build_model",
    "run_lint",
]

PRAGMA_RE = re.compile(
    r"#\s*repro-lint:\s*(?P<scope>disable|disable-file)\s*=\s*"
    r"(?P<codes>[A-Za-z0-9_]+(?:\s*,\s*[A-Za-z0-9_]+)*)"
)

#: Emitted when a target file cannot be parsed at all.
PARSE_ERROR_CODE = "RPR000"


@dataclass(frozen=True, slots=True)
class Finding:
    """One rule violation at a specific source location."""

    #: Stable rule code (``RPR001`` ... ``RPR007``).
    code: str
    #: Path as given on the command line, POSIX separators.
    path: str
    line: int
    col: int
    #: ``Class``, ``Class.method``, ``function`` or ``<module>`` — together
    #: with ``code`` and ``path`` this is the baseline identity, chosen so a
    #: baseline survives unrelated edits that shift line numbers.
    symbol: str
    message: str

    def sort_key(self) -> Tuple[str, int, int, str]:
        return (self.path, self.line, self.col, self.code)

    def render(self) -> str:
        return f"{self.path}:{self.line}:{self.col}: {self.code} [{self.symbol}] {self.message}"

    def to_json(self) -> Dict[str, object]:
        return {
            "code": self.code,
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "symbol": self.symbol,
            "message": self.message,
        }


@dataclass(frozen=True)
class LintConfig:
    """Tunable surface of the rule set.

    Paths are package-relative POSIX strings (``repro/core/packet.py``);
    tests point these at fixture trees instead of the real package.
    """

    #: Module prefixes that form the deterministic engine (RPR001 scope).
    #: The clock-free service modules join too: lifecycle records, the
    #: journal codec and the scheduler must stay deterministic functions of
    #: their inputs (wall-clock leases live in server.py, outside the scope).
    engine_prefixes: Tuple[str, ...] = (
        "repro/core/",
        "repro/network/",
        "repro/adversary/",
        "repro/service/jobs.py",
        "repro/service/journal.py",
        "repro/service/scheduler.py",
    )
    #: Modules whose classes are allocated on the simulation hot path and
    #: must declare ``__slots__`` (RPR002 scope).
    hot_path_modules: Tuple[str, ...] = (
        "repro/core/packet.py",
        "repro/core/pseudobuffer.py",
        "repro/core/indexset.py",
        "repro/core/excess.py",
        "repro/core/hierarchy.py",
        "repro/network/batch.py",
        "repro/network/batch_sharded.py",
        "repro/network/events.py",
        "repro/network/shm.py",
        "repro/service/jobs.py",
        "repro/service/journal.py",
    )
    #: Methods whose iteration order feeds activation selection, boundary
    #: hand-off or checkpoint payloads — raw set/dict iteration here breaks
    #: the bit-identical determinism contract (RPR001).
    order_critical_functions: Tuple[str, ...] = (
        "select_activations",
        "checkpoint_state",
        "classify",
        "on_inject",
        "on_arrival",
        "on_round_end",
        # HPTS's bad-key grouping feeds FormPaths (repro/core/hpts.py).
        "_occupied_intervals",
        "injections_for_round",
        "directives_for",
        "drop_next_send",
        "select_next",
        "replay",
        # The batch kernel's PPTS/HPTS selection (repro/network/batch.py):
        # per-level destination sets feed FormPaths and the cascade.
        "_select_pseudo",
        "_activate_pre_bad",
        # ... its acceptance pushes rows in stack order, its sync lists
        # each node's stacks in the order the checkpoint writes them, and
        # its publish enters rows in the packet table's insertion order.
        "_accept_rows",
        "_sync_objects",
        "_publish",
        # The one bulk buffer writer (repro/core/scheduler.py): its
        # iteration sets each node's queue and key order.
        "place_buffers",
        # Boundary-ring transport: block layout and publish order feed the
        # hand-off protocol directly (repro/network/shm.py).
        "send_block",
        "recv_block",
    )
    #: Modules allowed to call ``print`` (user-facing surfaces).
    print_allowed_modules: Tuple[str, ...] = (
        "repro/cli.py",
        "repro/__main__.py",
    )
    print_allowed_prefixes: Tuple[str, ...] = ("repro/devtools/",)
    #: Modules allowed to use ``object.__setattr__`` (frozen-dataclass
    #: ``__post_init__`` normalization: specs and fault plans).
    frozen_setattr_modules: Tuple[str, ...] = (
        "repro/api/specs.py",
        "repro/network/faults.py",
    )
    #: Root class of the forwarding-algorithm hierarchy.  Hook defaults on
    #: the root itself do not satisfy RPR003 — each algorithm owns its
    #: checkpoint proof obligations.
    algorithm_root: str = "ForwardingAlgorithm"
    #: Root class adversary row tables must derive from (RPR003b).
    rows_root: str = "ResumableRows"
    rows_module_prefixes: Tuple[str, ...] = ("repro/adversary/",)
    rows_class_suffix: str = "Rows"
    #: Registration decorators tracked by RPR005, decorator name -> kind.
    registry_decorators: Tuple[Tuple[str, str], ...] = (
        ("register_algorithm", "algorithm"),
        ("register_adversary", "adversary"),
        ("register_topology", "topology"),
    )


@dataclass(slots=True)
class Pragmas:
    """Suppression pragmas of one file."""

    file_codes: Set[str] = field(default_factory=set)
    line_codes: Dict[int, Set[str]] = field(default_factory=dict)

    def suppresses(self, code: str, line: int) -> bool:
        if "all" in self.file_codes or code in self.file_codes:
            return True
        codes = self.line_codes.get(line)
        return codes is not None and ("all" in codes or code in codes)


def _parse_pragmas(lines: Sequence[str]) -> Pragmas:
    pragmas = Pragmas()
    for index, text in enumerate(lines, start=1):
        match = PRAGMA_RE.search(text)
        if match is None:
            continue
        codes = {code.strip() for code in match.group("codes").split(",")}
        codes = {c.lower() if c.lower() == "all" else c.upper() for c in codes}
        if match.group("scope") == "disable-file":
            pragmas.file_codes |= codes
        else:
            pragmas.line_codes.setdefault(index, set()).update(codes)
            if text.lstrip().startswith("#"):
                # A comment-only pragma line governs the statement below it.
                pragmas.line_codes.setdefault(index + 1, set()).update(codes)
    return pragmas


@dataclass(slots=True)
class ModuleInfo:
    """One parsed target file."""

    #: Path as passed on the command line (for reporting).
    display_path: str
    #: Package-relative POSIX path (``repro/core/packet.py``) used by all
    #: path-scoped rule predicates, so results do not depend on the CWD.
    rel_path: str
    tree: ast.Module
    source_lines: List[str]
    pragmas: Pragmas


@dataclass(slots=True)
class ClassInfo:
    """Cross-file facts about one class definition."""

    name: str
    module: ModuleInfo
    node: ast.ClassDef
    lineno: int
    #: Base-class *names* (rightmost attribute segment for dotted bases).
    bases: Tuple[str, ...]
    #: Methods and nested functions defined directly in the class body.
    methods: Tuple[str, ...]
    decorators: Tuple[str, ...]
    #: True when the body assigns ``__slots__`` or a dataclass decorator
    #: passes ``slots=True``.
    declares_slots: bool
    #: ``self.<attr>`` assignments in ``__init__`` whose value is a mutable
    #: container literal/constructor, as ``(attr, lineno)`` pairs.
    mutable_init_attrs: Tuple[Tuple[str, int], ...]
    #: Annotations for instance attributes (``self.x: T`` in any method)
    #: and class-level ``x: T`` declarations.
    attr_annotations: Dict[str, ast.expr]


@dataclass(frozen=True, slots=True)
class Registration:
    """One ``@register_*`` decoration site."""

    kind: str
    name: str
    aliases: Tuple[str, ...]
    module: str
    display_path: str
    lineno: int
    symbol: str


_MUTABLE_CONSTRUCTORS = frozenset(
    {
        "list",
        "dict",
        "set",
        "bytearray",
        "defaultdict",
        "deque",
        "OrderedDict",
        "Counter",
    }
)

_ENUM_BASES = frozenset({"Enum", "IntEnum", "StrEnum", "Flag", "IntFlag"})


def _base_name(node: ast.expr) -> Optional[str]:
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.Subscript):  # Generic[...] style bases
        return _base_name(node.value)
    return None


def _is_mutable_value(node: ast.expr) -> bool:
    if isinstance(node, (ast.List, ast.Dict, ast.Set, ast.ListComp, ast.DictComp, ast.SetComp)):
        return True
    if isinstance(node, ast.Call):
        name = _base_name(node.func)
        return name in _MUTABLE_CONSTRUCTORS
    return False


def _collect_class(node: ast.ClassDef, module: ModuleInfo) -> ClassInfo:
    bases = tuple(name for name in (_base_name(b) for b in node.bases) if name)
    methods: List[str] = []
    decorators: List[str] = []
    declares_slots = False
    mutable_init: List[Tuple[str, int]] = []
    annotations: Dict[str, ast.expr] = {}

    for deco in node.decorator_list:
        if isinstance(deco, ast.Call):
            name = _base_name(deco.func)
            if name:
                decorators.append(name)
            if name == "dataclass":
                for kw in deco.keywords:
                    if (
                        kw.arg == "slots"
                        and isinstance(kw.value, ast.Constant)
                        and kw.value.value is True
                    ):
                        declares_slots = True
        else:
            name = _base_name(deco)
            if name:
                decorators.append(name)

    for item in node.body:
        if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
            methods.append(item.name)
            for sub in ast.walk(item):
                if (
                    isinstance(sub, ast.AnnAssign)
                    and isinstance(sub.target, ast.Attribute)
                    and isinstance(sub.target.value, ast.Name)
                    and sub.target.value.id == "self"
                ):
                    annotations.setdefault(sub.target.attr, sub.annotation)
            if item.name == "__init__":
                for sub in ast.walk(item):
                    value: Optional[ast.expr]
                    targets: List[ast.expr]
                    if isinstance(sub, ast.Assign):
                        value, targets = sub.value, sub.targets
                    elif isinstance(sub, ast.AnnAssign) and sub.value is not None:
                        value, targets = sub.value, [sub.target]
                    else:
                        continue
                    if not _is_mutable_value(value):
                        continue
                    for target in targets:
                        if (
                            isinstance(target, ast.Attribute)
                            and isinstance(target.value, ast.Name)
                            and target.value.id == "self"
                        ):
                            mutable_init.append((target.attr, sub.lineno))
        elif isinstance(item, ast.Assign):
            for target in item.targets:
                if isinstance(target, ast.Name) and target.id == "__slots__":
                    declares_slots = True
        elif isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name):
            if item.target.id == "__slots__":
                declares_slots = True
            else:
                annotations.setdefault(item.target.id, item.annotation)

    return ClassInfo(
        name=node.name,
        module=module,
        node=node,
        lineno=node.lineno,
        bases=bases,
        methods=tuple(methods),
        decorators=tuple(decorators),
        declares_slots=declares_slots,
        mutable_init_attrs=tuple(mutable_init),
        attr_annotations=annotations,
    )


def _collect_registrations(module: ModuleInfo, config: LintConfig) -> List[Registration]:
    kinds = dict(config.registry_decorators)
    found: List[Registration] = []
    for node in ast.walk(module.tree):
        if not isinstance(node, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        for deco in node.decorator_list:
            if not isinstance(deco, ast.Call):
                continue
            deco_name = _base_name(deco.func)
            if deco_name not in kinds:
                continue
            if not (deco.args and isinstance(deco.args[0], ast.Constant)):
                continue
            name = deco.args[0].value
            if not isinstance(name, str):
                continue
            aliases: List[str] = []
            for kw in deco.keywords:
                if kw.arg == "aliases" and isinstance(kw.value, (ast.Tuple, ast.List)):
                    for element in kw.value.elts:
                        if isinstance(element, ast.Constant) and isinstance(
                            element.value, str
                        ):
                            aliases.append(element.value)
            found.append(
                Registration(
                    kind=kinds[deco_name],
                    name=name,
                    aliases=tuple(aliases),
                    module=module.rel_path,
                    display_path=module.display_path,
                    lineno=deco.lineno,
                    symbol=node.name,
                )
            )
    return found


@dataclass(slots=True)
class ProjectModel:
    """Everything the rules know about the analysed tree."""

    modules: List[ModuleInfo]
    classes: Dict[str, ClassInfo]
    registrations: List[Registration]
    parse_failures: List[Finding]
    #: ``{label: text}`` documentation surfaces searched by RPR005.
    doc_surfaces: Dict[str, str]

    def ancestors(self, class_name: str) -> Iterator[ClassInfo]:
        """Transitive in-project ancestors, nearest first, cycle-safe."""
        seen: Set[str] = {class_name}
        queue = list(self.classes[class_name].bases) if class_name in self.classes else []
        while queue:
            base = queue.pop(0)
            if base in seen:
                continue
            seen.add(base)
            info = self.classes.get(base)
            if info is None:
                continue
            yield info
            queue.extend(info.bases)

    def derives_from(self, class_name: str, root: str) -> bool:
        return any(a.name == root for a in self.ancestors(class_name))

    def defines_below_root(self, class_name: str, method: str, root: str) -> bool:
        """True when *class_name* (or an ancestor other than *root*) defines
        *method* in its own body — inherited root defaults do not count."""
        info = self.classes.get(class_name)
        if info is not None and method in info.methods:
            return True
        for ancestor in self.ancestors(class_name):
            if ancestor.name == root:
                continue
            if method in ancestor.methods:
                return True
        return False


Rule = Callable[[ProjectModel, LintConfig], Iterable[Finding]]


@dataclass(frozen=True, slots=True)
class RuleSpec:
    code: str
    name: str
    summary: str
    check: Rule


#: Registry of all known rules, keyed by stable code.
RULES: Dict[str, RuleSpec] = {}


def rule(code: str, name: str, summary: str) -> Callable[[Rule], Rule]:
    """Register a rule function under a stable code."""

    def decorator(check: Rule) -> Rule:
        if code in RULES:
            raise ValueError(f"duplicate lint rule code {code}")
        RULES[code] = RuleSpec(code=code, name=name, summary=summary, check=check)
        return check

    return decorator


# --------------------------------------------------------------------------
# Baseline
# --------------------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class BaselineEntry:
    code: str
    path: str
    symbol: str
    justification: str

    def key(self) -> Tuple[str, str, str]:
        return (self.code, self.path, self.symbol)


class Baseline:
    """Committed set of grandfathered findings (``lint_baseline.json``)."""

    VERSION = 1

    def __init__(self, entries: Sequence[BaselineEntry] = ()) -> None:
        self.entries: List[BaselineEntry] = list(entries)
        self._by_key: Dict[Tuple[str, str, str], BaselineEntry] = {
            entry.key(): entry for entry in self.entries
        }
        self._used: Set[Tuple[str, str, str]] = set()

    @classmethod
    def load(cls, path: Optional[Path]) -> "Baseline":
        if path is None or not path.exists():
            return cls()
        payload = json.loads(path.read_text(encoding="utf-8"))
        if payload.get("version") != cls.VERSION:
            raise ValueError(
                f"unsupported baseline version {payload.get('version')!r} in {path}"
            )
        entries = []
        for raw in payload.get("entries", []):
            entries.append(
                BaselineEntry(
                    code=raw["code"],
                    path=raw["path"],
                    symbol=raw["symbol"],
                    justification=raw.get("justification", ""),
                )
            )
        return cls(entries)

    def matches(self, finding: Finding) -> bool:
        key = (finding.code, finding.path, finding.symbol)
        if key in self._by_key:
            self._used.add(key)
            return True
        return False

    def stale_entries(self) -> List[BaselineEntry]:
        """Entries that matched nothing in the last run — debt already paid."""
        return [entry for entry in self.entries if entry.key() not in self._used]

    @staticmethod
    def write(path: Path, findings: Sequence[Finding], justification: str) -> None:
        entries = [
            {
                "code": f.code,
                "path": f.path,
                "symbol": f.symbol,
                "justification": justification,
            }
            for f in sorted(findings, key=Finding.sort_key)
        ]
        payload = {"version": Baseline.VERSION, "entries": entries}
        path.write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")


# --------------------------------------------------------------------------
# Collection and running
# --------------------------------------------------------------------------


def _package_parent(target: Path) -> Path:
    """Directory relative to which package paths are computed.

    ``src/repro`` → ``src`` (so files report as ``repro/...``); a directory
    that is not itself a package is its own anchor; a single file anchors at
    the nearest non-package ancestor so ``repro/core/x.py`` still resolves.
    """
    if target.is_file():
        parent = target.parent
        while (parent / "__init__.py").exists() and parent.parent != parent:
            parent = parent.parent
        return parent
    if (target / "__init__.py").exists():
        return target.parent
    return target


def collect_modules(targets: Sequence[Path]) -> Tuple[List[ModuleInfo], List[Finding]]:
    """Parse every ``.py`` file under *targets* into :class:`ModuleInfo`."""
    modules: List[ModuleInfo] = []
    failures: List[Finding] = []
    seen: Set[Path] = set()
    for target in targets:
        anchor = _package_parent(target)
        if target.is_file():
            files: Iterable[Path] = [target]
        else:
            files = sorted(target.rglob("*.py"))
        for file in files:
            resolved = file.resolve()
            if resolved in seen:
                continue
            seen.add(resolved)
            display = file.as_posix()
            rel = file.resolve().relative_to(anchor.resolve()).as_posix()
            source = file.read_text(encoding="utf-8")
            try:
                tree = ast.parse(source, filename=display)
            except SyntaxError as error:
                failures.append(
                    Finding(
                        code=PARSE_ERROR_CODE,
                        path=display,
                        line=error.lineno or 1,
                        col=error.offset or 0,
                        symbol="<module>",
                        message=f"file does not parse: {error.msg}",
                    )
                )
                continue
            lines = source.splitlines()
            modules.append(
                ModuleInfo(
                    display_path=display,
                    rel_path=rel,
                    tree=tree,
                    source_lines=lines,
                    pragmas=_parse_pragmas(lines),
                )
            )
    return modules, failures


def build_model(
    targets: Sequence[Path],
    config: LintConfig,
    doc_surfaces: Optional[Mapping[str, str]] = None,
) -> ProjectModel:
    modules, failures = collect_modules(targets)
    classes: Dict[str, ClassInfo] = {}
    registrations: List[Registration] = []
    for module in modules:
        for node in ast.walk(module.tree):
            if isinstance(node, ast.ClassDef):
                info = _collect_class(node, module)
                # First definition wins: later same-named classes (test
                # doubles, fixtures) must not shadow engine classes.
                classes.setdefault(info.name, info)
        registrations.extend(_collect_registrations(module, config))
    return ProjectModel(
        modules=modules,
        classes=classes,
        registrations=registrations,
        parse_failures=failures,
        doc_surfaces=dict(doc_surfaces or {}),
    )


@dataclass(slots=True)
class LintResult:
    """Outcome of one lint run, already split by suppression layer."""

    #: Findings that fail the build (not pragma-suppressed, not baselined).
    active: List[Finding]
    #: Findings matched by the committed baseline.
    baselined: List[Finding]
    #: Baseline entries that matched nothing — remove them.
    stale_baseline: List[BaselineEntry]
    #: Active + baselined counts per rule code.
    per_rule_active: Dict[str, int]
    per_rule_baselined: Dict[str, int]

    @property
    def exit_code(self) -> int:
        return 1 if self.active else 0


def run_lint(
    targets: Sequence[Path],
    config: Optional[LintConfig] = None,
    baseline: Optional[Baseline] = None,
    doc_surfaces: Optional[Mapping[str, str]] = None,
    select: Optional[Sequence[str]] = None,
) -> LintResult:
    """Run every (or the selected) rule over *targets*."""
    config = config or LintConfig()
    baseline = baseline or Baseline()
    model = build_model(targets, config, doc_surfaces)

    selected = set(select) if select else set(RULES)
    raw: List[Finding] = list(model.parse_failures)
    for code in sorted(selected):
        spec = RULES.get(code)
        if spec is None:
            raise ValueError(f"unknown lint rule {code!r}")
        raw.extend(spec.check(model, config))

    pragmas_by_path = {m.display_path: m.pragmas for m in model.modules}
    active: List[Finding] = []
    baselined: List[Finding] = []
    for finding in sorted(raw, key=Finding.sort_key):
        pragmas = pragmas_by_path.get(finding.path)
        if pragmas is not None and pragmas.suppresses(finding.code, finding.line):
            continue
        if baseline.matches(finding):
            baselined.append(finding)
        else:
            active.append(finding)

    def _counts(findings: Sequence[Finding]) -> Dict[str, int]:
        counts: Dict[str, int] = {}
        for f in findings:
            counts[f.code] = counts.get(f.code, 0) + 1
        return counts

    return LintResult(
        active=active,
        baselined=baselined,
        stale_baseline=baseline.stale_entries(),
        per_rule_active=_counts(active),
        per_rule_baselined=_counts(baselined),
    )
