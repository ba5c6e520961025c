#!/usr/bin/env python3
"""AMRI AST lint: semantic contract checkers over a lightweight C++ AST.

Where tools/amri_lint.py enforces line-local invariants with regexes, this
tool parses the code into classes / members / method bodies and checks
contracts that need structure:

AMRI101  cost parity. Every public mutating/probing entry point of a
         TupleIndex implementation, StemOperator, or BucketDirectory must
         reach exactly ONE CostMeter charging layer per logical tuple
         served: either it (or a same-class helper) charges the meter
         directly, or it delegates to a member that was constructed with
         the same meter — never both (double charge in a wrapper), never
         neither (uncharged fast path). BucketDirectory is charge-free by
         contract (its owner charges around it).
AMRI102  clock discipline. No std::chrono::steady_clock / system_clock
         reads inside cost-metered call paths (entry points above and the
         same-class helpers they reach). Wall time belongs to telemetry /
         profiler code only (src/telemetry/ is exempt).
AMRI103  lock order. Extracts the static Mutex acquisition graph from
         MutexLock nesting and cross-class calls made while a lock is
         held, assigns distinct total-order ranks by longest-path
         layering, and fails on cycles, self-nesting, or (with
         --require-rank-init) a Mutex member whose declaration does not
         brace-initialize with its generated lockrank:: constant.
AMRI104  annotation coverage. Every mutable non-atomic data member of a
         class that owns an amri::Mutex must carry AMRI_GUARDED_BY /
         AMRI_PT_GUARDED_BY (closing the gap where -Wthread-safety
         silently ignores unannotated fields).
AMRI100  stale waiver. An `// amri-lint: allow(AMRI1xx)` comment that
         suppresses nothing is itself an error (shared semantics with
         amri_lint.py's AMRI007 for the AMRI0xx namespace).

Waive a finding with `// amri-lint: allow(AMRI10N)` on the offending line
or the line directly above it.

The default backend is a self-contained tokenizer + structural parser (no
toolchain needed, deterministic, unit-tested). `--backend libclang` uses
clang.cindex over compile_commands.json when the bindings are installed;
`--backend auto` tries libclang and falls back with a note.

Usage:  amri_ast_lint.py [paths...] [--checks AMRI101,AMRI103]
                         [--compile-commands build/compile_commands.json]
                         [--emit-ranks PATH|-] [--check-ranks PATH]
                         [--require-rank-init] [--list-edges]
Exit:   0 clean, 1 findings (or stale ranks), 2 usage/environment error.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import re
import sys
from dataclasses import dataclass, field

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent))
from amri_lint import Finding, strip_comments_and_strings  # noqa: E402

RULES = {"AMRI100", "AMRI101", "AMRI102", "AMRI103", "AMRI104"}
RULE_NAMESPACE_RE = re.compile(r"^AMRI1\d\d$")
WAIVER_RE = re.compile(r"amri-lint:\s*allow\(([A-Z0-9, ]+)\)")
CXX_SUFFIXES = {".hpp", ".h", ".cpp", ".cc", ".cxx"}

# AMRI101 scope: classes deriving from these bases, plus these class names.
METERED_BASES = {"TupleIndex"}
METERED_CLASSES = {"StemOperator", "TupleIndex"}
# Classes that must never charge a meter (owners charge around them).
NO_CHARGE_CLASSES = {"BucketDirectory"}
# Public entry points checked for cost parity (when they have a body).
ENTRY_METHODS = {
    "insert", "erase", "probe", "insert_batch", "expire", "bulk_load",
    "reconfigure",
}
METER_PARAM_TOKENS = {"meter", "meter_"}

# Runtime edges the static resolver cannot see, with justification.
SEED_EDGES = [
    ("MetricsRegistry::mu_", "Histogram::mu_",
     "MetricsRegistry::histogram() constructs the Histogram (whose ctor "
     "takes its own lock) inside try_emplace under the registry mutex"),
]

LOCK_CLASSES = {"MutexLock"}
CHARGE_CALL_RE = re.compile(r"^charge_\w+$")

TOKEN_RE = re.compile(r"[A-Za-z_]\w*|::|->|\d[\w.+-]*|\S")

NON_NAME_KEYWORDS = {
    "public", "private", "protected", "virtual", "final", "override",
    "const", "constexpr", "inline", "static", "mutable", "explicit",
    "noexcept", "struct", "class", "typename", "using", "friend",
}


@dataclass
class Tok:
    text: str
    line: int


def tokenize(code: str) -> list[Tok]:
    toks: list[Tok] = []
    for lineno, line in enumerate(code.splitlines(), start=1):
        if line.lstrip().startswith("#"):
            continue  # preprocessor directives carry no structure we need
        for m in TOKEN_RE.finditer(line):
            toks.append(Tok(m.group(), lineno))
    return toks


@dataclass
class Member:
    name: str
    line: int
    type_toks: list[str]
    guarded_by: str | None = None
    pt_guarded_by: str | None = None
    is_const: bool = False
    is_static: bool = False
    is_atomic: bool = False
    is_mutex: bool = False
    is_condvar: bool = False
    is_reference: bool = False
    init_toks: list[str] = field(default_factory=list)


@dataclass
class Method:
    cls_qual: str
    name: str
    line: int
    path: str
    param_types: dict[str, list[str]]
    body: list[Tok]
    init_list: list[tuple[str, list[str]]] = field(default_factory=list)
    is_decl_only: bool = False


@dataclass
class ClassInfo:
    qual: str  # namespace-stripped qualified name, e.g. ShardedBitIndex::Shard
    name: str  # last component
    path: str
    line: int
    bases: list[str] = field(default_factory=list)
    members: dict[str, Member] = field(default_factory=dict)
    methods: list[Method] = field(default_factory=list)
    declared_method_names: set[str] = field(default_factory=set)


class Model:
    """Parsed classes and free-standing method definitions across files."""

    def __init__(self) -> None:
        self.classes: dict[str, ClassInfo] = {}
        self.by_name: dict[str, list[ClassInfo]] = {}

    def add_class(self, cls: ClassInfo) -> ClassInfo:
        if cls.qual in self.classes:
            # Same class seen again (header re-parsed for another TU set):
            # keep the first, richer definitions merge via methods list.
            return self.classes[cls.qual]
        self.classes[cls.qual] = cls
        self.by_name.setdefault(cls.name, []).append(cls)
        return cls

    def resolve(self, name: str) -> ClassInfo | None:
        """Resolve a class by trailing qualified name (unique match only)."""
        if name in self.classes:
            return self.classes[name]
        cands = self.by_name.get(name.split("::")[-1], [])
        cands = [c for c in cands if c.qual.endswith(name)]
        return cands[0] if len(cands) == 1 else None


def _skip_balanced(toks: list[Tok], i: int, open_c: str, close_c: str) -> int:
    """`i` indexes the opening token; returns index just past the close."""
    depth = 0
    n = len(toks)
    while i < n:
        t = toks[i].text
        if t == open_c:
            depth += 1
        elif t == close_c:
            depth -= 1
            if depth == 0:
                return i + 1
        i += 1
    return n


def _is_ident(text: str) -> bool:
    return bool(re.match(r"^[A-Za-z_]\w*$", text))


class Parser:
    """Structural scanner: namespaces, (nested) classes, members, methods."""

    def __init__(self, path: str, toks: list[Tok], model: Model) -> None:
        self.path = path
        self.toks = toks
        self.model = model

    def parse(self) -> None:
        self._scan_scope(0, len(self.toks), qual_prefix="")

    # --- namespace / file scope -------------------------------------------

    def _scan_scope(self, i: int, end: int, qual_prefix: str) -> None:
        toks = self.toks
        while i < end:
            t = toks[i].text
            if t == "namespace":
                j = i + 1
                while j < end and toks[j].text not in ("{", ";"):
                    j += 1
                if j < end and toks[j].text == "{":
                    close = _skip_balanced(toks, j, "{", "}")
                    self._scan_scope(j + 1, close - 1, qual_prefix)
                    i = close
                else:
                    i = j + 1
                continue
            if t in ("class", "struct") and self._is_class_def(i, end):
                i = self._parse_class(i, end, qual_prefix)
                continue
            if t == "enum":
                i = self._skip_past_braces_or_semi(i, end)
                continue
            if t == "template":
                i = self._skip_template_header(i, end)
                continue
            # Free-standing statement: either `...;` or `... { body }`.
            j = i
            while j < end and toks[j].text not in (";", "{"):
                if toks[j].text == "(":
                    j = _skip_balanced(toks, j, "(", ")")
                    continue
                j += 1
            if j >= end:
                return
            if toks[j].text == ";":
                i = j + 1
                continue
            # `{` — out-of-line method definition, or some other braced thing.
            close = _skip_balanced(toks, j, "{", "}")
            self._try_out_of_line(i, j, close, qual_prefix)
            i = close
            if i < end and toks[i].text == ";":
                i += 1

    def _is_class_def(self, i: int, end: int) -> bool:
        """class/struct followed by a body (not a forward decl / elaborated
        type specifier in a declaration)."""
        toks = self.toks
        j = i + 1
        while j < end:
            t = toks[j].text
            if t == "(":  # attribute macro, e.g. AMRI_CAPABILITY("mutex")
                j = _skip_balanced(toks, j, "(", ")")
                continue
            if t == "{":
                return True
            if t in (";", ")", ",", "=", ">"):
                return False
            if t == ":":
                return True  # base clause
            j += 1
        return False

    def _skip_past_braces_or_semi(self, i: int, end: int) -> int:
        toks = self.toks
        j = i
        while j < end and toks[j].text not in ("{", ";"):
            j += 1
        if j < end and toks[j].text == "{":
            j = _skip_balanced(toks, j, "{", "}")
        while j < end and toks[j].text != ";":
            j += 1
        return j + 1

    def _skip_template_header(self, i: int, end: int) -> int:
        toks = self.toks
        j = i + 1
        if j < end and toks[j].text == "<":
            depth = 0
            while j < end:
                if toks[j].text == "<":
                    depth += 1
                elif toks[j].text == ">":
                    depth -= 1
                    if depth == 0:
                        return j + 1
                j += 1
        return j

    # --- class bodies ------------------------------------------------------

    def _parse_class(self, i: int, end: int, qual_prefix: str) -> int:
        toks = self.toks
        j = i + 1
        name: str | None = None
        bases: list[str] = []
        while j < end and toks[j].text not in ("{", ";"):
            t = toks[j].text
            if t == "(":
                j = _skip_balanced(toks, j, "(", ")")
                continue
            if t == ":":
                j += 1
                while j < end and toks[j].text != "{":
                    if _is_ident(toks[j].text) and \
                            toks[j].text not in NON_NAME_KEYWORDS:
                        bases.append(toks[j].text)
                    j += 1
                break
            if _is_ident(t) and t not in NON_NAME_KEYWORDS and \
                    not t.startswith("AMRI_"):
                name = t
            j += 1
        if j >= end or toks[j].text == ";" or name is None:
            return j + 1
        close = _skip_balanced(toks, j, "{", "}")
        qual = f"{qual_prefix}::{name}" if qual_prefix else name
        cls = self.model.add_class(
            ClassInfo(qual=qual, name=name, path=self.path,
                      line=toks[i].line, bases=bases))
        self._scan_class_body(cls, j + 1, close - 1)
        k = close
        while k < end and toks[k].text != ";":
            k += 1
        return k + 1

    def _scan_class_body(self, cls: ClassInfo, i: int, end: int) -> None:
        toks = self.toks
        while i < end:
            t = toks[i].text
            if _is_ident(t) and i + 1 < end and toks[i + 1].text == ":" and \
                    t in ("public", "private", "protected"):
                i += 2
                continue
            if t in ("using", "friend", "static_assert", "typedef"):
                i = self._skip_past_braces_or_semi(i, end)
                continue
            if t in ("class", "struct") and self._is_class_def(i, end):
                i = self._parse_class(i, end, cls.qual)
                continue
            if t == "enum":
                i = self._skip_past_braces_or_semi(i, end)
                continue
            if t == "template":
                i = self._skip_template_header(i, end)
                continue
            if t == ";":
                i += 1
                continue
            i = self._parse_class_statement(cls, i, end)

    def _parse_class_statement(self, cls: ClassInfo, i: int,
                               end: int) -> int:
        """One member declaration or method (decl or inline definition)."""
        toks = self.toks
        j = i
        angle = 0
        paren_at = -1  # index of first top-level declarator paren
        while j < end:
            t = toks[j].text
            if t == "<" and j > i and (_is_ident(toks[j - 1].text)
                                       or toks[j - 1].text == "::"):
                angle += 1
            elif t == ">" and angle > 0:
                angle -= 1
            elif t == "(" and angle == 0:
                prev = toks[j - 1].text if j > i else ""
                if _is_ident(prev) and prev.startswith("AMRI_"):
                    j = _skip_balanced(toks, j, "(", ")")
                    continue
                paren_at = j
                break
            elif t in ("{", ";") and angle == 0:
                break
            j += 1
        if j >= end:
            return end
        if paren_at < 0:
            return self._parse_member(cls, i, end)
        return self._parse_method(cls, i, paren_at, end)

    def _parse_member(self, cls: ClassInfo, i: int, end: int) -> int:
        """Member variable: tokens up to `;`, optional `{init}` / `= init`."""
        toks = self.toks
        stmt: list[Tok] = []
        init: list[str] = []
        j = i
        while j < end and toks[j].text != ";":
            if toks[j].text == "{":
                close = _skip_balanced(toks, j, "{", "}")
                init = [tk.text for tk in toks[j + 1:close - 1]]
                j = close
                continue
            stmt.append(toks[j])
            j += 1
        texts = [tk.text for tk in stmt]
        if "=" in texts:
            eq = texts.index("=")
            init = texts[eq + 1:]
            stmt = stmt[:eq]
            texts = texts[:eq]
        guarded = pt_guarded = None
        clean: list[Tok] = []
        k = 0
        while k < len(stmt):
            t = stmt[k].text
            if t in ("AMRI_GUARDED_BY", "AMRI_PT_GUARDED_BY") and \
                    k + 1 < len(stmt) and stmt[k + 1].text == "(":
                close = _skip_balanced(stmt, k + 1, "(", ")")
                arg = " ".join(tk.text for tk in stmt[k + 2:close - 1])
                if t == "AMRI_GUARDED_BY":
                    guarded = arg
                else:
                    pt_guarded = arg
                k = close
                continue
            if t.startswith("AMRI_"):
                k += 1
                if k < len(stmt) and stmt[k].text == "(":
                    k = _skip_balanced(stmt, k, "(", ")")
                continue
            clean.append(stmt[k])
            k += 1
        names = [tk for tk in clean if _is_ident(tk.text)]
        if not names:
            return j + 1
        name_tok = names[-1]
        type_toks = [tk.text for tk in clean if tk is not name_tok]
        mem = Member(
            name=name_tok.text, line=name_tok.line, type_toks=type_toks,
            guarded_by=guarded, pt_guarded_by=pt_guarded,
            is_const="const" in type_toks or "constexpr" in type_toks,
            is_static="static" in type_toks,
            is_atomic="atomic" in type_toks or "Counter" in type_toks
                      or "Gauge" in type_toks,
            is_mutex="Mutex" in type_toks,
            is_condvar="CondVar" in type_toks
                       or "condition_variable_any" in type_toks,
            is_reference="&" in type_toks,
            init_toks=init)
        if mem.name not in cls.members:
            cls.members[mem.name] = mem
        return j + 1

    def _parse_method(self, cls: ClassInfo, i: int, paren_at: int,
                      end: int) -> int:
        toks = self.toks
        name = toks[paren_at - 1].text
        if not _is_ident(name):
            name = "operator"
        if paren_at - 2 >= i and toks[paren_at - 2].text == "~":
            name = "~" + name
        params_end = _skip_balanced(toks, paren_at, "(", ")")
        param_types = _parse_params(toks[paren_at + 1:params_end - 1])
        j = params_end
        init_list: list[tuple[str, list[str]]] = []
        while j < end and toks[j].text not in ("{", ";"):
            t = toks[j].text
            if t == "=":
                # `= default;` / `= delete;` / `= 0;`
                while j < end and toks[j].text != ";":
                    j += 1
                break
            if t == ":":
                init_list, j = self._parse_init_list(j + 1, end)
                break
            if t == "(":
                j = _skip_balanced(toks, j, "(", ")")
                continue
            j += 1
        if j >= end or toks[j].text == ";":
            cls.declared_method_names.add(name)
            return j + 1
        close = _skip_balanced(toks, j, "{", "}")
        cls.declared_method_names.add(name)
        cls.methods.append(Method(
            cls_qual=cls.qual, name=name, line=toks[paren_at - 1].line,
            path=self.path, param_types=param_types,
            body=toks[j + 1:close - 1], init_list=init_list))
        return close

    def _parse_init_list(
            self, i: int,
            end: int) -> tuple[list[tuple[str, list[str]]], int]:
        toks = self.toks
        entries: list[tuple[str, list[str]]] = []
        j = i
        while j < end and toks[j].text != "{":
            t = toks[j].text
            if _is_ident(t) and j + 1 < end and \
                    toks[j + 1].text in ("(",):
                close = _skip_balanced(toks, j + 1, "(", ")")
                entries.append(
                    (t, [tk.text for tk in toks[j + 2:close - 1]]))
                j = close
                continue
            if _is_ident(t) and j + 1 < end and toks[j + 1].text == "{" \
                    and toks[j - 1].text in (":", ","):
                close = _skip_balanced(toks, j + 1, "{", "}")
                entries.append(
                    (t, [tk.text for tk in toks[j + 2:close - 1]]))
                j = close
                continue
            j += 1
        return entries, j

    # --- out-of-line definitions ------------------------------------------

    def _try_out_of_line(self, start: int, brace_at: int, close: int,
                         qual_prefix: str) -> None:
        """Recognize `Ret Class::method(params) quals { body }` between
        start..close and attach it to the class."""
        toks = self.toks
        # Find the declarator paren: the first top-level `(` preceded by a
        # `Class::name` chain.
        j = start
        while j < brace_at:
            if toks[j].text == "(" and j >= 2 and \
                    _is_ident(toks[j - 1].text) and \
                    toks[j - 2].text == "::":
                break
            if toks[j].text == "(":
                j = _skip_balanced(toks, j, "(", ")")
                continue
            j += 1
        else:
            return
        if j >= brace_at:
            return
        # Walk the ident(::ident)* chain backwards from the method name.
        chain = [toks[j - 1].text]
        k = j - 2
        while k >= start + 1 and toks[k].text == "::" and \
                _is_ident(toks[k - 1].text):
            chain.append(toks[k - 1].text)
            k -= 2
        chain.reverse()
        if len(chain) < 2:
            return
        method_name = chain[-1]
        cls = self.model.resolve("::".join(chain[:-1]))
        if cls is None:
            return
        params_end = _skip_balanced(toks, j, "(", ")")
        param_types = _parse_params(toks[j + 1:params_end - 1])
        init_list: list[tuple[str, list[str]]] = []
        m = params_end
        while m < brace_at:
            if toks[m].text == ":":
                init_list, m = self._parse_init_list(m + 1, brace_at + 1)
                break
            if toks[m].text == "(":
                m = _skip_balanced(toks, m, "(", ")")
                continue
            m += 1
        cls.methods.append(Method(
            cls_qual=cls.qual, name=method_name, line=toks[j - 1].line,
            path=self.path, param_types=param_types,
            body=toks[brace_at + 1:close - 1], init_list=init_list))
        cls.declared_method_names.add(method_name)


def _parse_params(toks: list[Tok]) -> dict[str, list[str]]:
    """Parameter list tokens -> {param_name: type tokens}. Commas at
    angle/paren depth 0 split parameters; the last identifier is the name."""
    params: dict[str, list[str]] = {}
    cur: list[str] = []
    depth = 0

    def flush() -> None:
        idents = [t for t in cur if _is_ident(t)]
        if len(idents) >= 2:
            params[idents[-1]] = cur[:]
        cur.clear()

    for tk in toks:
        t = tk.text
        if t in ("<", "(", "[", "{"):
            depth += 1
        elif t in (">", ")", "]", "}"):
            depth -= 1
        elif t == "," and depth == 0:
            flush()
            continue
        if t == "=" and depth == 0:
            flush()
            cur.append("\x00defaulted")  # swallow default argument tokens
            continue
        if cur and cur[0] == "\x00defaulted":
            continue
        cur.append(t)
    flush()
    return params


# ---------------------------------------------------------------------------
# Body-level analysis helpers
# ---------------------------------------------------------------------------


def _brace_pairs(body: list[Tok]) -> list[tuple[int, int]]:
    pairs: list[tuple[int, int]] = []
    stack: list[int] = []
    for i, tk in enumerate(body):
        if tk.text == "{":
            stack.append(i)
        elif tk.text == "}" and stack:
            pairs.append((stack.pop(), i))
    return pairs


def _enclosing_scope_end(pairs: list[tuple[int, int]], i: int,
                         body_len: int) -> int:
    best = body_len
    for (o, c) in pairs:
        if o < i < c and c < best:
            best = c
    return best


def _receiver_index(body: list[Tok], op_idx: int) -> int | None:
    """Index of the receiver identifier for `.`/`->` at op_idx, skipping one
    trailing `[...]` subscript. None for chained calls `foo()->bar()`."""
    j = op_idx - 1
    if j >= 0 and body[j].text == "]":
        depth = 0
        while j >= 0:
            if body[j].text == "]":
                depth += 1
            elif body[j].text == "[":
                depth -= 1
                if depth == 0:
                    j -= 1
                    break
            j -= 1
    if j >= 0 and _is_ident(body[j].text):
        return j
    return None


class MethodFacts:
    """Per-method extraction shared by the checkers."""

    def __init__(self, model: Model, cls: ClassInfo, method: Method,
                 metered_members: set[str]) -> None:
        self.model = model
        self.cls = cls
        self.method = method
        self.direct_charge_lines: list[int] = []
        self.chrono_lines: list[int] = []
        # Same-class bare calls: name -> first line.
        self.same_class_calls: dict[str, int] = {}
        # Delegating calls on metered members: (member, callee, line).
        self.metered_delegations: list[tuple[str, str, int]] = []
        # Lock acquisitions: (node, tok_idx, scope_end_idx, line).
        self.acquisitions: list[tuple[str, int, int, int]] = []
        # Cross-class calls: (callee ClassInfo, method name, tok_idx, line).
        self.calls: list[tuple[ClassInfo, str, int, int]] = []
        self._env = self._build_env(metered_members)
        self._scan(metered_members)

    # -- type environment ---------------------------------------------------

    def _base_class_of(self, type_toks: list[str]) -> ClassInfo | None:
        hit = None
        for t in type_toks:
            if _is_ident(t) and t in self.model.by_name:
                cands = self.model.by_name[t]
                if len(cands) == 1:
                    hit = cands[0]  # innermost template arg wins (last match)
        return hit

    def _build_env(self, metered_members: set[str]) -> dict[str, ClassInfo]:
        env: dict[str, ClassInfo] = {}
        for pname, ptoks in self.method.param_types.items():
            base = self._base_class_of(ptoks)
            if base is not None:
                env[pname] = base
        body = self.method.body
        self.metered_locals: set[str] = set()
        n = len(body)
        for i, tk in enumerate(body):
            # `Cls & name =` / `Cls name(` local declarations.
            if _is_ident(tk.text) and tk.text in self.model.by_name:
                cands = self.model.by_name[tk.text]
                if len(cands) != 1:
                    continue
                j = i + 1
                while j < n and body[j].text in ("&", "*", "const"):
                    j += 1
                if j < n and _is_ident(body[j].text) and j + 1 < n and \
                        body[j + 1].text in ("=", ";", "{"):
                    env[body[j].text] = cands[0]
            # Range-for: `for ( auto & name : member )`.
            if tk.text == "for" and i + 1 < n and body[i + 1].text == "(":
                close = _skip_balanced(body, i + 1, "(", ")")
                inner = body[i + 2:close - 1]
                texts = [t.text for t in inner]
                if ":" in texts:
                    colon = texts.index(":")
                    head, tail = inner[:colon], texts[colon + 1:]
                    idents = [t.text for t in head if _is_ident(t.text)]
                    if idents:
                        var = idents[-1]
                        cont = next((t for t in tail if _is_ident(t)), None)
                        if cont and cont in self.cls.members:
                            base = self._base_class_of(
                                self.cls.members[cont].type_toks)
                            if base is not None:
                                env[var] = base
                            if cont in metered_members:
                                self.metered_locals.add(var)
        return env

    # -- scanning -----------------------------------------------------------

    def _node_for_member(self, cls: ClassInfo, member: str) -> str | None:
        mem = cls.members.get(member)
        if mem is not None and mem.is_mutex and not mem.is_reference:
            return f"{cls.qual}::{member}"
        return None

    def _resolve_lock_arg(self, arg: list[Tok]) -> str | None:
        texts = [t.text for t in arg]
        if len(texts) == 1 and _is_ident(texts[0]):
            return self._node_for_member(self.cls, texts[0])
        if len(texts) == 3 and texts[1] in (".", "->") and \
                _is_ident(texts[0]) and _is_ident(texts[2]):
            base = self._env.get(texts[0])
            if base is None and texts[0] in self.cls.members:
                base = self._base_class_of(
                    self.cls.members[texts[0]].type_toks)
            if base is not None:
                return self._node_for_member(base, texts[2])
        return None

    def _scan(self, metered_members: set[str]) -> None:
        body = self.method.body
        n = len(body)
        pairs = _brace_pairs(body)
        meter_names = {m for m in (metered_members or set())}
        # Members whose type is CostMeter act as the chargeable meter.
        cost_meters = {name for name, mem in self.cls.members.items()
                       if "CostMeter" in mem.type_toks}
        cost_meters |= {p for p, tks in self.method.param_types.items()
                        if "CostMeter" in tks}
        cost_meters |= METER_PARAM_TOKENS
        i = 0
        while i < n:
            t = body[i].text
            if t in ("steady_clock", "system_clock"):
                self.chrono_lines.append(body[i].line)
            if t in LOCK_CLASSES and i + 2 < n and \
                    _is_ident(body[i + 1].text) and body[i + 2].text == "(":
                close = _skip_balanced(body, i + 2, "(", ")")
                node = self._resolve_lock_arg(body[i + 3:close - 1])
                if node is not None:
                    scope_end = _enclosing_scope_end(pairs, i, n)
                    self.acquisitions.append(
                        (node, i, scope_end, body[i].line))
                i = close
                continue
            if t == "(" and i > 0 and _is_ident(body[i - 1].text):
                callee = body[i - 1].text
                prev2 = body[i - 2].text if i >= 2 else ""
                if prev2 in (".", "->"):
                    ridx = _receiver_index(body, i - 2)
                    recv = body[ridx].text if ridx is not None else None
                    if CHARGE_CALL_RE.match(callee) and recv in cost_meters:
                        self.direct_charge_lines.append(body[i - 1].line)
                    elif recv is not None:
                        self._record_receiver_call(
                            recv, callee, metered_members, i, body[i].line)
                elif prev2 != "::" and callee not in NON_NAME_KEYWORDS and \
                        callee not in ("if", "for", "while", "switch",
                                       "return", "sizeof", "catch"):
                    if callee in self.cls.declared_method_names:
                        self.same_class_calls.setdefault(
                            callee, body[i - 1].line)
                        self.calls.append(
                            (self.cls, callee, i - 1, body[i - 1].line))
            i += 1

    def _record_receiver_call(self, recv: str, callee: str,
                              metered_members: set[str], tok_idx: int,
                              line: int) -> None:
        if (recv in metered_members or recv in self.metered_locals) and \
                callee in ENTRY_METHODS:
            self.metered_delegations.append((recv, callee, line))
        base: ClassInfo | None = None
        if recv in self._env:
            base = self._env[recv]
        elif recv in self.cls.members:
            base = self._base_class_of(self.cls.members[recv].type_toks)
        if base is not None:
            self.calls.append((base, callee, tok_idx, line))


def compute_metered_members(model: Model, cls: ClassInfo) -> set[str]:
    """Members constructed/filled with the class's CostMeter: the delegated
    charging layer for AMRI101. Tracks ctor-init args, make_unique
    assignments, two-step `local = make_unique(...); member_ =
    std::move(local)` / `.get()` aliasing, and container push_back."""
    metered: set[str] = set()
    member_names = set(cls.members)
    for method in cls.methods:
        tainted_locals: set[str] = set()
        for (mem, args) in method.init_list:
            target = cls.members.get(mem)
            if target is not None and "CostMeter" in target.type_toks:
                continue  # the meter member itself, not a delegate
            if set(args) & METER_PARAM_TOKENS and mem in member_names:
                metered.add(mem)
        body = method.body
        n = len(body)
        i = 0
        while i < n:
            t = body[i].text
            stmt_end = i
            while stmt_end < n and body[stmt_end].text != ";":
                stmt_end += 1
            stmt = [tk.text for tk in body[i:stmt_end]]
            if "=" in stmt and _is_ident(t) and len(stmt) > 1 and \
                    stmt[1] == "=":
                rhs = stmt[2:]
                tainted_rhs = (
                    ("make_unique" in rhs and
                     set(rhs) & METER_PARAM_TOKENS) or
                    ("move" in rhs and set(rhs) & tainted_locals) or
                    ("get" in rhs and set(rhs) & tainted_locals))
                if tainted_rhs:
                    if t in member_names:
                        metered.add(t)
                    else:
                        tainted_locals.add(t)
            if t in ("push_back", "emplace_back") and i >= 2 and \
                    body[i - 1].text == "." and \
                    _is_ident(body[i - 2].text) and \
                    body[i - 2].text in member_names and \
                    i + 1 < n and body[i + 1].text == "(":
                close = _skip_balanced(body, i + 1, "(", ")")
                args = {tk.text for tk in body[i + 2:close - 1]}
                if args & METER_PARAM_TOKENS or args & tainted_locals:
                    metered.add(body[i - 2].text)
                i = close
                continue
            # `auto idx = make_unique(... meter_ ...)` where the decl is
            # `auto idx = ...` — handled by the `=`-at-stmt[1] case above
            # because `auto` precedes; re-check with offset.
            if t == "auto" and len(stmt) > 2 and _is_ident(stmt[1]) and \
                    stmt[2] == "=":
                rhs = stmt[3:]
                if ("make_unique" in rhs and
                        set(rhs) & METER_PARAM_TOKENS):
                    if stmt[1] in member_names:
                        metered.add(stmt[1])
                    else:
                        tainted_locals.add(stmt[1])
            i += 1
    return metered


# ---------------------------------------------------------------------------
# Checkers
# ---------------------------------------------------------------------------


def _is_metered_class(cls: ClassInfo) -> bool:
    return bool(set(cls.bases) & METERED_BASES) or \
        cls.name in METERED_CLASSES


def _facts_for(model: Model) -> dict[str, list[MethodFacts]]:
    """qual -> MethodFacts per method definition."""
    out: dict[str, list[MethodFacts]] = {}
    for cls in model.classes.values():
        metered = compute_metered_members(model, cls)
        out[cls.qual] = [MethodFacts(model, cls, m, metered)
                         for m in cls.methods]
    return out


def _reach_same_class(facts: list[MethodFacts], start: MethodFacts,
                      ) -> list[MethodFacts]:
    """start plus every same-class method reachable via bare calls."""
    by_name: dict[str, list[MethodFacts]] = {}
    for f in facts:
        by_name.setdefault(f.method.name, []).append(f)
    seen: set[int] = set()
    out: list[MethodFacts] = []
    stack = [start]
    while stack:
        f = stack.pop()
        if id(f) in seen:
            continue
        seen.add(id(f))
        out.append(f)
        for callee in f.same_class_calls:
            stack.extend(by_name.get(callee, []))
    return out


def check_cost_parity(model: Model, facts: dict[str, list[MethodFacts]],
                      add) -> None:
    for cls in model.classes.values():
        cls_facts = facts[cls.qual]
        if cls.name in NO_CHARGE_CLASSES:
            for f in cls_facts:
                for line in f.direct_charge_lines:
                    add(f.method.path, line, "AMRI101",
                        f"{cls.name}::{f.method.name} charges a CostMeter; "
                        f"{cls.name} is charge-free by contract (its owner "
                        "charges around it)")
            continue
        if not _is_metered_class(cls):
            continue
        for f in cls_facts:
            if f.method.name not in ENTRY_METHODS or not f.method.body:
                continue
            reach = _reach_same_class(cls_facts, f)
            direct = any(r.direct_charge_lines for r in reach)
            delegated = any(r.metered_delegations for r in reach)
            # A bare call to a same-class entry method that has no parsed
            # body (pure virtual / declared-only) charges via dynamic
            # dispatch in the implementation.
            defined = {r.method.name for r in cls_facts}
            virtual_delegate = any(
                callee in ENTRY_METHODS and callee not in defined
                for r in reach for callee in r.same_class_calls)
            if direct and delegated:
                where = "; ".join(
                    f"delegates to `{m}->{c}` at line {ln}"
                    for r in reach for (m, c, ln) in r.metered_delegations)
                add(f.method.path, f.method.line, "AMRI101",
                    f"{cls.name}::{f.method.name} both charges the meter "
                    f"directly and {where}: the served tuples are "
                    "double-charged")
            elif not direct and not delegated and not virtual_delegate:
                add(f.method.path, f.method.line, "AMRI101",
                    f"{cls.name}::{f.method.name} reaches no CostMeter "
                    "charge: neither a direct charge_* call nor a "
                    "delegation to a meter-constructed member (uncharged "
                    "fast path)")


def check_clock_discipline(model: Model,
                           facts: dict[str, list[MethodFacts]],
                           add) -> None:
    for cls in model.classes.values():
        if not _is_metered_class(cls):
            continue
        cls_facts = facts[cls.qual]
        flagged: set[int] = set()
        for f in cls_facts:
            if f.method.name not in ENTRY_METHODS:
                continue
            for r in _reach_same_class(cls_facts, f):
                if "/telemetry/" in r.method.path or id(r) in flagged:
                    continue
                if not r.chrono_lines:
                    continue
                flagged.add(id(r))
                n = len(r.chrono_lines)
                add(r.method.path, min(r.chrono_lines), "AMRI102",
                    f"{n} steady/system_clock read(s) inside cost-metered "
                    f"path {cls.name}::{r.method.name} (reached from "
                    f"entry {f.method.name}); wall time belongs to "
                    "telemetry/profiler code")


def _acquire_sets(model: Model, facts: dict[str, list[MethodFacts]],
                  ) -> dict[tuple[str, str], set[str]]:
    """Fixpoint: (class qual, method name) -> mutex nodes the method may
    acquire, directly or via calls."""
    sets: dict[tuple[str, str], set[str]] = {}
    all_facts = [f for fs in facts.values() for f in fs]
    for f in all_facts:
        key = (f.cls.qual, f.method.name)
        sets.setdefault(key, set()).update(
            node for (node, _i, _e, _l) in f.acquisitions)
    changed = True
    while changed:
        changed = False
        for f in all_facts:
            key = (f.cls.qual, f.method.name)
            cur = sets.setdefault(key, set())
            for (callee_cls, callee, _i, _l) in f.calls:
                extra = sets.get((callee_cls.qual, callee))
                if extra and not extra <= cur:
                    cur |= extra
                    changed = True
    return sets


@dataclass
class Edge:
    src: str
    dst: str
    path: str
    line: int
    why: str


def collect_lock_edges(model: Model, facts: dict[str, list[MethodFacts]],
                       seed_edges, add) -> tuple[set[str], list[Edge]]:
    nodes: set[str] = set()
    for cls in model.classes.values():
        for name, mem in cls.members.items():
            if mem.is_mutex and not mem.is_reference:
                nodes.add(f"{cls.qual}::{name}")
    acq_sets = _acquire_sets(model, facts)
    edges: list[Edge] = []
    for fs in facts.values():
        for f in fs:
            for (node, i, scope_end, line) in f.acquisitions:
                for (node2, i2, _e2, line2) in f.acquisitions:
                    if i < i2 < scope_end:
                        if node2 == node:
                            add(f.method.path, line2, "AMRI103",
                                f"{node} acquired while already held "
                                f"(first acquired at line {line}): "
                                "self-deadlock")
                        else:
                            edges.append(Edge(
                                node, node2, f.method.path, line2,
                                f"nested in {f.cls.name}::"
                                f"{f.method.name}"))
                for (callee_cls, callee, ci, cl) in f.calls:
                    if not i < ci < scope_end:
                        continue
                    for node2 in acq_sets.get(
                            (callee_cls.qual, callee), ()):
                        if node2 == node:
                            add(f.method.path, cl, "AMRI103",
                                f"{callee_cls.name}::{callee} may "
                                f"re-acquire {node} already held in "
                                f"{f.cls.name}::{f.method.name}: "
                                "self-deadlock")
                        else:
                            edges.append(Edge(
                                node, node2, f.method.path, cl,
                                f"{f.cls.name}::{f.method.name} calls "
                                f"{callee_cls.name}::{callee} under "
                                "the lock"))
    for (src, dst, why) in seed_edges:
        if src in nodes and dst in nodes:
            edges.append(Edge(src, dst, "<seed>", 0, why))
    return nodes, edges


def _find_cycle(nodes: set[str],
                adj: dict[str, set[str]]) -> list[str] | None:
    WHITE, GRAY, BLACK = 0, 1, 2
    color = {n: WHITE for n in nodes}
    parent: dict[str, str] = {}
    for start in sorted(nodes):
        if color[start] != WHITE:
            continue
        stack = [(start, iter(sorted(adj.get(start, ()))))]
        color[start] = GRAY
        while stack:
            n, it = stack[-1]
            advanced = False
            for m in it:
                if color.get(m, BLACK) == WHITE:
                    color[m] = GRAY
                    parent[m] = n
                    stack.append((m, iter(sorted(adj.get(m, ())))))
                    advanced = True
                    break
                if color.get(m) == GRAY:
                    cycle = [m, n]
                    p = n
                    while p != m:
                        p = parent[p]
                        cycle.append(p)
                    cycle.reverse()
                    return cycle
            if not advanced:
                color[n] = BLACK
                stack.pop()
    return None


def assign_ranks(nodes: set[str], edges: list[Edge],
                 add) -> dict[str, int] | None:
    adj: dict[str, set[str]] = {}
    for e in edges:
        adj.setdefault(e.src, set()).add(e.dst)
    cycle = _find_cycle(nodes, adj)
    if cycle is not None:
        witness = next((e for e in edges if e.src == cycle[0]
                        and e.dst == cycle[1]), edges[0] if edges else None)
        path = witness.path if witness else "<graph>"
        line = witness.line if witness else 0
        add(path, line, "AMRI103",
            "lock acquisition cycle: " + " -> ".join(cycle))
        return None
    layer: dict[str, int] = {}

    def layer_of(n: str, trail: tuple = ()) -> int:
        if n in layer:
            return layer[n]
        preds = [e.src for e in edges if e.dst == n]
        val = 1 + max((layer_of(p) for p in preds), default=0)
        layer[n] = val
        return val

    for n in nodes:
        layer_of(n)
    ordered = sorted(nodes, key=lambda n: (layer[n], n))
    return {n: 10 * (i + 1) for i, n in enumerate(ordered)}


def rank_constant_name(node: str) -> str:
    parts = [p.rstrip("_") for p in node.split("::")]
    return "k" + "".join(p[:1].upper() + p[1:] for p in parts if p)


def render_ranks_header(ranks: dict[str, int]) -> str:
    lines = [
        "// Generated by tools/amri_ast_lint.py --emit-ranks. Do not edit.",
        "// Static Mutex acquisition order (AMRI103): a thread may only",
        "// acquire a mutex with a strictly greater rank than every mutex",
        "// it already holds. Regenerate after changing lock structure:",
        "//   python3 tools/amri_ast_lint.py src",
        "//       --emit-ranks src/common/lock_ranks.gen.hpp",
        "#pragma once",
        "",
        "namespace amri::lockrank {",
        "",
    ]
    for node, rank in sorted(ranks.items(), key=lambda kv: kv[1]):
        lines.append(f"// {node}")
        lines.append(f"inline constexpr int {rank_constant_name(node)} = "
                     f"{rank};")
    lines += ["", "}  // namespace amri::lockrank", ""]
    return "\n".join(lines)


def check_rank_init(model: Model, ranks: dict[str, int], add) -> None:
    for cls in model.classes.values():
        for name, mem in cls.members.items():
            node = f"{cls.qual}::{name}"
            if node not in ranks:
                continue
            want = rank_constant_name(node)
            init = [t for t in mem.init_toks if t not in ("(", ")")]
            if init != ["lockrank", "::", want]:
                add(cls.path, mem.line, "AMRI103",
                    f"Mutex member {node} must brace-initialize with its "
                    f"generated rank: `Mutex {name}{{lockrank::{want}}};`")


def check_annotation_coverage(model: Model, add) -> None:
    for cls in model.classes.values():
        owned = [m for m in cls.members.values()
                 if m.is_mutex and not m.is_reference]
        if not owned:
            continue
        mutex_names = ", ".join(sorted(m.name for m in owned))
        for mem in cls.members.values():
            if mem.is_mutex or mem.is_condvar or mem.is_const or \
                    mem.is_static or mem.is_atomic or mem.is_reference:
                continue
            if mem.guarded_by or mem.pt_guarded_by:
                continue
            add(cls.path, mem.line, "AMRI104",
                f"{cls.qual}::{mem.name} is a mutable non-atomic member of "
                f"a Mutex-owning class ({mutex_names}) without "
                "AMRI_GUARDED_BY/AMRI_PT_GUARDED_BY; -Wthread-safety "
                "silently ignores unannotated fields")


# ---------------------------------------------------------------------------
# Waivers + driver
# ---------------------------------------------------------------------------


class WaiverTable:
    """Per-file `// amri-lint: allow(AMRI1xx)` comments. A waiver on line L
    suppresses findings on L and L+1 (comment-above style). Waivers naming
    rules outside this tool's AMRI1xx namespace belong to amri_lint.py and
    are ignored here; unused AMRI1xx waivers are stale (AMRI100)."""

    def __init__(self) -> None:
        # (path, line) -> set of rules; and usage tracking.
        self.at: dict[tuple[str, int], set[str]] = {}
        self.used: set[tuple[str, int, str]] = set()

    def load(self, path: str, text: str) -> None:
        for idx, line in enumerate(text.splitlines(), start=1):
            m = WAIVER_RE.search(line)
            if m:
                rules = {r.strip() for r in m.group(1).split(",")}
                ours = {r for r in rules if RULE_NAMESPACE_RE.match(r)}
                if ours:
                    self.at[(path, idx)] = ours

    def suppresses(self, path: str, line: int, rule: str) -> bool:
        for wline in (line, line - 1):
            if rule in self.at.get((path, wline), ()):
                self.used.add((path, wline, rule))
                return True
        return False

    def stale(self) -> list[tuple[str, int, str]]:
        out = []
        for (path, line), rules in sorted(self.at.items()):
            for rule in sorted(rules):
                if rule not in RULES:
                    out.append((path, line, rule))
                elif (path, line, rule) not in self.used:
                    out.append((path, line, rule))
        return out


def analyze(sources: list[tuple[str, str]],
            checks: set[str] | None = None,
            seed_edges=None,
            require_rank_init: bool = False,
            ) -> tuple[list[Finding], dict[str, int] | None, list["Edge"]]:
    """Run the internal backend over (path, text) pairs.

    Returns (findings, ranks-or-None, lock edges). `checks` defaults to all
    rules; AMRI100 (stale waiver) always runs."""
    checks = set(checks) if checks else set(RULES)
    model = Model()
    waivers = WaiverTable()
    # Headers first: out-of-line .cpp definitions attach to classes that
    # must already be in the model.
    ordered = sorted(
        sources,
        key=lambda s: (pathlib.PurePosixPath(s[0]).suffix
                       not in (".hpp", ".h"), s[0]))
    for path, text in ordered:
        waivers.load(path, text)
        toks = tokenize(strip_comments_and_strings(text))
        Parser(path, toks, model).parse()

    findings: list[Finding] = []

    def add(path: str, line: int, rule: str, message: str) -> None:
        if rule not in checks:
            return
        if waivers.suppresses(path, line, rule):
            return
        findings.append(Finding(pathlib.Path(path), line, rule, message))

    facts = _facts_for(model)
    if "AMRI101" in checks:
        check_cost_parity(model, facts, add)
    if "AMRI102" in checks:
        check_clock_discipline(model, facts, add)
    ranks: dict[str, int] | None = None
    if "AMRI103" in checks:
        nodes, edges = collect_lock_edges(
            model, facts, seed_edges if seed_edges is not None
            else SEED_EDGES, add)
        ranks = assign_ranks(nodes, edges, add)
        if ranks is not None and require_rank_init:
            check_rank_init(model, ranks, add)
    else:
        edges = []
    if "AMRI104" in checks:
        check_annotation_coverage(model, add)
    if "AMRI100" in checks:
        for (path, line, rule) in waivers.stale():
            if rule not in RULES:
                add(path, line, "AMRI100",
                    f"waiver names unknown rule {rule} (known: "
                    f"{', '.join(sorted(RULES))})")
            else:
                add(path, line, "AMRI100",
                    f"stale waiver: allow({rule}) suppresses nothing")
    return findings, ranks, edges


def collect_sources(paths: list[pathlib.Path],
                    compile_commands: pathlib.Path | None,
                    ) -> list[tuple[str, str]]:
    files: list[pathlib.Path] = []
    for p in paths:
        if p.is_dir():
            files.extend(sorted(f for f in p.rglob("*")
                                if f.suffix in CXX_SUFFIXES))
        elif p.suffix in CXX_SUFFIXES and p.exists():
            files.append(p)
        else:
            raise ValueError(f"not a C++ file or directory: {p}")
    if compile_commands is not None:
        try:
            db = json.loads(compile_commands.read_text(encoding="utf-8"))
        except (OSError, json.JSONDecodeError) as err:
            raise ValueError(f"bad compile_commands: {err}") from err
        seen = {f.resolve() for f in files}
        for entry in db:
            f = (pathlib.Path(entry.get("directory", ".")) /
                 entry["file"]).resolve()
            if f.suffix in CXX_SUFFIXES and f.exists() and f not in seen:
                files.append(f)
                seen.add(f)
    out = []
    for f in files:
        try:
            out.append((f.as_posix(), f.read_text(encoding="utf-8")))
        except (OSError, UnicodeDecodeError) as err:
            print(f"amri_ast_lint: skipping {f}: {err}", file=sys.stderr)
    return out


def try_libclang_backend(sources, args):
    """Best-effort clang.cindex backend: parse each TU from
    compile_commands, surface parse diagnostics, then run the (identical,
    deterministic) token-level checkers over the same sources. Returns None
    when the bindings or library are unavailable."""
    try:
        from clang import cindex  # type: ignore
    except ImportError:
        return None
    try:
        index = cindex.Index.create()
    except Exception as err:  # libclang.so missing/mismatched
        print(f"amri_ast_lint: libclang unavailable ({err})",
              file=sys.stderr)
        return None
    diags: list[str] = []
    if args.compile_commands:
        try:
            db = json.loads(
                args.compile_commands.read_text(encoding="utf-8"))
        except (OSError, json.JSONDecodeError):
            db = []
        for entry in db:
            fname = entry["file"]
            cmd = entry.get("arguments") or entry.get("command", "").split()
            clang_args = [a for a in cmd[1:]
                          if a != fname and not a.startswith("-o")]
            try:
                tu = index.parse(fname, args=clang_args)
            except cindex.TranslationUnitLoadError as err:
                diags.append(f"{fname}: {err}")
                continue
            for d in tu.diagnostics:
                if d.severity >= cindex.Diagnostic.Error:
                    diags.append(f"{fname}: {d.spelling}")
    for d in diags:
        print(f"amri_ast_lint: [libclang] {d}", file=sys.stderr)
    return analyze(sources, checks=set(args.checks),
                   require_rank_init=args.require_rank_init)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("paths", nargs="*", type=pathlib.Path,
                        help="files or directories (default: src/)")
    parser.add_argument("--compile-commands", type=pathlib.Path,
                        help="compile_commands.json to enumerate TUs from")
    parser.add_argument("--checks", default=",".join(sorted(RULES)),
                        help="comma-separated rule ids (default: all)")
    parser.add_argument("--backend", default="internal",
                        choices=["internal", "libclang", "auto"],
                        help="analysis backend (default: internal)")
    parser.add_argument("--emit-ranks", metavar="PATH",
                        help="write the generated lock-rank header "
                             "(- for stdout) and exit")
    parser.add_argument("--check-ranks", metavar="PATH", type=pathlib.Path,
                        help="fail if PATH differs from the ranks this "
                             "tree implies")
    parser.add_argument("--require-rank-init", action="store_true",
                        help="require every ranked Mutex member to "
                             "brace-initialize with its lockrank constant")
    parser.add_argument("--list-edges", action="store_true",
                        help="print the lock acquisition graph and exit 0")
    args = parser.parse_args(argv)
    args.checks = {c.strip() for c in args.checks.split(",") if c.strip()}
    unknown = args.checks - RULES
    if unknown:
        print(f"amri_ast_lint: unknown checks: {', '.join(sorted(unknown))}",
              file=sys.stderr)
        return 2

    paths = args.paths or [pathlib.Path(__file__).resolve().parent.parent /
                           "src"]
    try:
        sources = collect_sources(paths, args.compile_commands)
    except ValueError as err:
        print(f"amri_ast_lint: {err}", file=sys.stderr)
        return 2
    if not sources:
        print("amri_ast_lint: no C++ files found", file=sys.stderr)
        return 2

    result = None
    if args.backend in ("libclang", "auto"):
        result = try_libclang_backend(sources, args)
        if result is None:
            if args.backend == "libclang":
                print("amri_ast_lint: libclang backend requested but "
                      "clang.cindex/libclang is not available",
                      file=sys.stderr)
                return 2
            print("amri_ast_lint: falling back to internal backend",
                  file=sys.stderr)
    if result is None:
        result = analyze(sources, checks=args.checks,
                         require_rank_init=args.require_rank_init)
    findings, ranks, edges = result

    if args.list_edges:
        for e in sorted(edges, key=lambda e: (e.src, e.dst, e.path, e.line)):
            print(f"{e.src} -> {e.dst}  [{e.path}:{e.line}] {e.why}")
        if ranks:
            for node, rank in sorted(ranks.items(), key=lambda kv: kv[1]):
                print(f"rank {rank:4d}  {node}")
        return 0

    rc = 0
    if args.emit_ranks is not None or args.check_ranks is not None:
        if ranks is None:
            print("amri_ast_lint: cannot emit ranks (cycle or AMRI103 "
                  "disabled)", file=sys.stderr)
            return 2
        header = render_ranks_header(ranks)
        if args.emit_ranks == "-":
            sys.stdout.write(header)
        elif args.emit_ranks is not None:
            pathlib.Path(args.emit_ranks).write_text(header,
                                                    encoding="utf-8")
            print(f"amri_ast_lint: wrote {args.emit_ranks}",
                  file=sys.stderr)
        if args.check_ranks is not None:
            try:
                current = args.check_ranks.read_text(encoding="utf-8")
            except OSError:
                current = ""
            if current != header:
                print(f"amri_ast_lint: {args.check_ranks} is stale; "
                      "regenerate with --emit-ranks", file=sys.stderr)
                rc = 1

    for finding in findings:
        print(finding.render())
    print(f"amri_ast_lint: {len(sources)} files, {len(findings)} "
          f"finding(s)", file=sys.stderr)
    return 1 if findings else rc


if __name__ == "__main__":
    sys.exit(main())
