"""Textual frontend: parse `.rsys` model files and `.props` property files
into semantic objects, and pretty-print them back.

Grammar (frozen; see README for the full EBNF):

    model NAME { item* }
    item  := "state" IDENT ":" domain ("init" literal)? ";"
           | "input" IDENT ("," IDENT)* ":" domain ";"
           | "assume" expr ";" | "invariant" expr ";" | "init" expr ";"
           | "trans" "{" (IDENT "'" "=" expr ";")* "}"
    domain := "bool" | INT ".." INT | "{" IDENT ("," IDENT)* "}"
    property := "property" NAME "{" "assume" expr ";" "assert" expr ";" "}"

Expressions use C-like precedence over `? : => || && == != < <= + - !`,
with `next(v)` referencing the post-state (assertions only).  Comments run
from `//` to end of line.

Names resolve by deferred builders: the parser turns each expression into
a function of its scope (the declared names and the variable spaces the
item may read) that returns the `model.Expr` and its sort, each node
sorted once by `model.node_sort` from its operands' sorts.  A model's
items are built once every declaration is read, a property once both of
its expressions are read, a state set at the end of its text.  So a
syntax error is reported before any name or sort error, declarations are
checked as they are read, and among the rest the earliest item wins.
"""

from __future__ import annotations

import re
import sys
from dataclasses import dataclass
from functools import partial
from typing import Callable, Optional

from .model import (BOOL, CMP_OPS, BoolDomain, BinOp, Const, Domain,
                    EnumDomain, Expr, IntRange, Ite, Model, Not,
                    Property, Ref, SortError, StateSpace, eval_expr, node_sort,
                    SPACE_INPUT, SPACE_NEXT, SPACE_STATE, TRUE)

KEYWORDS = {"model", "state", "input", "assume", "invariant", "init", "trans",
            "property", "assert", "next", "bool", "true", "false"}

PUNCT = ["==", "!=", "<=", "&&", "||", "=>", "..",
         "{", "}", "(", ")", ":", ";", ",", "?", "'", "=", "<", "!", "+", "-"]


@dataclass(frozen=True)
class SourceSpan:
    file: str
    line: int
    col: int
    end_line: int
    end_col: int

    def __post_init__(self):
        if (self.end_line, self.end_col) < (self.line, self.col):
            raise ValueError("span ends before it starts")

    def __str__(self):
        return f"{self.file}:{self.line}:{self.col}"


@dataclass(frozen=True)
class Diagnostic:
    severity: str  # "error" | "warning"
    message: str
    span: SourceSpan

    def __str__(self):
        return f"{self.span}: {self.severity}: {self.message}"


class ParseError(Exception):
    def __init__(self, message: str, span: SourceSpan):
        super().__init__(message)
        self.diagnostic = Diagnostic("error", message, span)


def _error(ex: Exception, filename: str) -> Diagnostic:
    """A ParseError's diagnostic.  The parser and its checks recurse per
    level of an expression tree, so a RecursionError means a tree too
    deep for the interpreter; it is reported at the file's start."""
    if isinstance(ex, RecursionError):
        return Diagnostic("error", "expression nests too deeply",
                          SourceSpan(filename, 1, 1, 1, 1))
    return ex.diagnostic


@dataclass(frozen=True)
class Token:
    kind: str  # "ident", "int", "punct", "eof"
    text: str
    span: SourceSpan


#: One alternative per token class, tried in order, so a PUNCT entry
#: listed before its prefix wins; the last catches any other character.
_TOKEN = re.compile("|".join((
    r"(?P<newline>\n)", r"(?P<blank>[ \t\r]+)", r"(?P<comment>//[^\n]*)",
    r"(?P<int>[0-9]+)", r"(?P<ident>\w+)",
    "(?P<punct>" + "|".join(map(re.escape, PUNCT)) + ")", r"(?P<other>.)")), re.S)


def tokenize(text: str, filename: str) -> list[Token]:
    """The tokens of `text`, closed by an "eof" token.  A tab or a
    carriage return is one blank column, and a comment does not move the
    column.  Integers are ASCII digits; an identifier starts with a
    letter (`str.isalpha`) or '_' and goes on with letters, digits or
    '_' (`str.isalnum`, which is exactly what the pattern's word class
    matches)."""
    toks: list[Token] = []
    line, col = 1, 1
    for m in _TOKEN.finditer(text):
        kind, tok = m.lastgroup, m[0]
        if kind == "newline":
            line, col = line + 1, 1
        elif kind == "other" or kind == "ident" and not (tok[0].isalpha() or tok[0] == "_"):
            raise ParseError(f"unexpected character {tok[0]!r}",
                             SourceSpan(filename, line, col, line, col))
        elif kind != "comment":
            if kind != "blank":
                # interned, so the operator and name strings that the
                # expressions keep are shared, not one copy per token
                toks.append(Token(kind, sys.intern(tok),
                                  SourceSpan(filename, line, col, line, col + len(tok) - 1)))
            col += len(tok)
    toks.append(Token("eof", "", SourceSpan(filename, line, col, line, col)))
    return toks


#: A parsed expression waiting for its scope: given the declared names and
#: the variable spaces the item may read, it returns the Expr and its sort.
Build = Callable[["_Symbols", frozenset], tuple[Expr, Domain]]


class _Parser:
    def __init__(self, text: str, filename: str):
        self.toks = tokenize(text, filename)
        self.pos = 0

    def peek(self) -> Token:
        return self.toks[self.pos]

    def next(self) -> Token:
        t = self.toks[self.pos]
        self.pos += 1
        return t

    def at(self, kind: str, text: Optional[str] = None) -> bool:
        t = self.peek()
        return t.kind == kind and (text is None or t.text == text)

    def expect(self, kind: str, text: Optional[str] = None) -> Token:
        t = self.peek()
        if not self.at(kind, text):
            want = text if text is not None else kind
            raise ParseError(f"expected '{want}', found '{t.text or t.kind}'", t.span)
        return self.next()

    def ident(self, what: str) -> Token:
        t = self.peek()
        if t.kind != "ident" or t.text in KEYWORDS:
            raise ParseError(f"expected {what}, found '{t.text or t.kind}'", t.span)
        return self.next()

    def signed_int(self) -> int:
        """An integer literal with an optional leading '-'."""
        neg = self.at("punct", "-")
        if neg:
            self.next()
        v = int(self.expect("int").text)
        return -v if neg else v

    # -- expressions (C-like precedence) ------------------------------------

    def expr(self) -> Build:
        return self.ternary()

    def node(self, start: int, make: Callable[..., Expr], *parts: Build) -> Build:
        """Builder of `make(*parts)`, sorted once from the parts' sorts; its
        sort errors point at its first token from `start` that is not '('."""
        while self.toks[start].text == "(":
            start += 1
        span = self.toks[start].span

        def build(sym, allowed):
            exprs, sorts = zip(*[b(sym, allowed) for b in parts])
            e = make(*exprs)
            try:
                return e, node_sort(e, *sorts)
            except SortError as ex:
                raise ParseError(str(ex), span) from ex
        return build

    def ternary(self) -> Build:
        start = self.pos
        c = self.implies()
        if not self.at("punct", "?"):
            return c
        self.next()
        t = self.expr()
        self.expect("punct", ":")
        return self.node(start, Ite, c, t, self.ternary())

    def implies(self) -> Build:
        start = self.pos
        a = self.or_()
        if not self.at("punct", "=>"):
            return a
        self.next()
        return self.node(start, partial(BinOp, "=>"), a, self.implies())

    def left(self, ops: tuple[str, ...], operand: Callable[[], Build]) -> Build:
        """`operand (op operand)*`, grouped to the left."""
        start = self.pos
        a = operand()
        while self.peek().kind == "punct" and self.peek().text in ops:
            a = self.node(start, partial(BinOp, self.next().text), a, operand())
        return a

    def or_(self) -> Build:
        return self.left(("||",), self.and_)

    def and_(self) -> Build:
        return self.left(("&&",), self.cmp)

    def cmp(self) -> Build:
        start = self.pos
        a = self.add()
        t = self.peek()
        if t.kind == "punct" and t.text in CMP_OPS:
            self.next()
            return self.node(start, partial(BinOp, t.text), a, self.add())
        return a

    def add(self) -> Build:
        return self.left(("+", "-"), self.unary)

    def unary(self) -> Build:
        if self.at("punct", "!"):
            start = self.pos
            self.next()
            return self.node(start, Not, self.unary())
        return self.atom()

    def atom(self) -> Build:
        t = self.peek()
        if self.at("punct", "("):
            self.next()
            e = self.expr()
            self.expect("punct", ")")
            return e
        if self.at("punct", "-") or t.kind == "int":
            v = self.signed_int()
            leaf = _leaf(Const(v, IntRange(v, v)))
            return lambda sym, allowed: leaf
        if t.kind == "ident":
            if t.text in ("true", "false"):
                self.next()
                leaf = _leaf(Const(t.text == "true", BOOL))
                return lambda sym, allowed: leaf
            if t.text == "next":
                self.next()
                self.expect("punct", "(")
                name = self.ident("a state variable name").text
                self.expect("punct", ")")
                return lambda sym, allowed: _leaf(sym.next_ref(name, t.span, allowed))
            if t.text in KEYWORDS:
                raise ParseError(f"unexpected keyword '{t.text}'", t.span)
            self.next()
            return lambda sym, allowed: _leaf(sym.ref(t.text, t.span, allowed))
        raise ParseError(f"expected an expression, found '{t.text or t.kind}'", t.span)

    # -- domains -------------------------------------------------------------

    def domain(self, enum_name: str) -> Domain:
        t = self.peek()
        if self.at("ident", "bool"):
            self.next()
            return BOOL
        if self.at("punct", "{"):
            self.next()
            consts = [self.ident("an enum constant").text]
            while self.at("punct", ","):
                self.next()
                consts.append(self.ident("an enum constant").text)
            self.expect("punct", "}")
            if len(set(consts)) != len(consts):
                raise ParseError("duplicate constants in enum domain", t.span)
            return EnumDomain(enum_name, tuple(consts))
        lo = self.signed_int()
        self.expect("punct", "..")
        hi = self.signed_int()
        if lo > hi:
            raise ParseError(f"empty domain {lo}..{hi}", t.span)
        return IntRange(lo, hi)

    def literal(self, dom: Domain, what: str) -> object:
        t = self.peek()
        if isinstance(dom, BoolDomain):
            if self.at("ident", "true") or self.at("ident", "false"):
                return self.next().text == "true"
            raise ParseError(f"expected true/false for {what}", t.span)
        if isinstance(dom, IntRange):
            v = self.signed_int()
            if not dom.contains(v):
                raise ParseError(f"initial value {v} outside domain {dom}", t.span)
            return v
        name = self.ident("an enum constant")
        if name.text not in dom.constants:
            raise ParseError(f"'{name.text}' is not a constant of {dom}", name.span)
        return name.text


# ---------------------------------------------------------------------------
# Names: declarations and the rules for reading them
# ---------------------------------------------------------------------------

class _Symbols:
    def __init__(self):
        self.state: dict[str, Domain] = {}
        self.input: dict[str, Domain] = {}
        self.consts: dict[str, EnumDomain] = {}

    def declare(self, name: str, dom: Domain, space: str, span: SourceSpan):
        if name in self.state or name in self.input or name in self.consts:
            raise ParseError(f"duplicate name '{name}'", span)
        (self.state if space == SPACE_STATE else self.input)[name] = dom
        if isinstance(dom, EnumDomain):
            for c in dom.constants:
                if c in self.consts or c in self.state or c in self.input:
                    raise ParseError(f"enum constant '{c}' clashes with an existing name", span)
                self.consts[c] = dom

    def ref(self, name: str, span: SourceSpan, allowed: frozenset) -> Expr:
        """The constant or variable `name`, where `allowed` spaces are read."""
        if name in self.consts:
            return Const(name, self.consts[name])
        if name in self.state:
            if SPACE_STATE not in allowed:
                raise ParseError(f"state variable '{name}' is not allowed here", span)
            return Ref(name, SPACE_STATE, self.state[name])
        if name in self.input:
            if SPACE_INPUT not in allowed:
                raise ParseError(f"input variable '{name}' is not allowed here", span)
            return Ref(name, SPACE_INPUT, self.input[name])
        raise ParseError(f"undeclared name '{name}'", span)

    def next_ref(self, name: str, span: SourceSpan, allowed: frozenset) -> Expr:
        """`next(name)`, where `allowed` spaces are read."""
        if SPACE_NEXT not in allowed:
            raise ParseError("next() is not allowed here", span)
        if name not in self.state:
            raise ParseError(f"next() needs a state variable, got '{name}'", span)
        return Ref(name, SPACE_NEXT, self.state[name])


def _leaf(e: Expr) -> tuple[Expr, Domain]:
    """A constant or variable with its sort, its declared domain."""
    return e, e.domain


# ---------------------------------------------------------------------------
# Public entry points
# ---------------------------------------------------------------------------

#: Abort satisfiability sanity checks past this many candidate states.
ENUM_CHECK_LIMIT = 1 << 16


def parse_model(text: str, filename: str = "<model>"):
    """Parse one model file.  Returns (Model | None, diagnostics)."""
    diags: list[Diagnostic] = []
    try:
        m = _parse_model(text, filename)
    except (ParseError, RecursionError) as ex:
        diags.append(_error(ex, filename))
        return None, diags
    return m, diags


def _parse_model(text: str, filename: str) -> Model:
    p = _Parser(text, filename)
    p.expect("ident", "model")
    name = p.ident("a model name").text
    p.expect("punct", "{")

    sym = _Symbols()
    state_vars: list[tuple[str, Domain]] = []
    inputs: list[tuple[str, Domain]] = []
    init_values: list[tuple[str, object]] = []
    items: list[tuple[str, Build, SourceSpan]] = []

    while not p.at("punct", "}"):
        t = p.peek()
        if p.at("ident", "state"):
            p.next()
            n = p.ident("a state variable name")
            p.expect("punct", ":")
            dom = p.domain(enum_name=n.text)
            sym.declare(n.text, dom, SPACE_STATE, n.span)
            state_vars.append((n.text, dom))
            if p.at("ident", "init"):
                p.next()
                init_values.append((n.text, p.literal(dom, f"init of '{n.text}'")))
            p.expect("punct", ";")
        elif p.at("ident", "input"):
            p.next()
            names = [p.ident("an input variable name")]
            while p.at("punct", ","):
                p.next()
                names.append(p.ident("an input variable name"))
            p.expect("punct", ":")
            dom = p.domain(enum_name=names[0].text)
            for n in names:
                sym.declare(n.text, dom, SPACE_INPUT, n.span)
                inputs.append((n.text, dom))
            p.expect("punct", ";")
        elif p.at("ident", "assume") or p.at("ident", "invariant") or p.at("ident", "init"):
            kind = p.next().text
            build = p.expr()
            p.expect("punct", ";")
            items.append((kind, build, t.span))
        elif p.at("ident", "trans"):
            p.next()
            p.expect("punct", "{")
            while not p.at("punct", "}"):
                n = p.ident("a state variable name")
                p.expect("punct", "'")
                p.expect("punct", "=")
                build = p.expr()
                p.expect("punct", ";")
                items.append(("trans:" + n.text, build, n.span))
            p.expect("punct", "}")
        else:
            raise ParseError(f"unexpected '{t.text or t.kind}' in model body", t.span)
    p.expect("punct", "}")
    p.expect("eof")

    preds: dict[str, Expr] = {"assume": TRUE, "invariant": TRUE, "init": TRUE}
    transition: dict[str, Expr] = {}
    for kind, build, span in items:
        if kind in preds:
            e, sort = build(sym, frozenset({SPACE_INPUT if kind == "assume" else SPACE_STATE}))
            if sort != BOOL:
                raise ParseError(f"'{kind}' needs a boolean expression", span)
            preds[kind] = e
        else:
            var = kind.split(":", 1)[1]
            if var not in sym.state:
                raise ParseError(f"'{var}' is not a state variable", span)
            if var in transition:
                raise ParseError(f"duplicate update for '{var}'", span)
            e, src = build(sym, frozenset({SPACE_STATE, SPACE_INPUT}))
            target = sym.state[var]
            if isinstance(target, IntRange):
                if not isinstance(src, IntRange):
                    raise ParseError(f"update of '{var}' is not an integer expression", span)
            elif src != target:
                raise ParseError(f"update of '{var}' has sort {src}, expected {target}", span)
            transition[var] = e

    m = Model(name=name,
              state_vars=tuple(state_vars),
              inputs=tuple(inputs),
              init_values=tuple(init_values),
              init_pred=preds["init"],
              input_assumption=preds["assume"],
              state_invariant=preds["invariant"],
              transition=tuple(transition.items()))

    if m.state_space_size() <= ENUM_CHECK_LIMIT:
        if not any(eval_expr(m.init_pred, s) and eval_expr(m.state_invariant, s)
                   for s in m.all_states()
                   if all(s[n] == v for n, v in m.init_values)):
            raise ParseError("no state satisfies init together with the invariant",
                             SourceSpan(filename, 1, 1, 1, 1))
        if not m.legal_inputs():
            raise ParseError("the input assumption is unsatisfiable",
                             SourceSpan(filename, 1, 1, 1, 1))
    return m


def parse_properties(text: str, model: Model, filename: str = "<props>"):
    """Parse a property file against a model.  Returns (list, diagnostics);
    the list is only usable when no error diagnostics were produced."""
    diags: list[Diagnostic] = []
    props: list[Property] = []
    sym = _model_symbols(model)
    # a model too big to enumerate gets no space and no trigger warnings
    space = (StateSpace(model) if model.state_space_size() * model.input_space_size()
             <= ENUM_CHECK_LIMIT else None)
    try:
        p = _Parser(text, filename)
        seen: set[str] = set()
        while not p.at("eof"):
            t = p.expect("ident", "property")
            name = p.ident("a property name")
            if name.text in seen:
                raise ParseError(f"duplicate property '{name.text}'", name.span)
            seen.add(name.text)
            p.expect("punct", "{")
            p.expect("ident", "assume")
            build_phi = p.expr()
            p.expect("punct", ";")
            p.expect("ident", "assert")
            build_psi = p.expr()
            p.expect("punct", ";")
            p.expect("punct", "}")
            phi, phi_sort = build_phi(sym, frozenset({SPACE_STATE, SPACE_INPUT}))
            psi, psi_sort = build_psi(sym, frozenset({SPACE_STATE, SPACE_INPUT, SPACE_NEXT}))
            if phi_sort != BOOL or psi_sort != BOOL:
                raise ParseError("assume/assert need boolean expressions", t.span)
            props.append(Property(name.text, phi, psi))
            if space is not None and next(space.triggered(phi), None) is None:
                diags.append(Diagnostic(
                    "warning",
                    f"trigger of '{name.text}' is unsatisfiable under the state invariant",
                    name.span))
    except (ParseError, RecursionError) as ex:
        diags.append(_error(ex, filename))
        return [], diags
    return props, diags


def _model_symbols(model: Model) -> _Symbols:
    sym = _Symbols()
    for n, d in model.state_vars:
        sym.declare(n, d, SPACE_STATE, SourceSpan("<model>", 1, 1, 1, 1))
    for n, d in model.inputs:
        sym.declare(n, d, SPACE_INPUT, SourceSpan("<model>", 1, 1, 1, 1))
    return sym


def parse_state_set(text: str, model: Model, filename: str = "<expr>"):
    """Parse a state-set predicate (state variables only).
    Returns (Expr | None, diagnostics)."""
    diags: list[Diagnostic] = []
    try:
        p = _Parser(text, filename)
        build = p.expr()
        p.expect("eof")
        e, sort = build(_model_symbols(model), frozenset({SPACE_STATE}))
        if sort != BOOL:
            raise ParseError("a state set must be a boolean expression",
                             SourceSpan(filename, 1, 1, 1, 1))
        return e, diags
    except (ParseError, RecursionError) as ex:
        diags.append(_error(ex, filename))
        return None, diags


# ---------------------------------------------------------------------------
# Pretty-printing (parse . print . parse is a fixpoint)
# ---------------------------------------------------------------------------

_PREC = {"?:": 1, "=>": 2, "||": 3, "&&": 4,
         "==": 5, "!=": 5, "<": 5, "<=": 5, "+": 6, "-": 6, "!": 7}


def format_expr(e: Expr, parent_prec: int = 0) -> str:
    if isinstance(e, Const):
        if isinstance(e.value, bool):
            return "true" if e.value else "false"
        return str(e.value)
    if isinstance(e, Ref):
        return f"next({e.name})" if e.space == SPACE_NEXT else e.name
    if isinstance(e, Not):
        return "!" + format_expr(e.a, _PREC["!"])
    if isinstance(e, Ite):
        s = (f"{format_expr(e.cond, _PREC['?:'] + 1)} ? {format_expr(e.then, 0)}"
             f" : {format_expr(e.other, _PREC['?:'])}")
        return f"({s})" if parent_prec > _PREC["?:"] else s
    if isinstance(e, BinOp):
        prec = _PREC[e.op]
        right_assoc = e.op == "=>"
        la = format_expr(e.a, prec + (1 if right_assoc else 0))
        rb = format_expr(e.b, prec + (0 if right_assoc else 1))
        s = f"{la} {e.op} {rb}"
        return f"({s})" if parent_prec > prec else s
    raise AssertionError(e)


def _format_value(v) -> str:
    if isinstance(v, bool):
        return "true" if v else "false"
    return str(v)


def format_model(m: Model) -> str:
    lines = [f"model {m.name} {{"]
    inits = dict(m.init_values)
    for n, d in m.state_vars:
        init = f" init {_format_value(inits[n])}" if n in inits else ""
        lines.append(f"  state {n} : {d}{init};")
    for n, d in m.inputs:
        lines.append(f"  input {n} : {d};")
    if m.input_assumption != TRUE:
        lines.append(f"  assume {format_expr(m.input_assumption)};")
    if m.state_invariant != TRUE:
        lines.append(f"  invariant {format_expr(m.state_invariant)};")
    if m.init_pred != TRUE:
        lines.append(f"  init {format_expr(m.init_pred)};")
    if m.transition:
        lines.append("  trans {")
        for n, e in m.transition:
            lines.append(f"    {n}' = {format_expr(e)};")
        lines.append("  }")
    lines.append("}")
    return "\n".join(lines) + "\n"


def format_properties(props) -> str:
    lines = []
    for p in props:
        lines.append(f"property {p.name} {{")
        lines.append(f"  assume {format_expr(p.assumption)};")
        lines.append(f"  assert {format_expr(p.assertion)};")
        lines.append("}")
    return "\n".join(lines) + "\n"
