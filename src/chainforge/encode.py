"""Bit-blasting of finite-domain expressions to CNF.

Bounded integers are encoded in ceil(log2(size)) bits as an offset from
their lower bound, with range-blocking clauses on declared variables; an
enum is the same offset vector over its constants' indices, from 0.
Arithmetic is exact (intermediate widths grow as needed) and saturation
is applied by `clamp` where results flow into a declared variable.

The gate builder keeps a structural cache, folds constants, and writes
Tseitin clauses straight into the backing solver; it can record the
gates it makes as a tape, which the unrolling replays for later frames.

A `? :` chain of three or more arms that compares one int or enum
variable for `==` with distinct constants (`s == 0 ? a : s == 1 ? b :
...`, the mode and state dispatch of generated controllers) is encoded
as one case split rather than as nested per-bit if-then-elses: each arm
keeps its equality literal, the default arm's condition is one n-ary
AND of their negations, and each output bit is one gate constrained to
the value of whichever arm holds.  The arms are mutually exclusive and
exhaustive, so the gate is a function of the variables like the nested
form, with fewer variables and clauses.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Union

from .model import (BinOp, BoolDomain, Const, Domain, EnumDomain, Expr,
                    IntRange, Ite, Not, Ref)


def width_for(n: int) -> int:
    """Bits needed to represent offsets 0..n."""
    return n.bit_length()


@dataclass(frozen=True)
class BV:
    """Unsigned offset vector: value = lo + sum(bits_i * 2^i), with the
    bit sum semantically bounded by max_off."""
    bits: tuple[int, ...]
    lo: int
    max_off: int

    @property
    def hi(self) -> int:
        return self.lo + self.max_off


class Gates:
    """Tseitin gate builder over a solver exposing new_var/add_clause.

    `land`, `land_n`, `lite`, `liff` and `lcase` fold constants and
    identities, then call one of two makers: `_and_n` for a conjunction,
    `_case` for a gate of arms "q implies out == v" (an if-then-else is
    the arms `(c, t, -c, e)`, an iff `(a, b, -a, -b)`).  A maker
    normalises its own cache key and, on a miss, allocates the gate and
    writes its clauses in key order.  A maker always takes two or more
    literals, so a replayed tape step reads a tuple.  While `tape`
    is a list, every maker call and every `assert_iff` appends `(maker,
    args, output)` to it (output None for `assert_iff`), so the same
    circuit can be rebuilt over other literals by calling the makers
    again in order."""

    def __init__(self, solver):
        self.solver = solver
        self.T = solver.new_var()
        solver.add_clause([self.T])
        self._cache: dict = {}
        self.tape: Optional[list] = None

    def const(self, b: bool) -> int:
        return self.T if b else -self.T

    def const_bits(self, c: int, w: int) -> tuple[int, ...]:
        """The w low bits of c, as constants."""
        return tuple(self.const(bool((c >> i) & 1)) for i in range(w))

    def is_true(self, lit: int) -> bool:
        return lit == self.T

    def is_false(self, lit: int) -> bool:
        return lit == -self.T

    def land(self, a: int, b: int) -> int:
        return self.land_n((a, b))

    def lor(self, a: int, b: int) -> int:
        return -self.land(-a, -b)

    def land_n(self, lits) -> int:
        """Conjunction of any number of literals."""
        out: list[int] = []
        for a in lits:
            if self.is_false(a) or -a in out:
                return -self.T
            if not self.is_true(a) and a not in out:
                out.append(a)
        if not out:
            return self.T
        if len(out) == 1:
            return out[0]
        return self._and_n(*out)

    def _and_n(self, *lits: int) -> int:
        key = ("&*", *sorted(lits))
        g = self._cache.get(key)
        if g is None:
            g = self.solver.new_var()
            for a in lits:
                self.solver.add_clause([-g, a])
            self.solver.add_clause([g, *(-a for a in lits)])
            self._cache[key] = g
        if self.tape is not None:
            self.tape.append((self._and_n, lits, g))
        return g

    def lite(self, c: int, t: int, e: int) -> int:
        if self.is_true(c):
            return t
        if self.is_false(c):
            return e
        if t == e:
            return t
        if self.is_true(t):
            return self.lor(c, e)
        if self.is_false(t):
            return self.land(-c, e)
        if self.is_true(e):
            return self.lor(-c, t)
        if self.is_false(e):
            return self.land(c, t)
        if t == -e:
            return self.liff(c, t)
        return self._case(c, t, -c, e)

    def liff(self, a: int, b: int) -> int:
        if self.is_true(a):
            return b
        if self.is_false(a):
            return -b
        if self.is_true(b):
            return a
        if self.is_false(b):
            return -a
        if a == b:
            return self.T
        if a == -b:
            return -self.T
        return self._case(a, b, -a, -b)

    def lxor(self, a: int, b: int) -> int:
        return -self.liff(a, b)

    def lcase(self, arms) -> int:
        """The value of the arm that holds, for `(condition, value)` arms
        of which exactly one condition holds."""
        live = [(q, v) for q, v in arms if not self.is_false(q)]
        for q, v in live:
            if self.is_true(q):
                return v
        if all(v == live[0][1] for _, v in live):
            return live[0][1]
        return self._case(*(lit for arm in live for lit in arm))

    def _case(self, *arms: int) -> int:
        """`arms` is q1, v1, q2, v2, ...: per arm, q implies out == v.
        The clauses are `[-g, -q, v]` for every arm, then `[g, -q, -v]`
        for every arm; a constant v is left to the solver, which drops a
        false literal and skips a satisfied clause.  The iff shape `(x,
        y, -x, -y)` is keyed with x the literal of the smaller variable,
        made positive, so `liff(a, b)`, `liff(b, a)` and `liff(-a, -b)`
        share one gate, on a replayed frame as on a fresh one."""
        if len(arms) == 4 and arms[2] == -arms[0] and arms[3] == -arms[1]:
            x, y = arms[:2] if abs(arms[0]) <= abs(arms[1]) else arms[1::-1]
            if x < 0:
                x, y = -x, -y
            key = ("?", x, y, -x, -y)
        else:
            key = ("?", *arms)
        g = self._cache.get(key)
        if g is None:
            g = self.solver.new_var()
            pairs = tuple(zip(key[1::2], key[2::2]))
            for q, v in pairs:
                self.solver.add_clause([-g, -q, v])
            for q, v in pairs:
                self.solver.add_clause([g, -q, -v])
            self._cache[key] = g
        if self.tape is not None:
            self.tape.append((self._case, arms, g))
        return g

    def assert_iff(self, a: int, b: int) -> None:
        if self.tape is not None:
            self.tape.append((self.assert_iff, (a, b), None))
        self.solver.add_clause([-a, b])
        self.solver.add_clause([a, -b])

    # -- bit-vector circuits -------------------------------------------------

    def add_bits(self, a: tuple[int, ...], b: tuple[int, ...], max_sum: int) -> tuple[int, ...]:
        """Ripple-carry sum of two unsigned bit vectors, sized for max_sum."""
        w = width_for(max_sum)
        out = []
        carry = -self.T
        for i in range(w):
            x = a[i] if i < len(a) else -self.T
            y = b[i] if i < len(b) else -self.T
            s = self.lxor(self.lxor(x, y), carry)
            carry = self.lor(self.land(x, y), self.land(carry, self.lxor(x, y)))
            out.append(s)
        return tuple(out)

    def rsub_const_bits(self, c: int, b: tuple[int, ...]) -> tuple[int, ...]:
        """c - b for b semantically <= c (garbage otherwise)."""
        assert c >= 0
        w = max(width_for(c), len(b))
        out = []
        borrow = -self.T
        for i in range(w):
            ci = (c >> i) & 1
            bi = b[i] if i < len(b) else -self.T
            if ci:
                out.append(self.liff(bi, borrow))
                borrow = self.land(bi, borrow)
            else:
                out.append(self.lxor(bi, borrow))
                borrow = self.lor(bi, borrow)
        return tuple(out[:width_for(c)])

    def ult_bits(self, a: tuple[int, ...], b: tuple[int, ...]) -> int:
        w = max(len(a), len(b))
        acc = -self.T
        for i in range(w):
            x = a[i] if i < len(a) else -self.T
            y = b[i] if i < len(b) else -self.T
            acc = self.lite(self.liff(x, y), acc, self.land(-x, y))
        return acc

    def ueq_bits(self, a: tuple[int, ...], b: tuple[int, ...]) -> int:
        w = max(len(a), len(b))
        acc = self.T
        for i in range(w):
            x = a[i] if i < len(a) else -self.T
            y = b[i] if i < len(b) else -self.T
            acc = self.land(acc, self.liff(x, y))
        return acc

    # -- integer (offset) operations ------------------------------------------

    def bv_const(self, v: int) -> BV:
        return BV((), v, 0)

    def bv_add(self, x: BV, y: BV) -> BV:
        m = x.max_off + y.max_off
        return BV(self.add_bits(x.bits, y.bits, m), x.lo + y.lo, m)

    def bv_sub(self, x: BV, y: BV) -> BV:
        m = x.max_off + y.max_off
        neg = self.rsub_const_bits(y.max_off, y.bits)
        return BV(self.add_bits(x.bits, neg, m), x.lo - y.lo - y.max_off, m)

    def _aligned(self, x: BV, y: BV) -> tuple[tuple[int, ...], tuple[int, ...]]:
        lo = min(x.lo, y.lo)
        return self.rebased(x, lo, x.hi - lo), self.rebased(y, lo, y.hi - lo)

    def int_lt(self, x: BV, y: BV) -> int:
        if x.hi < y.lo:
            return self.T
        if y.hi <= x.lo:
            return -self.T
        a, b = self._aligned(x, y)
        return self.ult_bits(a, b)

    def int_le(self, x: BV, y: BV) -> int:
        return -self.int_lt(y, x)

    def int_eq(self, x: BV, y: BV) -> int:
        if x.hi < y.lo or y.hi < x.lo:
            return -self.T
        a, b = self._aligned(x, y)
        return self.ueq_bits(a, b)

    def rebased(self, x: BV, lo: int, m: int) -> tuple[int, ...]:
        """x's bits as an offset from lo, for a result of max offset m.  A
        constant folds to its bits here; otherwise the bits are shifted up
        by the adder, or down by a borrow chain, which is right only
        where x >= lo (callers guard the rest)."""
        c = x.lo - lo
        if not x.bits:
            return self.const_bits(c, width_for(m))
        if c < 0:
            out = []
            borrow = -self.T
            for i, a in enumerate(x.bits):
                if (-c >> i) & 1:
                    out.append(self.liff(a, borrow))
                    borrow = self.lor(-a, borrow)
                else:
                    out.append(self.lxor(a, borrow))
                    borrow = self.land(-a, borrow)
            return tuple(out)
        if c or len(x.bits) < width_for(m):
            return self.add_bits(x.bits, self.const_bits(c, width_for(c)), m)
        return x.bits

    def bv_ite(self, c: int, x: BV, y: BV) -> BV:
        lo = min(x.lo, y.lo)
        m = max(x.hi, y.hi) - lo
        xb, yb = self.rebased(x, lo, m), self.rebased(y, lo, m)
        bits = tuple(self.lite(c,
                               xb[i] if i < len(xb) else -self.T,
                               yb[i] if i < len(yb) else -self.T)
                     for i in range(width_for(m)))
        return BV(bits, lo, m)

    def bv_case(self, arms: list[tuple[int, BV]]) -> BV:
        """`lcase` over integer or enum values, bit by bit."""
        lo = min(x.lo for _, x in arms)
        m = max(x.hi for _, x in arms) - lo
        rebased = [(q, self.rebased(x, lo, m)) for q, x in arms]
        bits = tuple(self.lcase([(q, xb[i] if i < len(xb) else -self.T)
                                 for q, xb in rebased])
                     for i in range(width_for(m)))
        return BV(bits, lo, m)

    def clamp(self, x: BV, dom: IntRange) -> BV:
        """Saturate x into dom: values below map to dom.lo, above to
        dom.hi.  Within dom, `below` and `above` fold to false and the
        result is x rebased."""
        m = dom.hi - dom.lo
        below = self.int_lt(x, self.bv_const(dom.lo))
        above = self.int_lt(self.bv_const(dom.hi), x)
        mid = self.rebased(x, dom.lo, x.hi - dom.lo)
        bits = tuple(self.lite(below, -self.T,
                               self.lite(above, h, mid[i] if i < len(mid) else -self.T))
                     for i, h in enumerate(self.const_bits(m, width_for(m))))
        return BV(bits, dom.lo, m)


# ---------------------------------------------------------------------------
# Declared variables and expression encoding
# ---------------------------------------------------------------------------

EncodedVar = Union[int, BV]


def alloc_var(gates: Gates, dom: Domain) -> EncodedVar:
    """Fresh bits for a declared variable, with range blocking."""
    sol = gates.solver
    if isinstance(dom, BoolDomain):
        return sol.new_var()
    size = dom.size
    w = width_for(size - 1)
    bits = tuple(sol.new_var() for _ in range(w))
    for pattern in range(size, 1 << w):
        sol.add_clause([-bits[i] if (pattern >> i) & 1 else bits[i] for i in range(w)])
    return BV(bits, dom.lo if isinstance(dom, IntRange) else 0, size - 1)


def decode_var(enc: EncodedVar, model_bits: list[bool], dom: Domain):
    if isinstance(dom, BoolDomain):
        lit = enc
        return model_bits[abs(lit)] if lit > 0 else not model_bits[abs(lit)]
    bits = enc.bits
    off = 0
    for i, b in enumerate(bits):
        v = model_bits[abs(b)] if b > 0 else not model_bits[abs(b)]
        if v:
            off |= 1 << i
    if isinstance(dom, IntRange):
        return dom.lo + off
    return dom.constants[min(off, dom.size - 1)]


def enum_const(gates: Gates, dom: EnumDomain, name: str) -> BV:
    """An enum constant's index at the full width of its domain."""
    idx = dom.index(name)
    return BV(gates.const_bits(idx, width_for(dom.size - 1)), 0, dom.size - 1)


#: Fewest `==` arms a chain needs to be encoded as a case split; a
#: two-arm split is larger than the nested form, whose constant arms fold.
CASE_ARMS = 3


def case_chain(e: Ite) -> tuple[list[tuple[Expr, Expr]], Expr]:
    """The `(condition, value)` arms that open the if-then-else chain
    `e` and compare one int or enum variable for `==` with distinct
    constants, and the rest of the chain, which starts at the first
    condition that does not."""
    arms: list[tuple[Expr, Expr]] = []
    seen = set()
    while isinstance(e, Ite):
        c = e.cond
        if not (isinstance(c, BinOp) and c.op == "==" and isinstance(c.a, Ref)
                and not isinstance(c.a.domain, BoolDomain) and isinstance(c.b, Const)
                and (not arms or c.a == arms[0][0].a) and c.b.value not in seen):
            break
        seen.add(c.b.value)
        arms.append((c, e.then))
        e = e.other
    return arms, e


def encode_expr(e: Expr, gates: Gates,
                look: Callable[[str, str], EncodedVar]) -> EncodedVar:
    """Encode an expression; `look(space, name)` supplies variable bits.
    Returns a literal for boolean sorts and a BV for integers and
    enums."""
    if isinstance(e, Const):
        if isinstance(e.domain, BoolDomain):
            return gates.const(e.value)
        if isinstance(e.domain, IntRange):
            return gates.bv_const(e.value)
        return enum_const(gates, e.domain, e.value)
    if isinstance(e, Ref):
        return look(e.space, e.name)
    if isinstance(e, Not):
        return -encode_expr(e.a, gates, look)
    if isinstance(e, Ite):
        arms, rest = case_chain(e)
        if len(arms) >= CASE_ARMS:
            return _encode_cases(arms, rest, gates, look)
        c = encode_expr(e.cond, gates, look)
        t = encode_expr(e.then, gates, look)
        o = encode_expr(e.other, gates, look)
        if isinstance(t, BV):
            return gates.bv_ite(c, t, o)
        return gates.lite(c, t, o)
    if isinstance(e, BinOp):
        op = e.op
        a = encode_expr(e.a, gates, look)
        if op in ("&&", "||", "=>"):
            b = encode_expr(e.b, gates, look)
            if op == "&&":
                return gates.land(a, b)
            if op == "||":
                return gates.lor(a, b)
            return gates.lor(-a, b)
        b = encode_expr(e.b, gates, look)
        if op in ("+", "-"):
            return gates.bv_add(a, b) if op == "+" else gates.bv_sub(a, b)
        if op == "<":
            return gates.int_lt(a, b)
        if op == "<=":
            return gates.int_le(a, b)
        # equality family
        eq = gates.int_eq(a, b) if isinstance(a, BV) else gates.liff(a, b)
        return eq if op == "==" else -eq
    raise TypeError(f"cannot encode {e!r}")


def _encode_cases(arms: list[tuple[Expr, Expr]], rest: Expr, gates: Gates,
                  look: Callable[[str, str], EncodedVar]) -> EncodedVar:
    """A `case_chain` as one case split: exactly one of the arms'
    equalities and the default arm's condition, that none of them
    holds, is true."""
    conds, values = [], []
    for cond, then in arms:
        conds.append(encode_expr(cond, gates, look))
        values.append(encode_expr(then, gates, look))
    conds.append(gates.land_n([-q for q in conds]))
    values.append(encode_expr(rest, gates, look))
    cases = list(zip(conds, values))
    return gates.bv_case(cases) if isinstance(values[0], BV) else gates.lcase(cases)


def assert_assignment(gates: Gates, target: EncodedVar, value: EncodedVar,
                      dom: Domain) -> None:
    """Constrain a declared variable's bits to equal an encoded value,
    saturating integers into the declared range."""
    if isinstance(dom, BoolDomain):
        gates.assert_iff(target, value)
        return
    if isinstance(dom, IntRange):
        clamped = gates.clamp(value, dom)
        for i in range(len(target.bits)):
            vb = clamped.bits[i] if i < len(clamped.bits) else -gates.T
            gates.assert_iff(target.bits[i], vb)
        return
    for i in range(len(target.bits)):
        gates.assert_iff(target.bits[i], value.bits[i])
