"""Upset algebras of finite posets, with a small term language.

The algebra of all upsets of a finite poset is a Heyting algebra:
meet and join are intersection and union, and the relative
pseudo-complement of U with respect to V is the complement of the
down-closure of U minus V. Negation is sugar for (t -> 0), not a
primitive.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, Mapping

from .errors import (InvalidId, TooLarge, TooManyAssignments,
                     UnboundVariable)
from .poset import Poset, _is_id, ids_of, mask_of

SIZE_BOUND = 20
ASSIGNMENT_CAP = 200_000


class UpsetAlgebra:
    """Carrier is every upset of the base poset, in a fixed canonical order
    (by popcount, then mask value). Elements are referred to by index.

    Four k x k tables (meet, join, implication and order) are built
    together, once, on the first call of any operation; construction only
    indexes the carrier, so `len`, `mask`, `bot` and `top` cost no k^2
    work. An implication a -> b is read off the difference a & ~b,
    computed once per distinct difference, and a <= b holds when that
    difference is empty. `meet`, `join`, `imp` and `leq` are unchecked
    table reads, since they sit on the k^3 residuation sweep; `mask`
    checks its index.

    Subalgebra closure works on index sets packed into one int (bit i is
    carrier index i) and reads per-element operation rows, derived from
    the finished tables: ``_rows()[x][y]`` has the bits of meet(x, y),
    join(x, y), imp(x, y) and imp(y, x), so closing a set under all four
    operations for the pair (x, y) is one OR. `_close` takes a `stop` mask
    and gives up as soon as the closure would reach it; `subalgebras` uses
    that for the canonicity test of its Close-by-One search."""

    __slots__ = ("base", "carrier", "index", "_meet", "_join", "_imp",
                 "_le", "_ops")

    def __init__(self, base: Poset, carrier: tuple[int, ...]):
        self.base = base
        self.carrier = carrier
        self.index = {m: i for i, m in enumerate(carrier)}
        self._meet = None
        self._join = None
        self._imp = None
        self._le = None
        self._ops = None

    @property
    def bot(self) -> int:
        return 0

    @property
    def top(self) -> int:
        return len(self.carrier) - 1

    def __len__(self):
        return len(self.carrier)

    def mask(self, i: int) -> int:
        if type(i) is not int or not 0 <= i < len(self.carrier):
            raise InvalidId(f"carrier index {i!r}")
        return self.carrier[i]

    def _tables(self):
        if self._meet is None:
            carrier = self.carrier
            idx = self.index
            full = self.base.full_mask()
            down_set = self.base.down_set
            self._meet = [[idx[a & b] for b in carrier] for a in carrier]
            self._join = [[idx[a | b] for b in carrier] for a in carrier]
            # a -> b and a <= b depend on a & ~b only, and those masks
            # repeat a lot
            diff = [[a & ~b for b in carrier] for a in carrier]
            imp_of = {d: idx[full & ~down_set(d)] for d in set().union(*diff)}
            self._imp = [[imp_of[d] for d in row] for row in diff]
            self._le = [[not d for d in row] for row in diff]
        return self._meet, self._join, self._imp, self._le

    def _rows(self) -> list[list[int]]:
        if self._ops is None:
            meet, join, imp, _ = self._tables()
            # zip(*imp) yields the columns of imp: row x of it is imp(., x)
            self._ops = [[(1 << m) | (1 << j) | (1 << i) | (1 << t)
                          for m, j, i, t in zip(mr, jr, ir, tr)]
                         for mr, jr, ir, tr in zip(meet, join, imp, zip(*imp))]
        return self._ops

    def meet(self, i: int, j: int) -> int:
        return (self._meet or self._tables()[0])[i][j]

    def join(self, i: int, j: int) -> int:
        return (self._join or self._tables()[1])[i][j]

    def imp(self, i: int, j: int) -> int:
        return (self._imp or self._tables()[2])[i][j]

    def leq(self, i: int, j: int) -> bool:
        return (self._le or self._tables()[3])[i][j]


def upset_algebra(p: Poset) -> UpsetAlgebra:
    """Dual algebra of p. Raises TooLarge above SIZE_BOUND elements."""
    if p.n > SIZE_BOUND:
        raise TooLarge(f"poset has {p.n} elements, bound is {SIZE_BOUND}")
    carrier = tuple(sorted(p.upsets(), key=lambda m: (bin(m).count("1"), m)))
    return UpsetAlgebra(p, carrier)


def is_si(a: UpsetAlgebra) -> bool:
    """Subdirect irreducibility, read off the base poset: a least element
    must exist (the trivial algebra, with empty base, is not SI)."""
    return a.base.has_root()


# ----- terms ---------------------------------------------------------------


@dataclass(frozen=True)
class Term:
    op: str                      # 'var', 'bot', 'top', 'and', 'or', 'imp'
    var: int | None = None
    left: "Term | None" = None
    right: "Term | None" = None

    def variables(self) -> set[int]:
        if self.op == "var":
            return {self.var}
        out = set()
        if self.left is not None:
            out |= self.left.variables()
        if self.right is not None:
            out |= self.right.variables()
        return out

    def __str__(self):
        if self.op == "var":
            return f"x{self.var}"
        if self.op == "bot":
            return "0"
        if self.op == "top":
            return "1"
        sym = {"and": "&", "or": "|", "imp": "->"}[self.op]
        return f"({self.left} {sym} {self.right})"


def var(i: int) -> Term:
    return Term("var", var=i)


BOT = Term("bot")
TOP = Term("top")


def t_and(l: Term, r: Term) -> Term:
    return Term("and", left=l, right=r)


def t_or(l: Term, r: Term) -> Term:
    return Term("or", left=l, right=r)


def t_imp(l: Term, r: Term) -> Term:
    return Term("imp", left=l, right=r)


def t_not(t: Term) -> Term:
    return Term("imp", left=t, right=BOT)


class _Parser:
    """Recursive descent for  ~  &  |  ->  over 0, 1, x<k>.

    Precedence: ~ binds tightest, then &, then |, then -> (right
    associative).
    """

    def __init__(self, text: str):
        self.toks = self._lex(text)
        self.pos = 0

    @staticmethod
    def _lex(text):
        toks = []
        i = 0
        while i < len(text):
            c = text[i]
            if c.isspace():
                i += 1
            elif c in "()&|~01":
                toks.append(c)
                i += 1
            elif text.startswith("->", i):
                toks.append("->")
                i += 2
            elif c == "x":
                j = i + 1
                while j < len(text) and text[j].isdigit():
                    j += 1
                if j == i + 1:
                    raise ValueError(f"bad variable at {i!r} in {text!r}")
                toks.append(text[i:j])
                i = j
            else:
                raise ValueError(f"unexpected character {c!r} in {text!r}")
        return toks

    def peek(self):
        return self.toks[self.pos] if self.pos < len(self.toks) else None

    def take(self, tok=None):
        got = self.peek()
        if got is None or (tok is not None and got != tok):
            raise ValueError(f"expected {tok!r}, got {got!r}")
        self.pos += 1
        return got

    def parse(self) -> Term:
        t = self.imp()
        if self.peek() is not None:
            raise ValueError(f"trailing input at token {self.peek()!r}")
        return t

    def imp(self) -> Term:
        l = self.disj()
        if self.peek() == "->":
            self.take()
            return t_imp(l, self.imp())
        return l

    def disj(self) -> Term:
        t = self.conj()
        while self.peek() == "|":
            self.take()
            t = t_or(t, self.conj())
        return t

    def conj(self) -> Term:
        t = self.atom()
        while self.peek() == "&":
            self.take()
            t = t_and(t, self.atom())
        return t

    def atom(self) -> Term:
        tok = self.peek()
        if tok == "~":
            self.take()
            return t_not(self.atom())
        if tok == "(":
            self.take()
            t = self.imp()
            self.take(")")
            return t
        if tok == "0":
            self.take()
            return BOT
        if tok == "1":
            self.take()
            return TOP
        if tok is not None and tok.startswith("x"):
            self.take()
            return var(int(tok[1:]))
        raise ValueError(f"unexpected token {tok!r}")


def parse_term(text: str) -> Term:
    return _Parser(text).parse()


def parse_equation(text: str) -> tuple[Term, Term]:
    if text.count("=") != 1:
        raise ValueError("equation needs exactly one '='")
    lhs, rhs = text.split("=")
    return parse_term(lhs), parse_term(rhs)


def evaluate(a: UpsetAlgebra, t: Term, assignment: Mapping[int, int]) -> int:
    """Value of t under an index-valued assignment, as a carrier index."""
    if t.op == "var":
        if t.var not in assignment:
            raise UnboundVariable(f"x{t.var}")
        v = assignment[t.var]
        if not 0 <= v < len(a.carrier):
            raise InvalidId(f"carrier index {v}")
        return v
    if t.op == "bot":
        return a.bot
    if t.op == "top":
        return a.top
    l = evaluate(a, t.left, assignment)
    r = evaluate(a, t.right, assignment)
    if t.op == "and":
        return a.meet(l, r)
    if t.op == "or":
        return a.join(l, r)
    return a.imp(l, r)


def validates(a: UpsetAlgebra, lhs: Term, rhs: Term,
              cap: int = ASSIGNMENT_CAP) -> tuple[bool, dict[int, int] | None]:
    """Exhaustively check lhs = rhs over all assignments.

    Returns (True, None) or (False, falsifying assignment). Never samples;
    raises TooManyAssignments when the full sweep would exceed cap.
    """
    vs = sorted(lhs.variables() | rhs.variables())
    total = len(a.carrier) ** len(vs)
    if total > cap:
        raise TooManyAssignments(f"{total} assignments exceed cap {cap}")
    for combo in itertools.product(range(len(a.carrier)), repeat=len(vs)):
        asg = dict(zip(vs, combo))
        if evaluate(a, lhs, asg) != evaluate(a, rhs, asg):
            return False, asg
    return True, None


# ----- subalgebras ----------------------------------------------------------


def generated_subalgebra(a: UpsetAlgebra, gens: Iterable[int]) -> frozenset[int]:
    """Indices of the subalgebra generated by the given carrier indices.
    Always contains bot and top. InvalidId for an index that is not a
    plain int in range (bools and floats included)."""
    seed = 0
    for g in gens:
        if not (_is_id(g) and 0 <= g < len(a.carrier)):
            raise InvalidId(f"carrier index {g!r}")
        seed |= 1 << g
    return frozenset(ids_of(_close(a, _bounds_closure(a), seed)))


def _bounds_closure(a: UpsetAlgebra) -> int:
    """The 0-generated subalgebra, as an index mask."""
    return _close(a, 0, (1 << a.bot) | (1 << a.top))


def _close(a: UpsetAlgebra, closed: int, new: int, stop: int = 0,
           elems: list[int] | None = None) -> int:
    """Smallest subalgebra, as an index mask, holding `closed | new`, where
    `closed` is already closed. Each added element x is combined once with
    every member present when it is added (itself included); later members
    pair with x when they are added in turn, and a row covers both orders.

    Returns -1 as soon as an element of `stop` would be added, so a caller
    that only wants closures avoiding `stop` gives up early. `elems`, when
    given, lists the members of `closed`; it is copied, not changed."""
    rows = a._rows()
    full = (1 << len(rows)) - 1
    members = closed
    elems = ids_of(closed) if elems is None else elems[:]
    pending = new & ~closed
    while pending:
        if pending & stop:
            return -1
        if members | pending == full:
            return full
        low = pending & -pending
        pending ^= low
        members |= low
        x = low.bit_length() - 1
        elems.append(x)
        row = rows[x]
        acc = 0
        for y in elems:
            acc |= row[y]
        pending |= acc & ~members
    return members


def min_generators(a: UpsetAlgebra, cap: int = 3) -> int | None:
    """Least m <= cap such that some m-subset generates the whole algebra,
    or None when no subset of size <= cap works."""
    full = (1 << len(a.carrier)) - 1
    first = _bounds_closure(a)
    for m in range(cap + 1):
        for combo in itertools.combinations(range(len(a.carrier)), m):
            if _close(a, first, mask_of(combo)) == full:
                return m
    return None


def subalgebras(a: UpsetAlgebra) -> list[frozenset[int]]:
    """Every subalgebra, sorted by size and then by member list, found by
    Close-by-One (Kuznetsov) from the 0-generated one.

    A stack entry (s, start) is a subalgebra s reached by adding index
    start - 1. Each y >= start outside s is tried: s + y is closed and the
    result t kept only when it adds no index below y, which `_close` checks
    on the fly through its `stop` mask. A kept t is pushed as (t, y + 1).
    Every subalgebra t has exactly one such parent (add the least index of
    t missing from the current set, from the bounds up), so each is
    visited once and no set of found subalgebras is needed."""
    k = len(a.carrier)
    subs = []
    stack = [(_bounds_closure(a), 0)]
    while stack:
        s, start = stack.pop()
        elems = ids_of(s)
        subs.append(elems)
        for y in range(start, k):
            if not (s >> y) & 1:
                t = _close(a, s, 1 << y, ((1 << y) - 1) & ~s, elems)
                if t != -1:
                    stack.append((t, y + 1))
    subs.sort(key=lambda ids: (len(ids), ids))
    return [frozenset(ids) for ids in subs]
