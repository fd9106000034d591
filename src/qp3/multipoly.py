"""Sparse multivariate polynomials over Q(i).

Polynomials carry a VarSet (fixed variable tuple) and a MonomialOrder.
Terms are kept in a dict keyed by exponent tuples; a sorted term list is
built lazily and cached.  The text grammar is:

    expr   := ['-'] term (('+'|'-') term)*
    term   := factor ('*' factor)*
    factor := atom ['^' nat]
    atom   := rational | 'i' | 'g' | var | '(' expr ')'

where 'i' is the imaginary unit and 'g' is a placeholder that must be
bound to a concrete Gaussian rational before a polynomial is built.

`substitute` is the one ring map: every change of variables, every move
to another VarSet and every exact evaluation at a Q(i) point goes
through it.
"""

from __future__ import annotations

from typing import Dict, Iterable, Mapping, Optional, Sequence, Tuple, Union

from .gaussian import GaussianRational, ONE, ZERO, gr

Monomial = Tuple[int, ...]


class VarSetMismatchError(ValueError):
    pass


class PolyParseError(ValueError):
    def __init__(self, message: str, pos: int):
        super().__init__(f"{message} (at position {pos})")
        self.pos = pos


class UnknownVariableError(PolyParseError):
    pass


class VarSet:
    """Ordered set of variable names; the index order is total and fixed."""

    __slots__ = ("names", "_index")

    def __init__(self, names: Iterable[str]):
        names = tuple(names)
        if len(set(names)) != len(names):
            raise ValueError("variable names must be distinct")
        object.__setattr__(self, "names", names)
        object.__setattr__(self, "_index", {n: k for k, n in enumerate(names)})

    def __setattr__(self, name, value):
        raise AttributeError("VarSet is immutable")

    def __len__(self) -> int:
        return len(self.names)

    def __eq__(self, other) -> bool:
        return isinstance(other, VarSet) and self.names == other.names

    def __hash__(self):
        return hash(self.names)

    def __repr__(self):
        return f"VarSet({list(self.names)})"

    def index(self, name: str) -> int:
        try:
            return self._index[name]
        except KeyError:
            raise KeyError(f"unknown variable {name!r}") from None

    def __contains__(self, name: str) -> bool:
        return name in self._index

    def unit_monomial(self) -> Monomial:
        return (0,) * len(self.names)

    def var_monomial(self, name: str) -> Monomial:
        k = self.index(name)
        return tuple(1 if j == k else 0 for j in range(len(self.names)))

    def extend(self, extra: Iterable[str]) -> "VarSet":
        return VarSet(self.names + tuple(extra))


class MonomialOrder:
    """A multiplicative well-order on monomials: lex, degrevlex, or a
    two-block elimination order (degrevlex inside each block).

    Keys are additive flat tuples, so key(m*n) = key(m) + key(n)
    componentwise; this is what lets term multiplication reuse keys.
    """

    __slots__ = ("kind", "block")

    def __init__(self, kind: str, block: Optional[Tuple[int, ...]] = None):
        if kind not in ("lex", "degrevlex", "elim"):
            raise ValueError(f"unknown order kind {kind!r}")
        self.kind = kind
        self.block = block  # indices of the variables being eliminated

    @staticmethod
    def lex() -> "MonomialOrder":
        return MonomialOrder("lex")

    @staticmethod
    def degrevlex() -> "MonomialOrder":
        return MonomialOrder("degrevlex")

    @staticmethod
    def elimination(varset: VarSet, eliminate: Sequence[str]) -> "MonomialOrder":
        idx = tuple(sorted(varset.index(v) for v in eliminate))
        return MonomialOrder("elim", idx)

    def key(self, m: Monomial):
        if self.kind == "lex":
            return m
        if self.kind == "degrevlex":
            return (sum(m),) + tuple(-e for e in reversed(m))
        first = self.block
        hi = tuple(m[k] for k in first)
        lo = tuple(e for k, e in enumerate(m) if k not in first)
        return (
            (sum(hi),)
            + tuple(-e for e in reversed(hi))
            + (sum(lo),)
            + tuple(-e for e in reversed(lo))
        )

    def __eq__(self, other):
        return (
            isinstance(other, MonomialOrder)
            and self.kind == other.kind
            and self.block == other.block
        )

    def __hash__(self):
        return hash((self.kind, self.block))

    def __repr__(self):
        if self.kind == "elim":
            return f"MonomialOrder('elim', {self.block})"
        return f"MonomialOrder({self.kind!r})"


DEGREVLEX = MonomialOrder.degrevlex()
LEX = MonomialOrder.lex()

Coefficient = Union[GaussianRational, int]


class Polynomial:
    """Immutable sparse polynomial over Q(i) on a fixed VarSet."""

    __slots__ = ("varset", "order", "terms", "_sorted", "_hash")

    def __init__(self, varset: VarSet, terms: Mapping[Monomial, GaussianRational],
                 order: MonomialOrder = DEGREVLEX):
        clean: Dict[Monomial, GaussianRational] = {}
        n = len(varset)
        for m, c in terms.items():
            if len(m) != n:
                raise VarSetMismatchError("monomial length does not match VarSet")
            if not isinstance(c, GaussianRational):
                c = gr(c)
            if not c.is_zero():
                clean[m] = c
        object.__setattr__(self, "varset", varset)
        object.__setattr__(self, "order", order)
        object.__setattr__(self, "terms", clean)
        object.__setattr__(self, "_sorted", None)
        object.__setattr__(self, "_hash", None)

    def __setattr__(self, name, value):
        raise AttributeError("Polynomial is immutable")

    # -- constructors -------------------------------------------------

    @staticmethod
    def zero(varset: VarSet, order: MonomialOrder = DEGREVLEX) -> "Polynomial":
        return Polynomial(varset, {}, order)

    @staticmethod
    def constant(varset: VarSet, c: Coefficient,
                 order: MonomialOrder = DEGREVLEX) -> "Polynomial":
        return Polynomial(varset, {varset.unit_monomial(): gr(c)}, order)

    @staticmethod
    def variable(varset: VarSet, name: str,
                 order: MonomialOrder = DEGREVLEX) -> "Polynomial":
        return Polynomial(varset, {varset.var_monomial(name): ONE}, order)

    # -- basic queries -------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def sorted_terms(self):
        """Terms in descending order of the ambient MonomialOrder."""
        cached = self._sorted
        if cached is None:
            key = self.order.key
            cached = sorted(self.terms.items(), key=lambda t: key(t[0]), reverse=True)
            object.__setattr__(self, "_sorted", cached)
        return cached

    def leading_monomial(self) -> Monomial:
        if not self.terms:
            raise ValueError("zero polynomial has no leading monomial")
        return self.sorted_terms()[0][0]

    def leading_coefficient(self) -> GaussianRational:
        return self.sorted_terms()[0][1]

    def constant_value(self) -> GaussianRational:
        """The value of a constant polynomial."""
        if self.is_zero():
            return ZERO
        if len(self.terms) == 1 and sum(self.leading_monomial()) == 0:
            return self.leading_coefficient()
        raise ValueError("polynomial is not constant")

    def degree(self) -> int:
        """Total degree; -1 for the zero polynomial."""
        if not self.terms:
            return -1
        return max(sum(m) for m in self.terms)

    def degree_in(self, name: str) -> int:
        if not self.terms:
            return -1
        k = self.varset.index(name)
        return max(m[k] for m in self.terms)

    def is_homogeneous(self) -> bool:
        degs = {sum(m) for m in self.terms}
        return len(degs) <= 1

    def bidegree(self, left_vars: Sequence[str]):
        """(d1, d2) degrees w.r.t. a variable split, or None if mixed."""
        idx = {self.varset.index(v) for v in left_vars}
        pairs = {
            (sum(e for k, e in enumerate(m) if k in idx),
             sum(e for k, e in enumerate(m) if k not in idx))
            for m in self.terms
        }
        if len(pairs) == 1:
            return next(iter(pairs))
        return None

    def with_order(self, order: MonomialOrder) -> "Polynomial":
        if order == self.order:
            return self
        return Polynomial(self.varset, self.terms, order)

    # -- arithmetic ----------------------------------------------------

    def _check(self, other: "Polynomial"):
        if self.varset != other.varset:
            raise VarSetMismatchError("polynomials live on different VarSets")

    def __add__(self, other):
        if not isinstance(other, Polynomial):
            other = Polynomial.constant(self.varset, other, self.order)
        self._check(other)
        terms = dict(self.terms)
        for m, c in other.terms.items():
            s = terms.get(m)
            if s is None:
                terms[m] = c
            else:
                s = s + c
                if s.is_zero():
                    del terms[m]
                else:
                    terms[m] = s
        return Polynomial(self.varset, terms, self.order)

    __radd__ = __add__

    def __neg__(self):
        return Polynomial(self.varset, {m: -c for m, c in self.terms.items()}, self.order)

    def __sub__(self, other):
        if not isinstance(other, Polynomial):
            other = Polynomial.constant(self.varset, other, self.order)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (GaussianRational, int)):
            c = gr(other)
            if c.is_zero():
                return Polynomial.zero(self.varset, self.order)
            return Polynomial(self.varset, {m: v * c for m, v in self.terms.items()}, self.order)
        self._check(other)
        out: Dict[Monomial, GaussianRational] = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                m = tuple(a + b for a, b in zip(m1, m2))
                c = c1 * c2
                s = out.get(m)
                if s is None:
                    out[m] = c
                else:
                    s = s + c
                    if s.is_zero():
                        del out[m]
                    else:
                        out[m] = s
        return Polynomial(self.varset, out, self.order)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError("negative power of a polynomial")
        result = Polynomial.constant(self.varset, 1, self.order)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base if n > 1 else base
            n >>= 1
        return result

    def monic(self) -> "Polynomial":
        if self.is_zero():
            return self
        inv = self.leading_coefficient().inverse()
        return self * inv

    def __eq__(self, other):
        if isinstance(other, (int, GaussianRational)):
            c = gr(other)
            if c.is_zero():
                return self.is_zero()
            other = Polynomial.constant(self.varset, c, self.order)
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self.varset == other.varset and self.terms == other.terms

    def __hash__(self):
        h = self._hash
        if h is None:
            h = hash((self.varset, frozenset(self.terms.items())))
            object.__setattr__(self, "_hash", h)
        return h

    def __str__(self):
        return print_poly(self)

    def __repr__(self):
        return f"Polynomial({print_poly(self)!r})"

    # -- calculus / maps -----------------------------------------------

    def derivative(self, name: str) -> "Polynomial":
        k = self.varset.index(name)
        out: Dict[Monomial, GaussianRational] = {}
        for m, c in self.terms.items():
            e = m[k]
            if e:
                dm = m[:k] + (e - 1,) + m[k + 1:]
                out[dm] = out.get(dm, ZERO) + c * e
        return Polynomial(self.varset, out, self.order)

    def evaluate(self, values: Mapping[str, complex]) -> complex:
        """Numeric evaluation with complex values for every variable."""
        vs = [values[n] for n in self.varset.names]
        total = 0j
        for m, c in self.terms.items():
            t = c.to_complex()
            for v, e in zip(vs, m):
                if e:
                    t *= v ** e
            total += t
        return total


def substitute(f: Polynomial,
               assignment: Mapping[str, Union[Polynomial, GaussianRational, int]],
               target: Optional[VarSet] = None,
               order: Optional[MonomialOrder] = None) -> Polynomial:
    """The ring map sending each variable of f to its image on `target`.

    An assigned variable goes to its value, a polynomial on `target` or a
    scalar; every other variable must exist (by name) in `target` and
    goes to itself.  `target` defaults to f's VarSet and `order` to f's
    order.

    When every image is a single term (c times a monomial, or zero) each
    term of f maps to one term; otherwise the images are expanded.
    """
    target = f.varset if target is None else target
    order = f.order if order is None else order
    # per variable of f: a Polynomial on target, a scalar, or the name of
    # the target variable it stays
    images: list = []
    for name in f.varset.names:
        if name in assignment:
            v = assignment[name]
            if not isinstance(v, Polynomial):
                v = gr(v)
            elif v.varset != target:
                raise VarSetMismatchError("assigned value on wrong VarSet")
        elif name in target:
            v = name
        else:
            raise VarSetMismatchError(
                f"variable {name!r} neither assigned nor present in target")
        images.append(v)

    out: Dict[Monomial, GaussianRational] = {}
    if not any(isinstance(v, Polynomial) and len(v.terms) > 1 for v in images):
        # point evaluations, renamings, lifts and signed permutations: the
        # bulk of the calls, so no Polynomial arithmetic here
        # per variable: (support of the image monomial, coefficient or None
        # for 1), or None when the image is zero
        single: list = []
        for v in images:
            if isinstance(v, str):
                single.append(([(target.index(v), 1)], None))
            elif isinstance(v, GaussianRational):
                single.append(None if v.is_zero() else ([], None if v == ONE else v))
            elif v.is_zero():
                single.append(None)
            else:
                (m, c), = v.terms.items()
                single.append(([(j, a) for j, a in enumerate(m) if a],
                               None if c == ONE else c))
        coeff_pows: Dict[Tuple[int, int], GaussianRational] = {}
        n = len(target)
        for m, c in f.terms.items():
            mono = [0] * n
            for k, e in enumerate(m):
                if not e:
                    continue
                if single[k] is None:
                    break
                support, ck = single[k]
                if ck is not None:
                    p = coeff_pows.get((k, e))
                    if p is None:
                        p = coeff_pows[(k, e)] = ck ** e
                    c = c * p
                for j, a in support:
                    mono[j] += a * e
            else:
                key = tuple(mono)
                s = out.get(key)
                out[key] = c if s is None else s + c
        return Polynomial(target, out, order)

    polys = [v if isinstance(v, Polynomial)
             else Polynomial.variable(target, v, order) if isinstance(v, str)
             else Polynomial.constant(target, v, order) for v in images]
    unit = target.unit_monomial()
    pows: Dict[Tuple[int, int], Polynomial] = {}
    for m, c in f.terms.items():
        term = None
        for k, e in enumerate(m):
            if e:
                p = pows.get((k, e))
                if p is None:
                    p = pows[(k, e)] = polys[k] ** e
                term = p if term is None else term * p
        items = term.terms.items() if term is not None else ((unit, ONE),)
        for mm, cc in items:
            s = out.get(mm)
            out[mm] = c * cc if s is None else s + c * cc
    return Polynomial(target, out, order)


# ---------------------------------------------------------------------------
# parser / printer
# ---------------------------------------------------------------------------


class _Lexer:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0
        self.tokens = []
        self._scan()
        self.k = 0

    def _scan(self):
        text = self.text
        i, n = 0, len(text)
        while i < n:
            ch = text[i]
            if ch.isspace():
                i += 1
                continue
            if ch in "+-*^()/":
                self.tokens.append((ch, ch, i))
                i += 1
                continue
            if ch.isdigit():
                j = i
                while j < n and text[j].isdigit():
                    j += 1
                self.tokens.append(("nat", text[i:j], i))
                i = j
                continue
            if ch.isalpha() or ch == "_":
                j = i
                while j < n and (text[j].isalnum() or text[j] == "_"):
                    j += 1
                self.tokens.append(("name", text[i:j], i))
                i = j
                continue
            raise PolyParseError(f"unexpected character {ch!r}", i)
        self.tokens.append(("end", "", n))

    def peek(self):
        return self.tokens[self.k]

    def next(self):
        tok = self.tokens[self.k]
        if tok[0] != "end":
            self.k += 1
        return tok


class _Parser:
    def __init__(self, text: str, varset: VarSet,
                 gamma: Optional[GaussianRational], order: MonomialOrder):
        self.lex = _Lexer(text)
        self.varset = varset
        self.gamma = gamma
        self.order = order

    def parse(self) -> Polynomial:
        p = self.expr()
        tok = self.lex.peek()
        if tok[0] != "end":
            raise PolyParseError(f"unexpected token {tok[1]!r}", tok[2])
        return p

    def expr(self) -> Polynomial:
        negate = False
        if self.lex.peek()[0] == "-":
            self.lex.next()
            negate = True
        p = self.term()
        if negate:
            p = -p
        while True:
            tok = self.lex.peek()
            if tok[0] == "+":
                self.lex.next()
                p = p + self.term()
            elif tok[0] == "-":
                self.lex.next()
                p = p - self.term()
            else:
                return p

    def term(self) -> Polynomial:
        p = self.factor()
        while self.lex.peek()[0] == "*":
            self.lex.next()
            p = p * self.factor()
        return p

    def factor(self) -> Polynomial:
        p = self.atom()
        if self.lex.peek()[0] == "^":
            self.lex.next()
            tok = self.lex.next()
            if tok[0] != "nat":
                raise PolyParseError("exponent must be a natural number", tok[2])
            p = p ** int(tok[1])
        return p

    def atom(self) -> Polynomial:
        tok = self.lex.next()
        kind, value, pos = tok
        if kind == "(":
            p = self.expr()
            closing = self.lex.next()
            if closing[0] != ")":
                raise PolyParseError("expected ')'", closing[2])
            return p
        if kind == "nat":
            num = int(value)
            if self.lex.peek()[0] == "/":
                self.lex.next()
                den_tok = self.lex.next()
                if den_tok[0] != "nat":
                    raise PolyParseError("expected denominator", den_tok[2])
                from fractions import Fraction

                c = GaussianRational(Fraction(num, int(den_tok[1])))
            else:
                c = GaussianRational(num)
            return Polynomial.constant(self.varset, c, self.order)
        if kind == "name":
            if value == "i":
                return Polynomial.constant(self.varset, gr(0, 1), self.order)
            if value in self.varset:
                return Polynomial.variable(self.varset, value, self.order)
            if value == "g":
                if self.gamma is None:
                    raise PolyParseError("placeholder 'g' used but no gamma bound", pos)
                return Polynomial.constant(self.varset, self.gamma, self.order)
            raise UnknownVariableError(f"unknown variable {value!r}", pos)
        raise PolyParseError(f"unexpected token {value!r}", pos)


def parse_poly(text: str, varset: VarSet,
               gamma: Optional[GaussianRational] = None,
               order: MonomialOrder = DEGREVLEX) -> Polynomial:
    """Parse a polynomial; 'g' is replaced by the bound gamma value."""
    return _Parser(text, varset, gamma, order).parse()


def height_bound(text: str) -> int:
    """An upper bound on the bit length of the numerators and denominator
    of the constant that `text` denotes, read from its tokens alone.

    A literal costs its bit length and every other token one bit.
    A sum or product needs at most one bit more than its two operands,
    and x^n at most n times what x and its '^' need, so the sum of those
    costs times the product of the exponents is a bound.  Nothing is
    evaluated: a text such as 2^1000000000 is bounded at once.
    """
    tokens = _Lexer(text).tokens
    cost, scale = 0, 1
    for k, (kind, value, _) in enumerate(tokens):
        if kind == "nat" and k and tokens[k - 1][0] == "^":
            scale *= max(1, int(value))
        elif kind == "nat":
            cost += int(value).bit_length()
        elif kind != "end":
            cost += 1
    return cost * scale


def _coeff_str(c: GaussianRational) -> Tuple[bool, str]:
    """(negated, body) split used when joining terms with + and -."""
    if c.b == 0 or c.a == 0:
        neg = (c.a < 0) or (c.a == 0 and c.b < 0)
        body = str(-c if neg else c)
        return neg, body
    return False, "(" + str(c) + ")"


def _monomial_str(varset: VarSet, m: Monomial) -> str:
    parts = []
    for name, e in zip(varset.names, m):
        if e == 1:
            parts.append(name)
        elif e > 1:
            parts.append(f"{name}^{e}")
    return "*".join(parts)


def print_poly(f: Polynomial) -> str:
    """Deterministic text form: terms descending in the ambient order."""
    if f.is_zero():
        return "0"
    pieces = []
    for k, (m, c) in enumerate(f.sorted_terms()):
        neg, body = _coeff_str(c)
        mono = _monomial_str(f.varset, m)
        if mono:
            text = mono if body == "1" else body + "*" + mono
        else:
            text = body
        if k == 0:
            pieces.append("-" + text if neg else text)
        else:
            pieces.append((" - " if neg else " + ") + text)
    return "".join(pieces)
