"""Temporal-logic frontend: parsing, negation normal form, fragments.

Formulas are immutable trees in negation normal form (negation appears
only on atoms). And/Or nodes are flattened, duplicate-free and their
children canonically ordered, so structural equality doubles as
canonical-form equality and the DFA compiler can use formulas as state
identities.

Concrete syntax: atoms ``[a-zA-Z_][a-zA-Z0-9_]*``; literals ``true`` and
``false``; operators ``! & | X F G U`` with precedence
unary > U > & > | and right-associative U; ``#`` starts a comment.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from enum import Enum
from typing import Iterable

MAX_ATOMS = 16
_RESERVED = {"true", "false", "X", "F", "G", "U"}
_NAME_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*\Z")


class LtlError(Exception):
    pass


class LtlSyntaxError(LtlError):
    """Raised on malformed input; `position` is a 0-based character offset."""

    def __init__(self, message, position):
        super().__init__(f"syntax error at position {position}: {message}")
        self.position = position


class UnknownAtomError(LtlError):
    def __init__(self, name, position):
        super().__init__(f"unknown atom '{name}' at position {position}")
        self.name = name
        self.position = position


class UnsupportedOperatorError(LtlError):
    """Negating U is not expressible here (no release/weak-until nodes)."""


@dataclass(frozen=True)
class PropositionTable:
    """Ordered atomic propositions; atom i maps to bit i of a symbol."""

    names: tuple[str, ...]

    def __post_init__(self):
        object.__setattr__(self, "names", tuple(self.names))
        if len(self.names) > MAX_ATOMS:
            raise ValueError(f"at most {MAX_ATOMS} atoms supported, got {len(self.names)}")
        if len(set(self.names)) != len(self.names):
            raise ValueError("atom names must be unique")
        for name in self.names:
            if not _NAME_RE.match(name) or name in _RESERVED:
                raise ValueError(f"invalid atom name {name!r}")

    @property
    def symbol_count(self) -> int:
        return 1 << len(self.names)


# --- formula nodes --------------------------------------------------------
#
# Every node carries a canonical key string; equality and ordering of
# children go through it, which keeps the canonical form stable.


class Formula:
    __slots__ = ("key",)

    def __eq__(self, other):
        return isinstance(other, Formula) and self.key == other.key

    def __hash__(self):
        return hash(self.key)

    def __repr__(self):
        return f"{type(self).__name__}[{self.key}]"


class LTrue(Formula):
    __slots__ = ()

    def __init__(self):
        self.key = "1"


class LFalse(Formula):
    __slots__ = ()

    def __init__(self):
        self.key = "0"


TRUE = LTrue()
FALSE = LFalse()


class Atom(Formula):
    __slots__ = ("index",)

    def __init__(self, index: int):
        self.index = index
        self.key = f"a{index}"


class NotAtom(Formula):
    __slots__ = ("index",)

    def __init__(self, index: int):
        self.index = index
        self.key = f"n{index}"


class And(Formula):
    __slots__ = ("children",)

    def __init__(self, children: tuple[Formula, ...]):
        self.children = children
        self.key = "(& " + " ".join(c.key for c in children) + ")"


class Or(Formula):
    __slots__ = ("children",)

    def __init__(self, children: tuple[Formula, ...]):
        self.children = children
        self.key = "(| " + " ".join(c.key for c in children) + ")"


class Next(Formula):
    __slots__ = ("child",)

    def __init__(self, child: Formula):
        self.child = child
        self.key = f"(X {child.key})"


class Eventually(Formula):
    __slots__ = ("child",)

    def __init__(self, child: Formula):
        self.child = child
        self.key = f"(F {child.key})"


class Globally(Formula):
    __slots__ = ("child",)

    def __init__(self, child: Formula):
        self.child = child
        self.key = f"(G {child.key})"


class Until(Formula):
    __slots__ = ("left", "right")

    def __init__(self, left: Formula, right: Formula):
        self.left = left
        self.right = right
        self.key = f"(U {left.key} {right.key})"


# --- canonical constructors ----------------------------------------------


def _junction(items: Iterable[Formula], cls, zero: Formula, unit: Formula) -> Formula:
    """Canonical ``cls`` (`And` or `Or`) of ``items``: flattened,
    deduplicated and sorted; ``zero`` absorbs it and ``unit`` drops out."""
    seen: dict[str, Formula] = {}
    for item in items:
        for part in item.children if isinstance(item, cls) else (item,):
            if isinstance(part, type(zero)):
                return zero
            if not isinstance(part, type(unit)):
                seen.setdefault(part.key, part)
    kids = tuple(sorted(seen.values(), key=lambda f: f.key))
    if len(kids) > 1:
        return cls(kids)
    return kids[0] if kids else unit


def conj(items: Iterable[Formula]) -> Formula:
    """Canonical conjunction: flattened, deduplicated, sorted, identities absorbed."""
    return _junction(items, And, FALSE, TRUE)


def disj(items: Iterable[Formula]) -> Formula:
    """Canonical disjunction, dual of `conj`."""
    return _junction(items, Or, TRUE, FALSE)


def negate(f: Formula) -> Formula:
    """Dualize an NNF formula: X is self-dual, F<->G, De Morgan on and/or.

    An involution (negate(negate(f)) == f). Until has no dual in this
    grammar, so negating a formula containing U raises
    UnsupportedOperatorError.
    """
    if isinstance(f, LTrue):
        return FALSE
    if isinstance(f, LFalse):
        return TRUE
    if isinstance(f, Atom):
        return NotAtom(f.index)
    if isinstance(f, NotAtom):
        return Atom(f.index)
    if isinstance(f, And):
        return disj(negate(c) for c in f.children)
    if isinstance(f, Or):
        return conj(negate(c) for c in f.children)
    if isinstance(f, Next):
        return Next(negate(f.child))
    if isinstance(f, Eventually):
        return Globally(negate(f.child))
    if isinstance(f, Globally):
        return Eventually(negate(f.child))
    if isinstance(f, Until):
        raise UnsupportedOperatorError("cannot negate U without a release operator")
    raise TypeError(f"not a formula: {f!r}")


# --- fragments ------------------------------------------------------------


class Fragment(Enum):
    COSAFE = "co-safe"
    SAFE = "safe"
    NEITHER = "neither"


def is_cosafe(f: Formula) -> bool:
    """Syntactic co-safe test: no Globally anywhere in the NNF tree."""
    if isinstance(f, Globally):
        return False
    if isinstance(f, (And, Or)):
        return all(is_cosafe(c) for c in f.children)
    if isinstance(f, (Next, Eventually)):
        return is_cosafe(f.child)
    if isinstance(f, Until):
        return is_cosafe(f.left) and is_cosafe(f.right)
    return True


def is_safe(f: Formula) -> bool:
    """Syntactic safe test: no Until and no Eventually in the NNF tree."""
    if isinstance(f, (Until, Eventually)):
        return False
    if isinstance(f, (And, Or)):
        return all(is_safe(c) for c in f.children)
    if isinstance(f, (Next, Globally)):
        return is_safe(f.child)
    return True


def classify(f: Formula) -> Fragment:
    """Map to a single fragment value; purely-boolean/X formulas sit in both
    fragments and are reported as COSAFE."""
    if is_cosafe(f):
        return Fragment.COSAFE
    if is_safe(f):
        return Fragment.SAFE
    return Fragment.NEITHER


# --- parser ---------------------------------------------------------------

_TOKEN_RE = re.compile(
    r"""
    (?P<ws>[ \t\r\n]+|\#[^\n]*)
    |(?P<name>[A-Za-z_][A-Za-z0-9_]*)
    |(?P<op>[!&|()])
    """,
    re.VERBOSE,
)


def _tokenize(text):
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise LtlSyntaxError(f"unexpected character {text[pos]!r}", pos)
        if m.lastgroup != "ws":
            tokens.append((m.group(m.lastgroup), pos))
        pos = m.end()
    tokens.append(("<eof>", len(text)))
    return tokens


class _Parser:
    """Recursive descent that builds canonical NNF in one pass. Each rule
    takes ``neg`` (an odd number of enclosing ``!``) and then builds the dual:
    De Morgan, F <-> G, X self-dual, literals and atoms flipped. U has no
    dual, so reaching one under negation raises UnsupportedOperatorError."""

    def __init__(self, tokens, table):
        self.tokens = tokens
        self.table = table
        self.i = 0

    def peek(self):
        return self.tokens[self.i]

    def advance(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect(self, text):
        tok, pos = self.peek()
        if tok != text:
            raise LtlSyntaxError(f"expected {text!r}, found {tok!r}", pos)
        return self.advance()

    def parse(self):
        f = self.parse_or(False)
        tok, pos = self.peek()
        if tok != "<eof>":
            raise LtlSyntaxError(f"unexpected token {tok!r}", pos)
        return f

    def parse_or(self, neg):
        make = conj if neg else disj
        node = self.parse_and(neg)
        while self.peek()[0] == "|":
            self.advance()
            node = make([node, self.parse_and(neg)])
        return node

    def parse_and(self, neg):
        make = disj if neg else conj
        node = self.parse_until(neg)
        while self.peek()[0] == "&":
            self.advance()
            node = make([node, self.parse_until(neg)])
        return node

    def parse_until(self, neg):
        node = self.parse_unary(neg)
        if self.peek()[0] != "U":
            return node
        if neg:
            raise UnsupportedOperatorError("cannot negate U without a release operator")
        self.advance()
        return Until(node, self.parse_until(False))

    def parse_unary(self, neg):
        tok, _pos = self.peek()
        if tok == "!":
            self.advance()
            return self.parse_unary(not neg)
        if tok == "X":
            self.advance()
            return Next(self.parse_unary(neg))
        if tok in ("F", "G"):
            self.advance()
            child = self.parse_unary(neg)
            return Eventually(child) if (tok == "F") != neg else Globally(child)
        return self.parse_primary(neg)

    def parse_primary(self, neg):
        tok, pos = self.advance()
        if tok == "(":
            inner = self.parse_or(neg)
            self.expect(")")
            return inner
        if tok in ("true", "false"):
            return TRUE if (tok == "true") != neg else FALSE
        if tok and (tok[0].isalpha() or tok[0] == "_") and tok not in _RESERVED:
            if tok not in self.table.names:
                raise UnknownAtomError(tok, pos)
            index = self.table.names.index(tok)
            return NotAtom(index) if neg else Atom(index)
        raise LtlSyntaxError(f"unexpected token {tok!r}", pos)


def parse(text: str, table: PropositionTable) -> Formula:
    """Parse a formula into canonical NNF."""
    return _Parser(_tokenize(text), table).parse()


def atoms_in_text(text: str) -> list[str]:
    """Atom names in order of first appearance (used by the CLI when no
    explicit table is given)."""
    out = []
    for tok, _pos in _tokenize(text):
        if _NAME_RE.match(tok) and tok not in _RESERVED and tok not in out:
            out.append(tok)
    return out
