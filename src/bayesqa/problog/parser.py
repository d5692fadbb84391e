"""Tokenizer and recursive-descent parser for the program fragment.

Grammar (ground fragment; ``%`` starts a line comment):

    program    ::= statement*
    statement  ::= evidence | query | clause
    evidence   ::= "evidence" "(" atom "," ("true" | "false") ")" "."
    query      ::= "query" "(" atom ")" "."
    clause     ::= head ( ";" head )* ( ":-" body )? "."
    head       ::= ( number "::" )? atom
    body       ::= literal ( "," literal )*
    literal    ::= "not"? atom
    atom       ::= ident ( "(" constant ( "," constant )* ")" )?
    constant   ::= ident | quoted

An unannotated head is a deterministic fact (probability 1). ``ident`` and
``quoted`` are the patterns of :mod:`.syntax`, so every name the serializer
writes reads back. ``not``, ``evidence`` and ``query`` are contextual
keywords: ``evidence``/``query`` only at statement start with ``(`` next,
``not`` only in literal position with an ident next. So ``p :- not(e).`` has
the positive body atom ``not(e)``, and ``p :- not not(e).`` negates it.

The tokenizer is one ``_SPLIT.split``: for each match it yields the gap
before it, the comment and the token. The gaps must be whitespace; the first
other character in them is where an anchored scan would have stopped, and is
reported as unexpected. A token is its plain text, ``""`` at the end of
input, and its first character gives its kind (a lowercase letter an
identifier, a digit a number, a quote a quoted constant; punctuation is its
own kind). Tokens carry no position: an error recomputes its token's
character offset from a fresh split and resolves it to ``line L, column C``
(both from 1, the column counting characters after the last newline). One
parse builds one :class:`Atom` per distinct name and one :class:`Literal` per
signed atom, so equal nodes of a program are the same object.

:func:`parse` first walks coarser tokens, split by ``_ATOM_SPLIT``: a ground
atom in canonical spelling (``v1(x,s0)``, ``a(e,'0-299')``: arguments joined
by ``,`` with no layout, no empty quoted constant) is one token, ending in
``)``, and becomes an :class:`Atom` once per distinct text. Such a token is
exactly the fine tokens it spans, run together, and it never starts at
``query(`` or ``evidence(``, where the statement rule must see the keyword
alone; where a constant belongs it is refused. So the walk reads the same
program from either split. Atoms with layout inside stay token by token. A
refusal is always worded by the token-by-token walk: when the coarse walk
raises, :func:`parse` parses the text again from :func:`_tokenize`.
"""

from __future__ import annotations

import re

from ..errors import ProblogSyntaxError
from .syntax import IDENT, QUOTED, Atom, Clause, Evidence, Literal, ProbHead, ProblogProgram, Query

# the token alternatives start with distinct characters, so their order only
# sets how fast a match is found: the most frequent first
_SPLIT = re.compile(rf"(%[^\n]*)|({IDENT}|[;,.()]|::|:-|\d+\.\d+|\d+|{QUOTED})")
_SPACE = " \t\r\n"
# the same split with a whole canonical atom as one token: it shares its first
# character with an identifier, so it must be tried first
_CONSTANT = rf"(?:{IDENT}|'[^'\n]+')"
_ATOM_SPLIT = re.compile(
    rf"(%[^\n]*)|((?!query\(|evidence\(){IDENT}\({_CONSTANT}(?:,{_CONSTANT})*\)"
    rf"|{IDENT}|[;,.()]|::|:-|\d+\.\d+|\d+|{QUOTED})"
)
_ARGUMENT = re.compile(rf"({IDENT})|'([^'\n]+)'")


def _position(text: str, offset: int) -> str:
    """``line L, column C`` of a character offset, both counted from 1."""

    line = text.count("\n", 0, offset) + 1
    column = offset - text.rfind("\n", 0, offset)
    return f"line {line}, column {column}"


def _tokenize(text: str) -> list[str]:
    pieces = _SPLIT.split(text)
    if "".join(pieces[::3]).strip(_SPACE):
        offset = 0
        for k, piece in enumerate(pieces):
            if k % 3 == 0 and piece.lstrip(_SPACE):
                offset += len(piece) - len(piece.lstrip(_SPACE))
                raise ProblogSyntaxError(f"{_position(text, offset)}: unexpected character {text[offset]!r}")
            offset += len(piece or "")
    tokens = list(filter(None, pieces[2::3]))
    tokens.append("")
    return tokens


def _atom_tokens(text: str) -> list[str]:
    """The tokens of :func:`_tokenize`, each canonical atom run into one."""

    pieces = _ATOM_SPLIT.split(text)
    if "".join(pieces[::3]).strip(_SPACE):
        return _tokenize(text)  # the same gaps: it raises, and words the refusal
    tokens = list(filter(None, pieces[2::3]))
    tokens.append("")
    return tokens


def _offset(text: str, k: int) -> int:
    """The character offset of token ``k``, from a fresh split of ``text``."""

    offset = 0
    pieces = _SPLIT.split(text)
    for gap, comment, token in zip(pieces[::3], pieces[1::3], pieces[2::3]):
        offset += len(gap)
        if token is not None:
            if k == 0:
                return offset
            k -= 1
        offset += len(comment or token)
    return len(text)  # the end-of-input token


class _Parser:
    def __init__(self, text: str, tokens: list[str]):
        self.text = text
        self.tokens = tokens
        # keyed by (predicate, *args), and by the text of a whole-atom token
        self.atoms: dict[tuple[str, ...] | str, Atom] = {}
        self.literals: dict[tuple[Atom, bool], Literal] = {}

    def error(self, k: int, message: str) -> ProblogSyntaxError:
        return ProblogSyntaxError(f"{_position(self.text, _offset(self.text, k))}: {message}")

    def fail(self, k: int, expected: str) -> ProblogSyntaxError:
        found = repr(self.tokens[k]) if self.tokens[k] else "end of input"
        return self.error(k, f"expected {expected}, found {found}")

    def expect(self, i: int, token: str, expected: str) -> int:
        if self.tokens[i] != token:
            raise self.fail(i, expected)
        return i + 1

    # -- grammar: each rule takes the index of its first token and returns its
    # node with the index after its last --------------------------------------

    def program(self) -> ProblogProgram:
        tokens = self.tokens
        clauses: list[Clause] = []
        evidence: list[Evidence] = []
        queries: list[Query] = []
        i = 0
        while word := tokens[i]:
            if word == "evidence" and tokens[i + 1] == "(":
                atom, i = self.atom(i + 2)
                i = self.expect(i, ",", "','")
                if tokens[i] not in ("true", "false"):
                    raise self.fail(i, "'true' or 'false'")
                evidence.append(Evidence(atom=atom, value=tokens[i] == "true"))
                i = self.expect(self.expect(i + 1, ")", "')'"), ".", "'.' at end of statement")
            elif word == "query" and tokens[i + 1] == "(":
                atom, i = self.atom(i + 2)
                queries.append(Query(atom=atom))
                i = self.expect(self.expect(i, ")", "')'"), ".", "'.' at end of statement")
            else:
                clause, i = self.clause(i)
                clauses.append(clause)
        return ProblogProgram(tuple(clauses), tuple(evidence), tuple(queries))

    def clause(self, i: int) -> tuple[Clause, int]:
        tokens = self.tokens
        head, i = self.head(i)
        heads = [head]
        while tokens[i] == ";":
            head, i = self.head(i + 1)
            heads.append(head)
        body: list[Literal] = []
        if tokens[i] == ":-":
            sep = ","
            while sep == ",":
                negated = tokens[i + 1] == "not" and "a" <= tokens[i + 2] < "{"
                atom, i = self.atom(i + 1 + negated)
                literal = self.literals.get((atom, negated))
                if literal is None:
                    literal = self.literals[atom, negated] = Literal(atom=atom, negated=negated)
                body.append(literal)
                sep = tokens[i]
        return Clause(heads=tuple(heads), body=tuple(body)), self.expect(i, ".", "'.' at end of statement")

    def head(self, i: int) -> tuple[ProbHead, int]:
        number = self.tokens[i]
        if number[:1].isdecimal():  # what ``\d`` matches
            probability = float(number)
            if probability > 1.0:
                raise self.error(i, f"probability {number} outside [0, 1]")
            atom, i = self.atom(self.expect(i + 1, "::", "'::' after probability"))
            return ProbHead(probability=probability, atom=atom), i
        if "a" <= number < "{":
            atom, i = self.atom(i)
            return ProbHead(probability=1.0, atom=atom), i
        raise self.fail(i, "a probability or an atom")

    def atom(self, i: int) -> tuple[Atom, int]:
        tokens = self.tokens
        name = tokens[i]
        if not "a" <= name < "{":  # the tokens that start with a lowercase letter
            raise self.fail(i, "a predicate name")
        if name[-1] == ")":  # a whole canonical atom
            atom = self.atoms.get(name)
            if atom is None:
                k = name.index("(")
                args = [ident or quoted for ident, quoted in _ARGUMENT.findall(name, k + 1)]
                atom = self.atoms[name] = self.intern(name[:k], args)
            return atom, i + 1
        args: list[str] = []
        if tokens[i + 1] == "(":
            sep = ","
            i += 1
            while sep == ",":  # i is at the '(' or ',' before a constant
                constant = tokens[i + 1]
                if "a" <= constant < "{" and constant[-1] != ")":  # not a whole atom
                    args.append(constant)
                elif constant[:1] == "'":
                    if constant == "''":
                        raise self.error(i + 1, "empty quoted constant")
                    args.append(constant[1:-1])
                else:
                    raise self.fail(i + 1, "a constant (identifier or quoted string)")
                i += 2
                sep = tokens[i]
            if sep != ")":
                raise self.fail(i, "')' or ','")
        return self.intern(name, args), i + 1

    def intern(self, name: str, args: list[str]) -> Atom:
        key = (name, *args)
        atom = self.atoms.get(key)
        if atom is None:
            atom = self.atoms[key] = Atom(predicate=name, args=tuple(args))
        return atom


def parse(text: str) -> ProblogProgram:
    """Parse program text; raise :class:`ProblogSyntaxError` with position."""

    tokens = _atom_tokens(text)
    try:
        return _Parser(text, tokens).program()
    except ProblogSyntaxError:
        # the coarse walk's message counts whole atoms as one token, so the
        # token-by-token walk refuses again and words the refusal
        return _Parser(text, _tokenize(text)).program()


def parse_atom(text: str) -> Atom:
    """Parse a single atom, e.g. a CLI query argument."""

    p = _Parser(text, _tokenize(text))
    atom, i = p.atom(0)
    if p.tokens[i]:
        raise p.fail(i, "end of input after atom")
    return atom
