"""Statement scan, tokenizer and recursive-descent parser for the program
fragment.

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

:func:`parse` reads a text one of two ways, and both give the same program
or refusal. Every text :func:`~.syntax.serialize` writes is canonical:
statements apart by layout alone, heads joined by ``; ``, literals by ``, ``,
``not `` before a negated atom, `` :- `` before a body, arguments joined by
``,`` with no layout and no empty quoted constant, one space in
``evidence(ATOM, true).``. Such a text is read a whole statement at a time,
each ``_STATEMENT`` match starting where the last one ended, and each node
is built from a match's groups: a head or body block that holds no quote is cut with
``str.split`` and ``rpartition``, one that does with ``findall``, since a
quoted constant may hold ``; `` or ``, ``. The clause alternative never
starts at ``query(`` or ``evidence(``, which the walk reads as a keyword.
Where a match does not start where the last one ended, anything but layout
follows the last one, or a probability is above 1, the scan gives up and
the token-by-token walk reads the text from its start. The walk reads every
other layout (comments, spaced atoms, ``evidence(a,true)``) and words every
refusal.

The walk's tokenizer is one ``_SPLIT.split``: for each match it yields the
gap before it, the comment and the token. The gaps must be whitespace; the
first other character in them is where an anchored scan would have
stopped, and is reported as unexpected. A token is its plain text, ``""``
at the end of input, and its first character gives its kind (a lowercase
letter an identifier, a digit a number, a quote a quoted constant;
punctuation is its own kind). Tokens carry no position: an error recomputes
its token's character offset from a fresh split and resolves it to ``line
L, column C`` (both from 1, the column counting characters after the last
newline).
"""

from __future__ import annotations

import re

from ..errors import ProblogSyntaxError
from .syntax import IDENT, QUOTED, Atom, Clause, Evidence, Literal, ProbHead, ProblogProgram, Query

# the token alternatives start with distinct characters, so their order only
# sets how fast a match is found: the most frequent first
_SPLIT = re.compile(rf"(%[^\n]*)|({IDENT}|[;,.()]|::|:-|\d+\.\d+|\d+|{QUOTED})")
_SPACE = " \t\r\n"
# one canonical statement, layout before it: a clause (the most frequent, so
# tried first), evidence or a query. Groups: heads, body, evidence atom and
# value, query atom
_NUMBER = r"\d+\.\d+|\d+"
_CONSTANT = rf"(?:{IDENT}|'[^'\n]+')"
_ATOM = rf"{IDENT}(?:\({_CONSTANT}(?:,{_CONSTANT})*\))?"
_HEAD = rf"(?:(?:{_NUMBER})::)?{_ATOM}"
_LITERAL = rf"(?:not )?{_ATOM}"
_STATEMENT = re.compile(
    rf"[ \t\r\n]*(?:(?!query\(|evidence\()({_HEAD}(?:; {_HEAD})*)(?: :- ({_LITERAL}(?:, {_LITERAL})*))?\."
    rf"|evidence\(({_ATOM}), (true|false)\)\.|query\(({_ATOM})\)\.)"
)
# the heads and the literals of a block that holds a quote; a head's groups
# are those of its ``rpartition("::")``
_HEADS = re.compile(rf"(?:({_NUMBER})(::))?({_ATOM})")
_LITERALS = re.compile(_LITERAL)
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


def _scan(text: str) -> ProblogProgram | None:
    """The program of a text of canonical statements, or ``None`` where the
    text is not one or a probability is above 1: the walk then reads it, or
    words its refusal."""

    # the node of each spelling; atom() and literal() build a new spelling's
    atoms: dict[str, Atom] = {}
    literals: dict[str, Literal] = {}

    def atom(spelling: str) -> Atom:
        name, _, args = spelling.partition("(")
        if "'" in args:
            got = Atom(name, tuple([ident or quoted for ident, quoted in _ARGUMENT.findall(args)]))
        else:
            got = Atom(name, tuple(args[:-1].split(",")) if args else ())
        atoms[spelling] = got
        return got

    def literal(spelling: str) -> Literal:
        negated = spelling.startswith("not ")
        inner = spelling[4:] if negated else spelling
        got = literals[spelling] = Literal(atoms.get(inner) or atom(inner), negated)
        return got

    clauses: list[Clause] = []
    evidence: list[Evidence] = []
    queries: list[Query] = []
    end = 0
    # one match from where the last one ended: a search on past a statement
    # that fails would try every later start, and a long run of layout before
    # it would cost time quadratic in its length
    while m := _STATEMENT.match(text, end):
        end = m.end()
        heads, body, observed, value, asked = m.groups()
        if heads is not None:
            parts = _HEADS.findall(heads) if "'" in heads else [h.rpartition("::") for h in heads.split("; ")]
            try:
                alternatives = tuple([ProbHead(float(p) if p else 1.0, atoms.get(a) or atom(a)) for p, _, a in parts])
            except ValueError:  # ProbHead refuses a probability above 1
                return None
            if body is None:
                clauses.append(Clause(alternatives))
            else:
                spellings = _LITERALS.findall(body) if "'" in body else body.split(", ")
                clauses.append(Clause(alternatives, tuple([literals.get(s) or literal(s) for s in spellings])))
        elif observed is not None:
            evidence.append(Evidence(atoms.get(observed) or atom(observed), value == "true"))
        else:
            queries.append(Query(atoms.get(asked) or atom(asked)))
    if text[end:].strip(_SPACE):
        return None
    return ProblogProgram(tuple(clauses), tuple(evidence), tuple(queries))


class _Parser:
    def __init__(self, text: str, tokens: list[str]):
        self.text = text
        self.tokens = tokens

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
                body.append(Literal(atom=atom, negated=negated))
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
        args: list[str] = []
        if tokens[i + 1] == "(":
            sep = ","
            i += 1
            while sep == ",":  # i is at the '(' or ',' before a constant
                constant = tokens[i + 1]
                if "a" <= constant < "{":
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
        return Atom(predicate=name, args=tuple(args)), i + 1


def parse(text: str) -> ProblogProgram:
    """Parse program text; raise :class:`ProblogSyntaxError` with position."""

    program = _scan(text)
    if program is None:
        program = _Parser(text, _tokenize(text)).program()
    return program


def parse_atom(text: str) -> Atom:
    """Parse text holding exactly one atom and nothing after it (no closing
    period); raises :class:`ProblogSyntaxError` at the first token that
    does not fit."""

    p = _Parser(text, _tokenize(text))
    atom, i = p.atom(0)
    if p.tokens[i]:
        raise p.fail(i, "end of input after atom")
    return atom
