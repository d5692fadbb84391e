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

The tokenizer walks ``_TOKEN`` with one anchored match loop. A token is a
plain ``(kind, text, offset)`` tuple: punctuation is its own kind, and an
``EOF`` token sits at ``len(text)``. Tokens carry no line or column; an error
resolves its offset to ``line L, column C`` (both from 1, the column counting
characters after the last newline) only when it is raised.
"""

from __future__ import annotations

import re

from ..errors import ProblogSyntaxError
from .syntax import IDENT, QUOTED, Atom, Clause, Evidence, Literal, ProbHead, ProblogProgram, Query

_TOKEN = re.compile(
    rf"""
      (?P<WS>[ \t\r\n]+)
    | (?P<COMMENT>%[^\n]*)
    | (?P<PROBSEP>::)
    | (?P<ARROW>:-)
    | (?P<NUMBER>\d+\.\d+|\d+)
    | (?P<QUOTED>{QUOTED})
    | (?P<IDENT>{IDENT})
    | (?P<PUNCT>[;,.()])
    """,
    re.VERBOSE,
)


_Tok = tuple[str, str, int]  # (kind, text, offset)


def _position(text: str, offset: int) -> str:
    """``line L, column C`` of a character offset, both counted from 1."""

    line = text.count("\n", 0, offset) + 1
    column = offset - text.rfind("\n", 0, offset)
    return f"line {line}, column {column}"


def _tokenize(text: str) -> list[_Tok]:
    tokens: list[_Tok] = []
    m = None
    for m in iter(_TOKEN.scanner(text).match, None):
        kind = m.lastgroup
        if kind != "WS" and kind != "COMMENT":
            snippet = m.group()
            tokens.append((snippet if kind == "PUNCT" else kind, snippet, m.start()))
    # the scan stops at the end of the text or at a character no token starts with
    end = m.end() if m else 0
    if end < len(text):
        raise ProblogSyntaxError(f"{_position(text, end)}: unexpected character {text[end]!r}")
    tokens.append(("EOF", "", end))
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens = _tokenize(text)
        self.i = 0
        self.current = self.tokens[0]

    # -- token plumbing ----------------------------------------------------

    def advance(self) -> _Tok:
        tok = self.current
        self.i += 1
        self.current = self.tokens[self.i]
        return tok

    def error(self, tok: _Tok, message: str) -> ProblogSyntaxError:
        return ProblogSyntaxError(f"{_position(self.text, tok[2])}: {message}")

    def fail(self, expected: str) -> ProblogSyntaxError:
        tok = self.current
        found = "end of input" if tok[0] == "EOF" else repr(tok[1])
        return self.error(tok, f"expected {expected}, found {found}")

    def expect(self, kind: str, expected: str) -> _Tok:
        if self.current[0] != kind:
            raise self.fail(expected)
        return self.advance()

    # -- grammar -----------------------------------------------------------

    def program(self) -> ProblogProgram:
        clauses: list[Clause] = []
        evidence: list[Evidence] = []
        queries: list[Query] = []
        while self.current[0] != "EOF":
            kind, word, _ = self.current
            if kind == "IDENT" and word == "evidence" and self._peek_is("("):
                evidence.append(self.evidence_directive())
            elif kind == "IDENT" and word == "query" and self._peek_is("("):
                queries.append(self.query_directive())
            else:
                clauses.append(self.clause())
        return ProblogProgram(tuple(clauses), tuple(evidence), tuple(queries))

    def _peek_is(self, kind: str) -> bool:
        return self.tokens[self.i + 1][0] == kind

    def evidence_directive(self) -> Evidence:
        self.advance()  # 'evidence'
        self.expect("(", "'('")
        atom = self.atom()
        self.expect(",", "','")
        flag = self.expect("IDENT", "'true' or 'false'")
        if flag[1] not in ("true", "false"):
            raise self.error(flag, f"expected 'true' or 'false', found {flag[1]!r}")
        self.expect(")", "')'")
        self.expect(".", "'.' at end of statement")
        return Evidence(atom=atom, value=flag[1] == "true")

    def query_directive(self) -> Query:
        self.advance()  # 'query'
        self.expect("(", "'('")
        atom = self.atom()
        self.expect(")", "')'")
        self.expect(".", "'.' at end of statement")
        return Query(atom=atom)

    def clause(self) -> Clause:
        heads = [self.head()]
        while self.current[0] == ";":
            self.advance()
            heads.append(self.head())
        body: list[Literal] = []
        if self.current[0] == "ARROW":
            self.advance()
            body.append(self.literal())
            while self.current[0] == ",":
                self.advance()
                body.append(self.literal())
        self.expect(".", "'.' at end of statement")
        return Clause(heads=tuple(heads), body=tuple(body))

    def head(self) -> ProbHead:
        if self.current[0] == "NUMBER":
            num = self.advance()
            probability = float(num[1])
            if probability > 1.0:
                raise self.error(num, f"probability {num[1]} outside [0, 1]")
            self.expect("PROBSEP", "'::' after probability")
            return ProbHead(probability=probability, atom=self.atom())
        if self.current[0] == "IDENT":
            return ProbHead(probability=1.0, atom=self.atom())
        raise self.fail("a probability or an atom")

    def literal(self) -> Literal:
        if self.current[:2] == ("IDENT", "not") and self._peek_is("IDENT"):
            self.advance()
            return Literal(atom=self.atom(), negated=True)
        return Literal(atom=self.atom(), negated=False)

    def atom(self) -> Atom:
        name = self.expect("IDENT", "a predicate name")
        if self.current[0] != "(":
            return Atom(predicate=name[1])
        self.advance()
        args = [self.constant()]
        while self.current[0] == ",":
            self.advance()
            args.append(self.constant())
        self.expect(")", "')' or ','")
        return Atom(predicate=name[1], args=tuple(args))

    def constant(self) -> str:
        kind, word, _ = tok = self.current
        if kind == "IDENT":
            self.advance()
            return word
        if kind == "QUOTED":
            self.advance()
            if word == "''":
                raise self.error(tok, "empty quoted constant")
            return word[1:-1]
        raise self.fail("a constant (identifier or quoted string)")


def parse(text: str) -> ProblogProgram:
    """Parse program text; raise :class:`ProblogSyntaxError` with position."""

    return _Parser(text).program()


def parse_atom(text: str) -> Atom:
    """Parse a single atom, e.g. a CLI query argument."""

    p = _Parser(text)
    atom = p.atom()
    if p.current[0] != "EOF":
        raise p.fail("end of input after atom")
    return atom
