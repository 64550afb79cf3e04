"""Recursive-descent parser for the anomaly-rule DSL.

Grammar (whitespace-insensitive; `#` starts a comment running to end of line):

    program := { binding } "return" expr
    binding := IDENT "=" expr terminator
    expr    := [ "not" ] term { BINOP [ "not" ] term }
    term    := [ "-" ] primary
    primary := NUMBER | "$" IDENT | IDENT | call | "(" expr ")"
    call    := IDENT "(" [ expr { "," expr } ] ")"

How tightly each BINOP binds, and where `not` and unary `-` sit between
them, is `nodes.BINARY_PREC`, `NOT_PREC` and `NEG_PREC`; loosest first:
`or`, `and`, `not`, comparisons, `+ -`, `* /`, unary `-`. So a `not`
starts only an expression or an operand of `and`/`or`, and negates all up to
the next `and`/`or`. Binary operators are left-associative, except that
comparisons do not chain.

A NUMBER that overflows a float, like `1e999`, is a syntax error. A
binding's terminator is a newline or `;`. Newlines inside parentheses are
joined implicitly, so expressions may wrap across lines when parenthesized.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass

from .errors import DslSyntaxError
from .nodes import BINARY_PREC, BUILTINS, COMPARISONS, MAX_WINDOW, MIN_WINDOW, NOT_PREC
from .nodes import BinOp, Call, Expr, FeatureRef, Num, Pos, RuleAst, Unary, VarRef

MAX_SOURCE_BYTES = 16 * 1024
MAX_NODES = 512
MAX_DEPTH = 64  # parentheses and call argument lists open at once
MAX_BINDINGS = 32

KEYWORDS = ("return", "and", "or", "not")
_TIGHTEST = max(BINARY_PREC.values())

_TOKEN_RE = re.compile(
    r"""
    (?P<NUMBER>\d+(?:\.\d+)?(?:[eE][+-]?\d+)?)
  | (?P<FEATURE>\$[A-Za-z_][A-Za-z0-9_]*)
  | (?P<IDENT>[A-Za-z_][A-Za-z0-9_]*)
  | (?P<OP>>=|<=|==|!=|[><+\-*/(),;=])
  | (?P<NEWLINE>\n)
  | (?P<SKIP>[ \t\r]+)
  | (?P<COMMENT>\#[^\n]*)
  | (?P<BAD>.)
    """,
    re.VERBOSE,
)


@dataclass(frozen=True)
class _Token:
    kind: str  # NUMBER, FEATURE, IDENT, KEYWORD, OP, NEWLINE, EOF
    text: str
    pos: Pos


def _tokenize(source: str) -> list[_Token]:
    tokens: list[_Token] = []
    line, line_start = 1, 0
    depth = 0
    for match in _TOKEN_RE.finditer(source):
        kind = match.lastgroup or "BAD"
        text = match.group()
        pos = (line, match.start() - line_start + 1)
        if kind == "NEWLINE":
            # Implicit line joining inside parentheses.
            if depth == 0 and tokens and tokens[-1].kind != "NEWLINE":
                tokens.append(_Token("NEWLINE", text, pos))
            line += 1
            line_start = match.end()
            continue
        if kind in ("SKIP", "COMMENT"):
            continue
        if kind == "BAD":
            raise DslSyntaxError(f"unexpected character {text!r}", *pos)
        if kind == "IDENT" and text in KEYWORDS:
            kind = "KEYWORD"
        if kind == "OP":
            if text == "(":
                depth += 1
                if depth > MAX_DEPTH:
                    raise DslSyntaxError(f"nesting deeper than {MAX_DEPTH} levels", *pos)
            elif text == ")":
                depth = max(0, depth - 1)
        tokens.append(_Token(kind, text, pos))
    tokens.append(_Token("EOF", "", (line, len(source) - line_start + 1)))
    return tokens


class _Parser:
    def __init__(self, tokens: list[_Token]) -> None:
        self._tokens = tokens
        self._i = 0

    def _peek(self, offset: int = 0) -> _Token:
        return self._tokens[min(self._i + offset, len(self._tokens) - 1)]

    def _advance(self) -> _Token:
        tok = self._tokens[self._i]
        if tok.kind != "EOF":
            self._i += 1
        return tok

    def _expect_op(self, text: str) -> _Token:
        tok = self._peek()
        if tok.kind != "OP" or tok.text != text:
            raise DslSyntaxError(f"expected {text!r}, found {tok.text or 'end of input'!r}", *tok.pos)
        return self._advance()

    def _skip_newlines(self) -> None:
        while self._peek().kind == "NEWLINE":
            self._advance()

    def parse_program(self) -> RuleAst:
        bindings: list[tuple[str, Expr]] = []
        bound: set[str] = set()
        self._skip_newlines()
        while self._peek().kind == "IDENT" and self._peek(1).kind == "OP" and self._peek(1).text == "=":
            name_tok = self._advance()
            self._advance()  # '='
            if name_tok.text in bound:
                raise DslSyntaxError(f"identifier {name_tok.text!r} is already bound", *name_tok.pos)
            expr = self._parse_expr(bound)
            self._terminator()
            bound.add(name_tok.text)
            bindings.append((name_tok.text, expr))
            if len(bindings) > MAX_BINDINGS:
                raise DslSyntaxError(
                    f"too many bindings (cap {MAX_BINDINGS})", *name_tok.pos
                )
            self._skip_newlines()
        tok = self._peek()
        if not (tok.kind == "KEYWORD" and tok.text == "return"):
            raise DslSyntaxError(
                f"expected 'return', found {tok.text or 'end of input'!r}", *tok.pos
            )
        self._advance()
        result = self._parse_expr(bound)
        self._skip_newlines()
        trailing = self._peek()
        if trailing.kind != "EOF":
            raise DslSyntaxError(f"unexpected input after return expression: {trailing.text!r}", *trailing.pos)
        ast = RuleAst(bindings=tuple(bindings), result=result)
        if ast.node_count > MAX_NODES:
            raise DslSyntaxError(f"rule has {ast.node_count} nodes (cap {MAX_NODES})", 1, 1)
        return ast

    def _terminator(self) -> None:
        tok = self._peek()
        if tok.kind == "NEWLINE":
            self._advance()
            return
        if tok.kind == "OP" and tok.text == ";":
            self._advance()
            return
        raise DslSyntaxError(
            f"expected end of binding (newline or ';'), found {tok.text or 'end of input'!r}",
            *tok.pos,
        )

    def _parse_expr(self, bound: set[str], prec: int = 0) -> Expr:
        """An expression whose binary operators bind at level `prec` or tighter.

        Precedence climbing over `BINARY_PREC`: each operator's right operand
        is parsed one level tighter, which makes every level left-associative.
        """
        tok = self._peek()
        top = _TIGHTEST  # the tightest operator that may take `node` as its left operand
        if prec <= NOT_PREC and tok.kind == "KEYWORD" and tok.text == "not":
            self._advance()
            node: Expr = Unary("not", self._parse_expr(bound, NOT_PREC + 1), pos=tok.pos)
            top = NOT_PREC  # only `and` and `or` may follow
        elif tok.kind == "OP" and tok.text == "-":
            self._advance()
            node = Unary("-", self._parse_primary(bound), pos=tok.pos)
        else:
            node = self._parse_primary(bound)
        while True:
            tok = self._peek()
            # Only OP and KEYWORD tokens spell an operator in the table.
            op_prec = BINARY_PREC.get(tok.text, -1)
            if not prec <= op_prec <= top:
                return node
            self._advance()
            node = BinOp(tok.text, node, self._parse_expr(bound, op_prec + 1), pos=tok.pos)
            # Comparisons do not chain; the right operand stopped before any tighter operator.
            top = op_prec - 1 if tok.text in COMPARISONS else op_prec

    def _parse_primary(self, bound: set[str]) -> Expr:
        tok = self._peek()
        if tok.kind == "NUMBER":
            self._advance()
            value = float(tok.text)
            if not math.isfinite(value):  # the literal overflows a float, like 1e999
                raise DslSyntaxError(f"number {tok.text!r} is too large", *tok.pos)
            return Num(value, pos=tok.pos)
        if tok.kind == "FEATURE":
            self._advance()
            return FeatureRef(tok.text[1:], pos=tok.pos)
        if tok.kind == "IDENT":
            if self._peek(1).kind == "OP" and self._peek(1).text == "(":
                return self._parse_call(bound)
            self._advance()
            if tok.text not in bound:
                raise DslSyntaxError(f"unknown identifier {tok.text!r}", *tok.pos)
            return VarRef(tok.text, pos=tok.pos)
        if tok.kind == "OP" and tok.text == "(":
            self._advance()
            node = self._parse_expr(bound)
            self._expect_op(")")
            return node
        raise DslSyntaxError(f"expected an expression, found {tok.text or 'end of input'!r}", *tok.pos)

    def _parse_call(self, bound: set[str]) -> Expr:
        name_tok = self._advance()
        self._expect_op("(")
        args: list[Expr] = []
        if not (self._peek().kind == "OP" and self._peek().text == ")"):
            args.append(self._parse_expr(bound))
            while self._peek().kind == "OP" and self._peek().text == ",":
                self._advance()
                args.append(self._parse_expr(bound))
        self._expect_op(")")
        name = name_tok.text
        if name not in BUILTINS:
            raise DslSyntaxError(f"unknown builtin {name!r}", *name_tok.pos)
        arity, literal_at, kind = BUILTINS[name]
        if len(args) != arity:
            raise DslSyntaxError(
                f"{name}() takes {arity} argument{'s' if arity != 1 else ''}, got {len(args)}",
                *name_tok.pos,
            )
        if literal_at is not None:
            self._check_literal(name, kind, args[literal_at])
        return Call(name, tuple(args), pos=name_tok.pos)

    @staticmethod
    def _check_literal(name: str, kind: str | None, arg: Expr) -> None:
        """`arg` must be the literal of `kind` that `BUILTINS` gives `name`."""
        if kind == "window":
            noun, literal, bounds = "window", "an integer literal", f"out of range [{MIN_WINDOW}, {MAX_WINDOW}]"
            is_literal = isinstance(arg, Num) and arg.value == int(arg.value)
            in_bounds = is_literal and MIN_WINDOW <= arg.value <= MAX_WINDOW
        else:  # "alpha"
            noun, literal, bounds = "smoothing factor", "a real literal", "must lie in (0, 1]"
            is_literal = isinstance(arg, Num)
            in_bounds = is_literal and 0.0 < arg.value <= 1.0
        if not is_literal:
            raise DslSyntaxError(f"{noun} for {name}() must be {literal}", *arg.pos)
        if not in_bounds:
            raise DslSyntaxError(f"{noun} for {name}() {bounds}", *arg.pos)


def parse(source: str) -> RuleAst:
    """Parse rule source text into an AST, enforcing the structural caps."""
    if len(source.encode("utf-8")) > MAX_SOURCE_BYTES:
        raise DslSyntaxError(f"source exceeds {MAX_SOURCE_BYTES} bytes", 1, 1)
    return _Parser(_tokenize(source)).parse_program()
