"""Recursive-descent parser for the EARTH-C dialect.

The grammar is the C subset exercised by the Olden benchmarks plus the
EARTH-C extensions (``forall``, ``{^ ... ^}``, ``shared``, ``local``,
``@`` placement).  Declarations are C89-style (at the top of a block).
``switch`` arms must each end in ``break`` (no fallthrough) which matches
the structured SIMPLE switch of the paper.

The parser reads the lexer's token arrays by index (``self.index``);
it builds no object per token.  An operator or keyword test is one
spelling comparison, a statement is dispatched on its first spelling
through one table (``Parser._STATEMENTS``), and a token's
:class:`SourceLocation` is derived from its offset only when an AST
node or an error cites it, then kept for the next citation.
"""

from __future__ import annotations

import re
from bisect import bisect_right
from typing import Dict, List, Optional, Tuple

from repro.errors import ParseError, SourceLocation
from repro.frontend import ast_nodes as ast
from repro.frontend.lexer import tokenize
from repro.frontend.types import (
    ArrayType,
    PointerType,
    ScalarType,
    StructType,
    Type,
)

_SCALAR_KEYWORDS = frozenset({"int", "double", "float", "char", "void"})
#: The spellings a declaration starts with, and a cast after its `(`.
_TYPE_START = _SCALAR_KEYWORDS | {"struct", "shared", "local"}
_CAST_START = _SCALAR_KEYWORDS | {"struct"}

_NEWLINE = re.compile("\n")

_ASSIGN_OPS = {
    "=": None, "+=": "+", "-=": "-", "*=": "*", "/=": "/", "%=": "%",
    "&=": "&", "|=": "|", "^=": "^", "<<=": "<<", ">>=": ">>",
}


class Parser:
    """Parses one translation unit; a token is its index into
    ``kinds`` / ``texts`` / ``values``."""

    def __init__(self, source: str, filename: str = "<input>"):
        self.tokens = tokenize(source, filename)
        self.kinds = self.tokens.kinds
        self.texts = self.tokens.texts
        self.values = self.tokens.values
        #: The ``eof`` token's index, where ``_next`` stops.
        self.last = len(self.kinds) - 1
        self.index = 0
        self.filename = filename
        self._line_starts = [0] + [
            newline.end() for newline in _NEWLINE.finditer(source)]
        self._locs: List[Optional[SourceLocation]] = \
            [None] * len(self.kinds)
        self.structs: Dict[str, StructType] = {}

    # -- token stream helpers -------------------------------------------------

    def _loc(self, index: int) -> SourceLocation:
        """The location of token ``index``, built once."""
        loc = self._locs[index]
        if loc is None:
            offset = self.tokens.offsets[index]
            line = bisect_right(self._line_starts, offset)
            loc = self._locs[index] = SourceLocation(
                self.filename, line, offset - self._line_starts[line - 1] + 1)
        return loc

    def _text(self, offset: int) -> str:
        """The spelling ``offset`` tokens ahead (``eof``'s past the end)."""
        return self.texts[min(self.index + offset, self.last)]

    def _next(self) -> int:
        index = self.index
        if index != self.last:
            self.index = index + 1
        return index

    def _expect_op(self, text: str) -> int:
        index = self.index
        if self.texts[index] != text:
            raise ParseError(
                f"expected {text!r}, found {self.texts[index]!r}",
                self._loc(index))
        self.index = index + 1
        return index

    # A keyword is tested as an operator is: by its spelling alone.
    _expect_keyword = _expect_op

    def _expect_id(self) -> int:
        index = self.index
        if self.kinds[index] != "id":
            raise ParseError(
                f"expected identifier, found {self.texts[index]!r}",
                self._loc(index))
        self.index = index + 1
        return index

    def _accept_op(self, text: str) -> bool:
        if self.texts[self.index] == text:
            self.index += 1
            return True
        return False

    _accept_keyword = _accept_op

    # -- type parsing -----------------------------------------------------------

    def _parse_base_type(self) -> Tuple[Type, bool]:
        """Parse the type-specifier prefix; returns ``(type, is_shared)``."""
        is_shared = self._accept_keyword("shared")
        # Prefix position only: the paper writes `shared int`.
        index = self.index
        text = self.texts[index]
        if text == "struct":
            self.index = index + 1
            base: Type = self._struct_ref(self.texts[self._expect_id()])
        elif text in _SCALAR_KEYWORDS:
            self.index = index + 1
            base = ScalarType(text)
        else:
            raise ParseError(f"expected a type, found {text!r}",
                             self._loc(index))
        return base, is_shared

    def _struct_ref(self, name: str) -> StructType:
        if name not in self.structs:
            self.structs[name] = StructType(name)
        return self.structs[name]

    def _parse_declarator(self, base: Type) -> Tuple[str, Type]:
        """Parse ``local? *...* name ([N])?`` and build the full type."""
        is_local = self._accept_keyword("local")
        result: Type = base
        while self._accept_op("*"):
            result = PointerType(result)
        name = self._expect_id()
        if is_local:
            if not isinstance(result, PointerType):
                raise ParseError("`local` qualifies pointers only",
                                 self._loc(name))
            result = result.as_local()
        if self._accept_op("["):
            size = self.index
            if self.kinds[size] != "int":
                raise ParseError("array size must be an integer literal",
                                 self._loc(size))
            self.index = size + 1
            self._expect_op("]")
            result = ArrayType(result, self.values[size])  # type: ignore[arg-type]
        return self.texts[name], result

    def _parse_pointer_type(self) -> Type:
        """A type name as ``sizeof`` and casts spell it: base, stars."""
        full, _ = self._parse_base_type()
        while self._accept_op("*"):
            full = PointerType(full)
        return full

    # -- top level -------------------------------------------------------------

    def parse_program(self) -> ast.Program:
        globals_: List[ast.GlobalVarDecl] = []
        functions: List[ast.FunctionDecl] = []
        kinds, texts = self.kinds, self.texts
        while kinds[self.index] != "eof":
            if texts[self.index] == "struct" and self._text(2) == "{":
                self._parse_struct_decl()
                continue
            self._parse_global_or_function(globals_, functions)
        struct_types = [s for s in self.structs.values() if s.is_defined]
        return ast.Program(struct_types, globals_, functions)

    def _parse_struct_decl(self) -> None:
        self._expect_keyword("struct")
        struct = self._struct_ref(self.texts[self._expect_id()])
        self._expect_op("{")
        members: List[Tuple[str, Type]] = []
        while self.texts[self.index] != "}":
            base, is_shared = self._parse_base_type()
            if is_shared:
                raise ParseError("struct fields cannot be `shared`",
                                 self._loc(self.index))
            while True:
                members.append(self._parse_declarator(base))
                if not self._accept_op(","):
                    break
            self._expect_op(";")
        self._expect_op("}")
        self._expect_op(";")
        struct.define(members)

    def _parse_global_or_function(
        self,
        globals_: List[ast.GlobalVarDecl],
        functions: List[ast.FunctionDecl],
    ) -> None:
        loc = self._loc(self.index)
        base, is_shared = self._parse_base_type()
        name, full_type = self._parse_declarator(base)
        if self.texts[self.index] == "(":
            if is_shared:
                raise ParseError("functions cannot be `shared`", loc)
            functions.append(self._parse_function(name, full_type, loc))
            return
        init = None
        if self._accept_op("="):
            init = self._parse_assignment_expr()
        globals_.append(ast.GlobalVarDecl(name, full_type, is_shared, init, loc))
        while self._accept_op(","):
            other_name, other_type = self._parse_declarator(base)
            other_init = None
            if self._accept_op("="):
                other_init = self._parse_assignment_expr()
            globals_.append(ast.GlobalVarDecl(
                other_name, other_type, is_shared, other_init, loc))
        self._expect_op(";")

    def _parse_function(self, name: str, return_type: Type,
                        loc: SourceLocation) -> ast.FunctionDecl:
        self._expect_op("(")
        params: List[ast.Param] = []
        if self.texts[self.index] != ")":
            if self.texts[self.index] == "void" and self._text(1) == ")":
                self.index += 1
            else:
                while True:
                    base, is_shared = self._parse_base_type()
                    if is_shared:
                        raise ParseError("parameters cannot be `shared`",
                                         self._loc(self.index))
                    pname, ptype = self._parse_declarator(base)
                    params.append(ast.Param(pname, ptype))
                    if not self._accept_op(","):
                        break
        self._expect_op(")")
        # Old-style `;` prototype: record nothing, body comes later.
        if self._accept_op(";"):
            return ast.FunctionDecl(name, return_type, params,
                                    ast.Block([]), loc)
        body = self._parse_block()
        return ast.FunctionDecl(name, return_type, params, body, loc)

    # -- statements --------------------------------------------------------------

    def _parse_block(self) -> ast.Block:
        start = self._expect_op("{")
        stmts: List[ast.Stmt] = []
        texts = self.texts
        while texts[self.index] != "}":
            if texts[self.index] in _TYPE_START:
                stmts.extend(self._parse_local_decls())
            else:
                stmts.append(self._parse_statement())
        self.index += 1
        return ast.Block(stmts, self._loc(start))

    def _parse_parallel_seq(self) -> ast.ParallelSeq:
        start = self._expect_op("{^")
        stmts: List[ast.Stmt] = []
        while self.texts[self.index] != "^}":
            stmts.append(self._parse_statement())
        self.index += 1
        return ast.ParallelSeq(stmts, self._loc(start))

    def _parse_statement(self) -> ast.Stmt:
        index = self.index
        text = self.texts[index]
        handler = self._STATEMENTS.get(text)
        if handler is not None:
            return handler(self)
        if text == ";":
            self.index = index + 1
            return ast.EmptyStmt(self._loc(index))
        if text in _TYPE_START:
            raise ParseError(
                "declarations are only allowed directly inside a block",
                self._loc(index))
        if (self.kinds[index] == "id" and self._text(1) == ":"
                and self._text(2) != ":"):
            self.index = index + 2
            inner = self._parse_statement()
            return ast.Labeled(text, inner, self._loc(index))
        expr = self._parse_expression()
        self._expect_op(";")
        return ast.ExprStmt(expr, self._loc(index))

    def _parse_local_decls(self) -> List[ast.Stmt]:
        loc = self._loc(self.index)
        base, is_shared = self._parse_base_type()
        decls: List[ast.Stmt] = []
        while True:
            name, full_type = self._parse_declarator(base)
            init = None
            if self._accept_op("="):
                init = self._parse_assignment_expr()
            decls.append(ast.VarDecl(name, full_type, is_shared, init, loc))
            if not self._accept_op(","):
                break
        self._expect_op(";")
        return decls

    def _parse_if(self) -> ast.Stmt:
        start = self._expect_keyword("if")
        self._expect_op("(")
        cond = self._parse_expression()
        self._expect_op(")")
        then_body = self._parse_statement()
        else_body = None
        if self._accept_keyword("else"):
            else_body = self._parse_statement()
        return ast.If(cond, then_body, else_body, self._loc(start))

    def _parse_while(self) -> ast.Stmt:
        start = self._expect_keyword("while")
        self._expect_op("(")
        cond = self._parse_expression()
        self._expect_op(")")
        body = self._parse_statement()
        return ast.While(cond, body, self._loc(start))

    def _parse_do(self) -> ast.Stmt:
        start = self._expect_keyword("do")
        body = self._parse_statement()
        self._expect_keyword("while")
        self._expect_op("(")
        cond = self._parse_expression()
        self._expect_op(")")
        self._expect_op(";")
        return ast.DoWhile(body, cond, self._loc(start))

    def _parse_for(self) -> ast.Stmt:
        start = self._next()  # `for` or `forall`
        self._expect_op("(")
        init = None
        if self.texts[self.index] != ";":
            init = self._parse_expression()
        self._expect_op(";")
        cond = None
        if self.texts[self.index] != ";":
            cond = self._parse_expression()
        self._expect_op(";")
        step = None
        if self.texts[self.index] != ")":
            step = self._parse_expression()
        self._expect_op(")")
        body = self._parse_statement()
        return ast.For(init, cond, step, body,
                       self.texts[start] == "forall", self._loc(start))

    def _parse_switch(self) -> ast.Stmt:
        start = self._expect_keyword("switch")
        self._expect_op("(")
        scrutinee = self._parse_expression()
        self._expect_op(")")
        self._expect_op("{")
        cases: List[ast.SwitchCase] = []
        texts = self.texts
        while texts[self.index] != "}":
            arm = self.index
            value: Optional[int]
            if self._accept_keyword("case"):
                number = self._next()
                negative = texts[number] == "-"
                if negative:
                    number = self._next()
                if self.kinds[number] != "int":
                    raise ParseError("case label must be an integer literal",
                                     self._loc(number))
                value = self.values[number]  # type: ignore[assignment]
                if negative:
                    value = -value  # type: ignore[operator]
            elif self._accept_keyword("default"):
                value = None
            else:
                raise ParseError(
                    f"expected `case` or `default`, found {texts[arm]!r}",
                    self._loc(arm))
            self._expect_op(":")
            stmts: List[ast.Stmt] = []
            terminated = False
            while True:
                text = texts[self.index]
                if text == "break":
                    self.index += 1
                    self._expect_op(";")
                    terminated = True
                    break
                if text == "return":
                    stmts.append(self._parse_return())
                    terminated = True
                    break
                if text in ("case", "default", "}"):
                    break
                stmts.append(self._parse_statement())
            if not terminated:
                raise ParseError(
                    "switch arms must end in `break` or `return` "
                    "(no fallthrough in the EARTH-C subset)", self._loc(arm))
            cases.append(ast.SwitchCase(value, stmts))
        self._expect_op("}")
        return ast.Switch(scrutinee, cases, self._loc(start))

    def _parse_return(self) -> ast.Stmt:
        start = self._expect_keyword("return")
        value = None
        if self.texts[self.index] != ";":
            # Accept both `return expr;` and `return(expr);` spellings.
            value = self._parse_expression()
        self._expect_op(";")
        return ast.Return(value, self._loc(start))

    def _parse_break(self) -> ast.Stmt:
        start = self._expect_keyword("break")
        self._expect_op(";")
        return ast.Break(self._loc(start))

    def _parse_continue(self) -> ast.Stmt:
        start = self._expect_keyword("continue")
        self._expect_op(";")
        return ast.Continue(self._loc(start))

    def _parse_goto(self) -> ast.Stmt:
        start = self._expect_keyword("goto")
        label = self._expect_id()
        self._expect_op(";")
        return ast.Goto(self.texts[label], self._loc(start))

    #: What a statement that starts with this spelling is.
    _STATEMENTS = {
        "{": _parse_block,
        "{^": _parse_parallel_seq,
        "if": _parse_if,
        "while": _parse_while,
        "do": _parse_do,
        "for": _parse_for,
        "forall": _parse_for,
        "switch": _parse_switch,
        "return": _parse_return,
        "break": _parse_break,
        "continue": _parse_continue,
        "goto": _parse_goto,
    }

    # -- expressions -------------------------------------------------------------

    def _parse_expression(self) -> ast.Expr:
        return self._parse_assignment_expr()

    def _parse_assignment_expr(self) -> ast.Expr:
        left = self._parse_conditional_expr()
        index = self.index
        text = self.texts[index]
        if text in _ASSIGN_OPS:
            self.index = index + 1
            right = self._parse_assignment_expr()
            return ast.Assign(left, right, _ASSIGN_OPS[text],
                              self._loc(index))
        return left

    def _parse_conditional_expr(self) -> ast.Expr:
        cond = self._parse_binary_expr(0)
        index = self.index
        if self.texts[index] == "?":
            self.index = index + 1
            then_value = self._parse_expression()
            self._expect_op(":")
            else_value = self._parse_conditional_expr()
            return ast.CondExpr(cond, then_value, else_value,
                                self._loc(index))
        return cond

    # The grammar's ten binary levels, lowest binding first; every
    # level is left-associative.  `_LEVEL_OF` is this table inverted.
    _PRECEDENCE: List[List[str]] = [
        ["||"],
        ["&&"],
        ["|"],
        ["^"],
        ["&"],
        ["==", "!="],
        ["<", "<=", ">", ">="],
        ["<<", ">>"],
        ["+", "-"],
        ["*", "/", "%"],
    ]
    _LEVEL_OF: Dict[str, int] = {
        op: level for level, ops in enumerate(_PRECEDENCE) for op in ops}

    def _parse_binary_expr(self, min_level: int) -> ast.Expr:
        """Precedence climbing: one operand, then every operator that
        binds at ``min_level`` or tighter, each with a right side parsed
        one level up (which is what makes the level left-associative)."""
        left = self._parse_unary_expr()
        while True:
            index = self.index
            text = self.texts[index]
            level = self._LEVEL_OF.get(text, -1)
            if level < min_level:
                return left
            self.index = index + 1
            right = self._parse_binary_expr(level + 1)
            left = ast.BinOp(text, left, right, self._loc(index))

    def _parse_unary_expr(self) -> ast.Expr:
        index = self.index
        text = self.texts[index]
        if text == "*":
            self.index = index + 1
            return ast.Deref(self._parse_unary_expr(), self._loc(index))
        if text == "&":
            self.index = index + 1
            return ast.AddrOf(self._parse_unary_expr(), self._loc(index))
        if text in ("-", "!", "~", "+"):
            self.index = index + 1
            return ast.UnOp(text, self._parse_unary_expr(), self._loc(index))
        if text in ("++", "--"):
            self.index = index + 1
            operand = self._parse_unary_expr()
            return ast.IncDec(operand, text, True, self._loc(index))
        if text == "sizeof":
            self.index = index + 1
            self._expect_op("(")
            full = self._parse_pointer_type()
            self._expect_op(")")
            return ast.SizeOf(full, self._loc(index))
        if text == "(" and self._text(1) in _CAST_START:
            self.index = index + 1
            full = self._parse_pointer_type()
            self._expect_op(")")
            return ast.Cast(full, self._parse_unary_expr(), self._loc(index))
        return self._parse_postfix_expr()

    def _parse_postfix_expr(self) -> ast.Expr:
        expr = self._parse_primary_expr()
        texts = self.texts
        while True:
            index = self.index
            text = texts[index]
            if text == "->" or text == ".":
                self.index = index + 1
                field = texts[self._expect_id()]
                expr = ast.FieldAccess(expr, field, text == "->",
                                       self._loc(index))
            elif text == "[":
                self.index = index + 1
                subscript = self._parse_expression()
                self._expect_op("]")
                expr = ast.Index(expr, subscript, self._loc(index))
            elif text == "++" or text == "--":
                self.index = index + 1
                expr = ast.IncDec(expr, text, False, self._loc(index))
            else:
                return expr

    def _parse_primary_expr(self) -> ast.Expr:
        index = self.index
        kind = self.kinds[index]
        if kind == "id":
            self.index = index + 1
            if self.texts[index + 1] == "(":
                return self._parse_call(index)
            return ast.VarRef(self.texts[index], self._loc(index))
        if kind == "int":
            self.index = index + 1
            return ast.IntLit(self.values[index], self._loc(index))  # type: ignore[arg-type]
        if kind == "float":
            self.index = index + 1
            return ast.FloatLit(self.values[index], self._loc(index))  # type: ignore[arg-type]
        if kind == "char":
            self.index = index + 1
            return ast.CharLit(self.values[index], self._loc(index))  # type: ignore[arg-type]
        if kind == "string":
            self.index = index + 1
            return ast.StringLit(self.values[index], self._loc(index))  # type: ignore[arg-type]
        text = self.texts[index]
        if text == "NULL":
            self.index = index + 1
            return ast.IntLit(0, self._loc(index))
        if text == "(":
            self.index = index + 1
            expr = self._parse_expression()
            self._expect_op(")")
            return expr
        raise ParseError(f"unexpected token {text!r}", self._loc(index))

    def _parse_call(self, name: int) -> ast.Expr:
        self._expect_op("(")
        args: List[ast.Expr] = []
        if self.texts[self.index] != ")":
            while True:
                args.append(self._parse_assignment_expr())
                if not self._accept_op(","):
                    break
        self._expect_op(")")
        placement = None
        if self._accept_op("@"):
            placement = self._parse_placement()
        return ast.Call(self.texts[name], args, placement, self._loc(name))

    def _parse_placement(self) -> ast.Placement:
        index = self.index
        text = self.texts[index]
        # Neither name is a keyword: an identifier spelled so.
        if text == "OWNER_OF":
            self.index = index + 1
            self._expect_op("(")
            expr = self._parse_expression()
            self._expect_op(")")
            return ast.Placement(ast.Placement.KIND_OWNER_OF, expr,
                                 self._loc(index))
        if text == "HOME":
            self.index = index + 1
            return ast.Placement(ast.Placement.KIND_HOME, None,
                                 self._loc(index))
        expr = self._parse_unary_expr()
        return ast.Placement(ast.Placement.KIND_NODE, expr, self._loc(index))


def parse_program(source: str, filename: str = "<input>") -> ast.Program:
    """Parse EARTH-C source text into an untyped AST."""
    return Parser(source, filename).parse_program()
