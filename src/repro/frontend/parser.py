"""Recursive-descent parser for the EARTH-C dialect.

The grammar is the C subset exercised by the Olden benchmarks plus the
EARTH-C extensions (``forall``, ``{^ ... ^}``, ``shared``, ``local``,
``@`` placement).  Declarations are C89-style (at the top of a block).
``switch`` arms must each end in ``break`` (no fallthrough) which matches
the structured SIMPLE switch of the paper.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.errors import ParseError
from repro.frontend import ast_nodes as ast
from repro.frontend.lexer import Token, tokenize
from repro.frontend.types import (
    ArrayType,
    PointerType,
    ScalarType,
    StructType,
    Type,
)

_SCALAR_KEYWORDS = {"int", "double", "float", "char", "void"}

_ASSIGN_OPS = {
    "=": None, "+=": "+", "-=": "-", "*=": "*", "/=": "/", "%=": "%",
    "&=": "&", "|=": "|", "^=": "^", "<<=": "<<", ">>=": ">>",
}


class Parser:
    """Parses one translation unit."""

    def __init__(self, source: str, filename: str = "<input>"):
        self.tokens = tokenize(source, filename)
        self.index = 0
        self.structs: Dict[str, StructType] = {}

    # -- token stream helpers -------------------------------------------------

    def _peek(self, offset: int = 0) -> Token:
        if not offset:  # `_next` stops at the sticky `eof`: in range
            return self.tokens[self.index]
        return self.tokens[min(self.index + offset, len(self.tokens) - 1)]

    def _next(self) -> Token:
        token = self.tokens[self.index]
        if token.kind != "eof":
            self.index += 1
        return token

    def _expect_op(self, text: str) -> Token:
        token = self._peek()
        if not token.is_op(text):
            raise ParseError(f"expected {text!r}, found {token.text!r}",
                             token.loc)
        return self._next()

    def _expect_keyword(self, text: str) -> Token:
        token = self._peek()
        if not token.is_keyword(text):
            raise ParseError(f"expected {text!r}, found {token.text!r}",
                             token.loc)
        return self._next()

    def _expect_id(self) -> Token:
        token = self._peek()
        if token.kind != "id":
            raise ParseError(f"expected identifier, found {token.text!r}",
                             token.loc)
        return self._next()

    def _accept_op(self, text: str) -> Optional[Token]:
        if self._peek().is_op(text):
            return self._next()
        return None

    def _accept_keyword(self, text: str) -> Optional[Token]:
        if self._peek().is_keyword(text):
            return self._next()
        return None

    # -- type parsing -----------------------------------------------------------

    def _at_type_start(self) -> bool:
        token = self._peek()
        if token.kind != "keyword":
            return False
        return token.text in _SCALAR_KEYWORDS or token.text in (
            "struct", "shared", "local")

    def _parse_base_type(self) -> Tuple[Type, bool]:
        """Parse the type-specifier prefix; returns ``(type, is_shared)``."""
        is_shared = bool(self._accept_keyword("shared"))
        # Prefix position only: the paper writes `shared int`.
        token = self._peek()
        if token.is_keyword("struct"):
            self._next()
            name_token = self._expect_id()
            base = self._struct_ref(name_token.text)
        elif token.kind == "keyword" and token.text in _SCALAR_KEYWORDS:
            self._next()
            base = ScalarType(token.text)
        else:
            raise ParseError(f"expected a type, found {token.text!r}",
                             token.loc)
        return base, is_shared

    def _struct_ref(self, name: str) -> StructType:
        if name not in self.structs:
            self.structs[name] = StructType(name)
        return self.structs[name]

    def _parse_declarator(self, base: Type) -> Tuple[str, Type]:
        """Parse ``local? *...* name ([N])?`` and build the full type."""
        is_local = bool(self._accept_keyword("local"))
        stars = 0
        while self._accept_op("*"):
            stars += 1
        name_token = self._expect_id()
        result: Type = base
        for _ in range(stars):
            result = PointerType(result)
        if is_local:
            if not isinstance(result, PointerType):
                raise ParseError("`local` qualifies pointers only",
                                 name_token.loc)
            result = result.as_local()
        if self._accept_op("["):
            size_token = self._peek()
            if size_token.kind != "int":
                raise ParseError("array size must be an integer literal",
                                 size_token.loc)
            self._next()
            self._expect_op("]")
            result = ArrayType(result, int(size_token.value))  # type: ignore[arg-type]
        return name_token.text, result

    # -- top level -------------------------------------------------------------

    def parse_program(self) -> ast.Program:
        globals_: List[ast.GlobalVarDecl] = []
        functions: List[ast.FunctionDecl] = []
        while self._peek().kind != "eof":
            if (self._peek().is_keyword("struct")
                    and self._peek(2).is_op("{")):
                self._parse_struct_decl()
                continue
            self._parse_global_or_function(globals_, functions)
        struct_types = [s for s in self.structs.values() if s.is_defined]
        return ast.Program(struct_types, globals_, functions)

    def _parse_struct_decl(self) -> None:
        self._expect_keyword("struct")
        name_token = self._expect_id()
        struct = self._struct_ref(name_token.text)
        self._expect_op("{")
        members: List[Tuple[str, Type]] = []
        while not self._peek().is_op("}"):
            base, is_shared = self._parse_base_type()
            if is_shared:
                raise ParseError("struct fields cannot be `shared`",
                                 self._peek().loc)
            while True:
                fname, ftype = self._parse_declarator(base)
                members.append((fname, ftype))
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
        loc = self._peek().loc
        base, is_shared = self._parse_base_type()
        name, full_type = self._parse_declarator(base)
        if self._peek().is_op("("):
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
                        loc) -> ast.FunctionDecl:
        self._expect_op("(")
        params: List[ast.Param] = []
        if not self._peek().is_op(")"):
            if (self._peek().is_keyword("void")
                    and self._peek(1).is_op(")")):
                self._next()
            else:
                while True:
                    base, is_shared = self._parse_base_type()
                    if is_shared:
                        raise ParseError("parameters cannot be `shared`",
                                         self._peek().loc)
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
        open_token = self._expect_op("{")
        stmts: List[ast.Stmt] = []
        while not self._peek().is_op("}"):
            self._parse_block_item(stmts)
        self._expect_op("}")
        return ast.Block(stmts, open_token.loc)

    def _parse_parallel_seq(self) -> ast.ParallelSeq:
        open_token = self._expect_op("{^")
        stmts: List[ast.Stmt] = []
        while not self._peek().is_op("^}"):
            stmts.append(self._parse_statement())
        self._expect_op("^}")
        return ast.ParallelSeq(stmts, open_token.loc)

    def _parse_block_item(self, stmts: List[ast.Stmt]) -> None:
        """Parse one block item; declarations may add several statements
        (``int a, b;`` splits into one ``VarDecl`` per declarator)."""
        if self._at_type_start():
            stmts.extend(self._parse_local_decls())
        else:
            stmts.append(self._parse_statement())

    def _parse_statement(self) -> ast.Stmt:
        token = self._peek()
        if token.is_op("{"):
            return self._parse_block()
        if token.is_op("{^"):
            return self._parse_parallel_seq()
        if token.is_op(";"):
            self._next()
            return ast.EmptyStmt(token.loc)
        if token.kind == "keyword":
            handler = {
                "if": self._parse_if,
                "while": self._parse_while,
                "do": self._parse_do,
                "for": self._parse_for,
                "forall": self._parse_for,
                "switch": self._parse_switch,
                "return": self._parse_return,
                "break": self._parse_break,
                "continue": self._parse_continue,
                "goto": self._parse_goto,
            }.get(token.text)
            if handler is not None:
                return handler()
            if self._at_type_start():
                raise ParseError(
                    "declarations are only allowed directly inside a block",
                    token.loc)
        if (token.kind == "id" and self._peek(1).is_op(":")
                and not self._peek(2).is_op(":")):
            self._next()
            self._expect_op(":")
            inner = self._parse_statement()
            return ast.Labeled(token.text, inner, token.loc)
        expr = self._parse_expression()
        self._expect_op(";")
        return ast.ExprStmt(expr, token.loc)

    def _parse_local_decls(self) -> List[ast.Stmt]:
        loc = self._peek().loc
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
        token = self._expect_keyword("if")
        self._expect_op("(")
        cond = self._parse_expression()
        self._expect_op(")")
        then_body = self._parse_statement()
        else_body = None
        if self._accept_keyword("else"):
            else_body = self._parse_statement()
        return ast.If(cond, then_body, else_body, token.loc)

    def _parse_while(self) -> ast.Stmt:
        token = self._expect_keyword("while")
        self._expect_op("(")
        cond = self._parse_expression()
        self._expect_op(")")
        body = self._parse_statement()
        return ast.While(cond, body, token.loc)

    def _parse_do(self) -> ast.Stmt:
        token = self._expect_keyword("do")
        body = self._parse_statement()
        self._expect_keyword("while")
        self._expect_op("(")
        cond = self._parse_expression()
        self._expect_op(")")
        self._expect_op(";")
        return ast.DoWhile(body, cond, token.loc)

    def _parse_for(self) -> ast.Stmt:
        token = self._next()  # `for` or `forall`
        is_forall = token.text == "forall"
        self._expect_op("(")
        init = None
        if not self._peek().is_op(";"):
            init = self._parse_expression()
        self._expect_op(";")
        cond = None
        if not self._peek().is_op(";"):
            cond = self._parse_expression()
        self._expect_op(";")
        step = None
        if not self._peek().is_op(")"):
            step = self._parse_expression()
        self._expect_op(")")
        body = self._parse_statement()
        return ast.For(init, cond, step, body, is_forall, token.loc)

    def _parse_switch(self) -> ast.Stmt:
        token = self._expect_keyword("switch")
        self._expect_op("(")
        scrutinee = self._parse_expression()
        self._expect_op(")")
        self._expect_op("{")
        cases: List[ast.SwitchCase] = []
        while not self._peek().is_op("}"):
            arm_token = self._peek()
            if self._accept_keyword("case"):
                value_token = self._next()
                negative = False
                if value_token.is_op("-"):
                    negative = True
                    value_token = self._next()
                if value_token.kind != "int":
                    raise ParseError("case label must be an integer literal",
                                     value_token.loc)
                value: Optional[int] = int(value_token.value)  # type: ignore[arg-type]
                if negative:
                    value = -value
            elif self._accept_keyword("default"):
                value = None
            else:
                raise ParseError(
                    f"expected `case` or `default`, found {arm_token.text!r}",
                    arm_token.loc)
            self._expect_op(":")
            stmts: List[ast.Stmt] = []
            terminated = False
            while True:
                inner = self._peek()
                if inner.is_keyword("break"):
                    self._next()
                    self._expect_op(";")
                    terminated = True
                    break
                if inner.is_keyword("return"):
                    stmts.append(self._parse_return())
                    terminated = True
                    break
                if (inner.is_keyword("case") or inner.is_keyword("default")
                        or inner.is_op("}")):
                    break
                stmts.append(self._parse_statement())
            if not terminated:
                raise ParseError(
                    "switch arms must end in `break` or `return` "
                    "(no fallthrough in the EARTH-C subset)", arm_token.loc)
            cases.append(ast.SwitchCase(value, stmts))
        self._expect_op("}")
        return ast.Switch(scrutinee, cases, token.loc)

    def _parse_return(self) -> ast.Stmt:
        token = self._expect_keyword("return")
        value = None
        if not self._peek().is_op(";"):
            # Accept both `return expr;` and `return(expr);` spellings.
            value = self._parse_expression()
        self._expect_op(";")
        return ast.Return(value, token.loc)

    def _parse_break(self) -> ast.Stmt:
        token = self._expect_keyword("break")
        self._expect_op(";")
        return ast.Break(token.loc)

    def _parse_continue(self) -> ast.Stmt:
        token = self._expect_keyword("continue")
        self._expect_op(";")
        return ast.Continue(token.loc)

    def _parse_goto(self) -> ast.Stmt:
        token = self._expect_keyword("goto")
        label = self._expect_id()
        self._expect_op(";")
        return ast.Goto(label.text, token.loc)

    # -- expressions -------------------------------------------------------------

    def _parse_expression(self) -> ast.Expr:
        return self._parse_assignment_expr()

    def _parse_assignment_expr(self) -> ast.Expr:
        left = self._parse_conditional_expr()
        token = self._peek()
        if token.kind == "op" and token.text in _ASSIGN_OPS:
            self._next()
            right = self._parse_assignment_expr()
            return ast.Assign(left, right, _ASSIGN_OPS[token.text], token.loc)
        return left

    def _parse_conditional_expr(self) -> ast.Expr:
        cond = self._parse_binary_expr(0)
        if self._peek().is_op("?"):
            token = self._next()
            then_value = self._parse_expression()
            self._expect_op(":")
            else_value = self._parse_conditional_expr()
            return ast.CondExpr(cond, then_value, else_value, token.loc)
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
            token = self._peek()
            level = self._LEVEL_OF.get(token.text, -1)
            if token.kind != "op" or level < min_level:
                return left
            self._next()
            right = self._parse_binary_expr(level + 1)
            left = ast.BinOp(token.text, left, right, token.loc)

    def _parse_unary_expr(self) -> ast.Expr:
        token = self._peek()
        if token.is_op("*"):
            self._next()
            return ast.Deref(self._parse_unary_expr(), token.loc)
        if token.is_op("&"):
            self._next()
            return ast.AddrOf(self._parse_unary_expr(), token.loc)
        if token.kind == "op" and token.text in ("-", "!", "~", "+"):
            self._next()
            return ast.UnOp(token.text, self._parse_unary_expr(), token.loc)
        if token.kind == "op" and token.text in ("++", "--"):
            self._next()
            operand = self._parse_unary_expr()
            return ast.IncDec(operand, token.text, True, token.loc)
        if token.is_keyword("sizeof"):
            self._next()
            self._expect_op("(")
            base, _ = self._parse_base_type()
            stars = 0
            while self._accept_op("*"):
                stars += 1
            full: Type = base
            for _ in range(stars):
                full = PointerType(full)
            self._expect_op(")")
            return ast.SizeOf(full, token.loc)
        if token.is_op("(") and self._is_cast_ahead():
            self._next()
            base, _ = self._parse_base_type()
            stars = 0
            while self._accept_op("*"):
                stars += 1
            full = base
            for _ in range(stars):
                full = PointerType(full)
            self._expect_op(")")
            return ast.Cast(full, self._parse_unary_expr(), token.loc)
        return self._parse_postfix_expr()

    def _is_cast_ahead(self) -> bool:
        """True when the current ``(`` opens a cast like ``(struct t *)``."""
        nxt = self._peek(1)
        if nxt.kind != "keyword":
            return False
        return nxt.text in _SCALAR_KEYWORDS or nxt.text == "struct"

    def _parse_postfix_expr(self) -> ast.Expr:
        expr = self._parse_primary_expr()
        while True:
            token = self._peek()
            if token.is_op("->"):
                self._next()
                field = self._expect_id()
                expr = ast.FieldAccess(expr, field.text, True, token.loc)
            elif token.is_op("."):
                self._next()
                field = self._expect_id()
                expr = ast.FieldAccess(expr, field.text, False, token.loc)
            elif token.is_op("["):
                self._next()
                index = self._parse_expression()
                self._expect_op("]")
                expr = ast.Index(expr, index, token.loc)
            elif token.kind == "op" and token.text in ("++", "--"):
                self._next()
                expr = ast.IncDec(expr, token.text, False, token.loc)
            else:
                return expr

    def _parse_primary_expr(self) -> ast.Expr:
        token = self._peek()
        if token.kind == "int":
            self._next()
            return ast.IntLit(int(token.value), token.loc)  # type: ignore[arg-type]
        if token.kind == "float":
            self._next()
            return ast.FloatLit(float(token.value), token.loc)  # type: ignore[arg-type]
        if token.kind == "char":
            self._next()
            return ast.CharLit(str(token.value), token.loc)
        if token.kind == "string":
            self._next()
            return ast.StringLit(str(token.value), token.loc)
        if token.is_keyword("NULL"):
            self._next()
            return ast.IntLit(0, token.loc)
        if token.kind == "id":
            self._next()
            if self._peek().is_op("("):
                return self._parse_call(token)
            return ast.VarRef(token.text, token.loc)
        if token.is_op("("):
            self._next()
            expr = self._parse_expression()
            self._expect_op(")")
            return expr
        raise ParseError(f"unexpected token {token.text!r}", token.loc)

    def _parse_call(self, name_token: Token) -> ast.Expr:
        self._expect_op("(")
        args: List[ast.Expr] = []
        if not self._peek().is_op(")"):
            while True:
                args.append(self._parse_assignment_expr())
                if not self._accept_op(","):
                    break
        self._expect_op(")")
        placement = None
        if self._accept_op("@"):
            placement = self._parse_placement()
        return ast.Call(name_token.text, args, placement, name_token.loc)

    def _parse_placement(self) -> ast.Placement:
        token = self._peek()
        if token.kind == "id" and token.text == "OWNER_OF":
            self._next()
            self._expect_op("(")
            expr = self._parse_expression()
            self._expect_op(")")
            return ast.Placement(ast.Placement.KIND_OWNER_OF, expr, token.loc)
        if token.kind == "id" and token.text == "HOME":
            self._next()
            return ast.Placement(ast.Placement.KIND_HOME, None, token.loc)
        expr = self._parse_unary_expr()
        return ast.Placement(ast.Placement.KIND_NODE, expr, token.loc)


def parse_program(source: str, filename: str = "<input>") -> ast.Program:
    """Parse EARTH-C source text into an untyped AST."""
    return Parser(source, filename).parse_program()
