"""Recursive-descent SQL parser.

The grammar is a *superset* of all four product dialects: every product-
specific construct the bug corpus needs (``CREATE CLUSTERED INDEX``,
``LIMIT``, ``%`` modulo, ``||`` concatenation, ...) parses here.  Whether
a given server actually *accepts* a construct is decided after parsing by
the dialect feature gate (:mod:`repro.dialects`), mirroring how the study
distinguished parse-level dialect differences from engine behaviour.
"""

from __future__ import annotations

import math
from decimal import Decimal
from typing import Optional, Union

from repro.errors import ParseError
from repro.sqlengine import ast_nodes as ast
from repro.sqlengine.lexer import tokenize
from repro.sqlengine.tokens import Token, TokenKind

#: What a parse starts from: SQL text, or the token list an earlier
#: :func:`~repro.sqlengine.lexer.tokenize` of that text produced.
Source = Union[str, list[Token]]

_AGGREGATE_KEYWORDS = ("COUNT", "SUM", "AVG", "MIN", "MAX")
_COMPARISON_OPS = ("=", "<>", "!=", "<", "<=", ">", ">=")


class Parser:
    """Parse a token stream into AST statements."""

    def __init__(self, source: Source) -> None:
        self._tokens = tokenize(source) if isinstance(source, str) else source
        self._index = 0
        #: Text offset of each ``?`` placeholder consumed so far, in
        #: statement order; its length is the zero-based ordinal of the
        #: next one.
        self.parameter_positions: list[int] = []

    # -- token plumbing ----------------------------------------------------

    def _peek(self, offset: int = 0) -> Token:
        index = min(self._index + offset, len(self._tokens) - 1)
        return self._tokens[index]

    def _advance(self) -> Token:
        token = self._tokens[self._index]
        if token.kind is not TokenKind.EOF:
            self._index += 1
        return token

    def _integer(self, message: str) -> int:
        """Consume an unsigned integer literal; a fraction or exponent
        (``1.5``, ``1e3``) is the same parse error as a non-number."""
        token = self._peek()
        if token.kind is not TokenKind.NUMBER or not token.value.isdigit():
            raise ParseError(f"{message} at line {token.line}")
        self._advance()
        return int(token.value)

    def _at_keyword(self, *words: str) -> bool:
        return self._peek().is_keyword(*words)

    def _accept_keyword(self, *words: str) -> bool:
        if self._at_keyword(*words):
            self._advance()
            return True
        return False

    def _expect_keyword(self, word: str) -> Token:
        token = self._peek()
        if not token.is_keyword(word):
            raise ParseError(f"expected {word}, found {token.value!r} at line {token.line}")
        return self._advance()

    def _at_punct(self, char: str) -> bool:
        token = self._peek()
        return token.kind is TokenKind.PUNCT and token.value == char

    def _at_subquery(self) -> bool:
        """True when the upcoming tokens open a (possibly parenthesised)
        SELECT — distinguishes ``IN ((SELECT ...))`` from a scalar
        IN-list item that merely starts with ``(``, like ``IN ((-2))``."""
        offset = 0
        while True:
            token = self._peek(offset)
            if token.kind is TokenKind.PUNCT and token.value == "(":
                offset += 1
                continue
            return token.is_keyword("SELECT") and offset > 0

    def _accept_punct(self, char: str) -> bool:
        if self._at_punct(char):
            self._advance()
            return True
        return False

    def _expect_punct(self, char: str) -> Token:
        token = self._peek()
        if not (token.kind is TokenKind.PUNCT and token.value == char):
            raise ParseError(f"expected {char!r}, found {token.value!r} at line {token.line}")
        return self._advance()

    def _at_operator(self, *ops: str) -> bool:
        token = self._peek()
        return token.kind is TokenKind.OPERATOR and token.value in ops

    def _accept_operator(self, *ops: str) -> Optional[str]:
        if self._at_operator(*ops):
            return self._advance().value
        return None

    def _identifier(self, what: str = "identifier") -> str:
        token = self._peek()
        if token.kind in (TokenKind.IDENTIFIER, TokenKind.QUOTED_IDENTIFIER):
            self._advance()
            return token.value
        # Non-reserved words used as identifiers (aggregate names etc.)
        if token.kind is TokenKind.KEYWORD and token.value in _AGGREGATE_KEYWORDS:
            self._advance()
            return token.value
        raise ParseError(f"expected {what}, found {token.value!r} at line {token.line}")

    # -- entry points ------------------------------------------------------

    def parse_script(self) -> list[ast.Statement]:
        """Parse a semicolon-separated script into a statement list."""
        statements: list[ast.Statement] = []
        while True:
            while self._accept_punct(";"):
                pass
            if self._peek().kind is TokenKind.EOF:
                return statements
            statements.append(self.parse_statement())

    def parse_only_statement(self) -> ast.Statement:
        """Parse one statement that must be all of the input (trailing
        semicolons allowed)."""
        statement = self.parse_statement()
        while self._accept_punct(";"):
            pass
        token = self._peek()
        if token.kind is not TokenKind.EOF:
            raise ParseError(f"trailing input {token.value!r} at line {token.line}")
        return statement

    def parse_statement(self) -> ast.Statement:
        token = self._peek()
        if token.is_keyword("SELECT") or self._at_punct("("):
            return self._parse_select()
        if token.is_keyword("CREATE"):
            return self._parse_create()
        if token.is_keyword("DROP"):
            return self._parse_drop()
        if token.is_keyword("ALTER"):
            return self._parse_alter()
        if token.is_keyword("INSERT"):
            return self._parse_insert()
        if token.is_keyword("UPDATE"):
            return self._parse_update()
        if token.is_keyword("DELETE"):
            return self._parse_delete()
        if token.is_keyword("BEGIN"):
            self._advance()
            self._accept_keyword("WORK") or self._accept_keyword("TRANSACTION")
            return ast.BeginTransaction()
        if token.is_keyword("COMMIT"):
            self._advance()
            self._accept_keyword("WORK") or self._accept_keyword("TRANSACTION")
            return ast.Commit()
        if token.is_keyword("ROLLBACK"):
            self._advance()
            self._accept_keyword("WORK") or self._accept_keyword("TRANSACTION")
            savepoint = None
            if self._accept_keyword("TO"):
                self._accept_keyword("SAVEPOINT")
                savepoint = self._identifier("savepoint name")
            return ast.Rollback(savepoint=savepoint)
        if token.is_keyword("SAVEPOINT"):
            self._advance()
            return ast.Savepoint(self._identifier("savepoint name"))
        raise ParseError(f"unexpected {token.value!r} at line {token.line}")

    # -- SELECT ------------------------------------------------------------

    def _parse_select(self) -> ast.SelectStatement:
        body = self._parse_select_body()
        order_by: list[ast.OrderItem] = []
        limit: Optional[int] = None
        if self._accept_keyword("ORDER"):
            self._expect_keyword("BY")
            order_by.append(self._parse_order_item())
            while self._accept_punct(","):
                order_by.append(self._parse_order_item())
        if self._accept_keyword("LIMIT"):
            limit = self._integer("LIMIT needs an integer")
        return ast.SelectStatement(body=body, order_by=order_by, limit=limit)

    def _parse_order_item(self) -> ast.OrderItem:
        expr = self._parse_expression()
        descending = False
        if self._accept_keyword("DESC"):
            descending = True
        else:
            self._accept_keyword("ASC")
        return ast.OrderItem(expression=expr, descending=descending)

    def _parse_select_body(self) -> Union[ast.SelectCore, ast.SetOperation]:
        left = self._parse_select_term()
        while self._at_keyword("UNION", "INTERSECT", "EXCEPT"):
            op = self._advance().value
            use_all = bool(self._accept_keyword("ALL"))
            self._accept_keyword("DISTINCT")
            right = self._parse_select_term()
            left = ast.SetOperation(op=op, all=use_all, left=left, right=right)
        return left

    def _parse_select_term(self) -> Union[ast.SelectCore, ast.SetOperation]:
        if self._accept_punct("("):
            body = self._parse_select_body()
            self._expect_punct(")")
            return body
        return self._parse_select_core()

    def _parse_select_core(self) -> ast.SelectCore:
        self._expect_keyword("SELECT")
        distinct = bool(self._accept_keyword("DISTINCT"))
        if not distinct:
            self._accept_keyword("ALL")
        items = [self._parse_select_item()]
        while self._accept_punct(","):
            items.append(self._parse_select_item())
        from_items: list[ast.FromItem] = []
        where = group_by = having = None
        group_by = []
        if self._accept_keyword("FROM"):
            from_items.append(self._parse_from_item())
            while self._accept_punct(","):
                from_items.append(self._parse_from_item())
        if self._accept_keyword("WHERE"):
            where = self._parse_expression()
        if self._accept_keyword("GROUP"):
            self._expect_keyword("BY")
            group_by.append(self._parse_expression())
            while self._accept_punct(","):
                group_by.append(self._parse_expression())
        if self._accept_keyword("HAVING"):
            having = self._parse_expression()
        return ast.SelectCore(
            items=items,
            from_items=from_items,
            where=where,
            group_by=group_by,
            having=having,
            distinct=distinct,
        )

    def _parse_select_item(self) -> ast.SelectItem:
        if self._at_operator("*"):
            self._advance()
            return ast.SelectItem(expression=ast.Star())
        # t.* form
        token = self._peek()
        if (
            token.kind in (TokenKind.IDENTIFIER, TokenKind.QUOTED_IDENTIFIER)
            and self._peek(1).kind is TokenKind.PUNCT
            and self._peek(1).value == "."
            and self._peek(2).kind is TokenKind.OPERATOR
            and self._peek(2).value == "*"
        ):
            self._advance()
            self._advance()
            self._advance()
            return ast.SelectItem(expression=ast.Star(table=token.value))
        expr = self._parse_expression()
        alias = None
        if self._accept_keyword("AS"):
            alias = self._identifier("column alias")
        elif self._peek().kind in (TokenKind.IDENTIFIER, TokenKind.QUOTED_IDENTIFIER):
            alias = self._identifier()
        return ast.SelectItem(expression=expr, alias=alias)

    # -- FROM --------------------------------------------------------------

    def _parse_from_item(self) -> ast.FromItem:
        item = self._parse_from_primary()
        while True:
            kind = None
            if self._accept_keyword("CROSS"):
                kind = "CROSS"
            elif self._at_keyword("INNER", "LEFT", "RIGHT", "FULL"):
                word = self._advance().value
                kind = "INNER" if word == "INNER" else word
                self._accept_keyword("OUTER")
            elif self._at_keyword("JOIN"):
                kind = "INNER"
            if kind is None:
                return item
            self._expect_keyword("JOIN")
            right = self._parse_from_primary()
            condition = None
            if kind != "CROSS":
                self._expect_keyword("ON")
                condition = self._parse_expression()
            item = ast.Join(kind=kind, left=item, right=right, condition=condition)

    def _parse_from_primary(self) -> ast.FromItem:
        if self._accept_punct("("):
            if self._at_keyword("SELECT") or self._at_punct("("):
                subquery = self._parse_select()
                self._expect_punct(")")
                self._accept_keyword("AS")
                alias = self._identifier("derived-table alias")
                return ast.SubqueryRef(subquery=subquery, alias=alias)
            item = self._parse_from_item()
            self._expect_punct(")")
            return item
        name = self._identifier("table name")
        alias = None
        if self._accept_keyword("AS"):
            alias = self._identifier("table alias")
        elif self._peek().kind in (TokenKind.IDENTIFIER, TokenKind.QUOTED_IDENTIFIER):
            alias = self._identifier()
        return ast.TableRef(name=name, alias=alias)

    # -- expressions -------------------------------------------------------

    def _parse_expression(self) -> ast.Expression:
        return self._parse_or()

    def _parse_or(self) -> ast.Expression:
        left = self._parse_and()
        while self._accept_keyword("OR"):
            left = ast.BinaryOp(op="OR", left=left, right=self._parse_and())
        return left

    def _parse_and(self) -> ast.Expression:
        left = self._parse_not()
        while self._accept_keyword("AND"):
            left = ast.BinaryOp(op="AND", left=left, right=self._parse_not())
        return left

    def _parse_not(self) -> ast.Expression:
        if self._accept_keyword("NOT"):
            return ast.UnaryOp(op="NOT", operand=self._parse_not())
        return self._parse_predicate()

    def _parse_predicate(self) -> ast.Expression:
        if self._at_keyword("EXISTS"):
            self._advance()
            self._expect_punct("(")
            subquery = self._parse_select()
            self._expect_punct(")")
            return ast.ExistsPredicate(subquery=subquery)
        left = self._parse_additive()
        while True:
            negated = False
            if self._at_keyword("NOT") and self._peek(1).is_keyword("IN", "LIKE", "BETWEEN"):
                self._advance()
                negated = True
            if self._accept_keyword("IS"):
                is_not = bool(self._accept_keyword("NOT"))
                self._expect_keyword("NULL")
                left = ast.IsNullPredicate(operand=left, negated=is_not)
                continue
            if self._accept_keyword("BETWEEN"):
                low = self._parse_additive()
                self._expect_keyword("AND")
                high = self._parse_additive()
                left = ast.BetweenPredicate(operand=left, low=low, high=high, negated=negated)
                continue
            if self._accept_keyword("LIKE"):
                pattern = self._parse_additive()
                escape = None
                if self._accept_keyword("ESCAPE"):
                    escape = self._parse_additive()
                left = ast.LikePredicate(operand=left, pattern=pattern, escape=escape, negated=negated)
                continue
            if self._accept_keyword("IN"):
                self._expect_punct("(")
                if self._at_keyword("SELECT") or self._at_subquery():
                    subquery = self._parse_select()
                    self._expect_punct(")")
                    left = ast.InPredicate(operand=left, subquery=subquery, negated=negated)
                else:
                    values = [self._parse_expression()]
                    while self._accept_punct(","):
                        values.append(self._parse_expression())
                    self._expect_punct(")")
                    left = ast.InPredicate(operand=left, values=values, negated=negated)
                continue
            op = self._accept_operator(*_COMPARISON_OPS)
            if op:
                right = self._parse_additive()
                if op == "!=":
                    op = "<>"
                left = ast.BinaryOp(op=op, left=left, right=right)
                continue
            if negated:
                token = self._peek()
                raise ParseError(f"dangling NOT at line {token.line}")
            return left

    def _parse_additive(self) -> ast.Expression:
        left = self._parse_multiplicative()
        while True:
            op = self._accept_operator("+", "-", "||")
            if not op:
                return left
            left = ast.BinaryOp(op=op, left=left, right=self._parse_multiplicative())

    def _parse_multiplicative(self) -> ast.Expression:
        left = self._parse_unary()
        while True:
            op = self._accept_operator("*", "/", "%")
            if not op:
                return left
            left = ast.BinaryOp(op=op, left=left, right=self._parse_unary())

    def _parse_unary(self) -> ast.Expression:
        op = self._accept_operator("-", "+")
        if op:
            operand = self._parse_unary()
            if op == "-":
                return ast.UnaryOp(op="-", operand=operand)
            return operand
        return self._parse_primary()

    def _parse_primary(self) -> ast.Expression:
        token = self._peek()
        if token.kind is TokenKind.NUMBER:
            self._advance()
            value = number_value(token.value)
            if value == math.inf:  # the sign is an operator, not part of the token
                raise ParseError(f"number {token.value} out of range at line {token.line}")
            return ast.Literal(value)
        if token.kind is TokenKind.STRING:
            self._advance()
            return ast.Literal(token.value)
        if token.is_keyword("NULL"):
            self._advance()
            return ast.Literal(None)
        if token.is_keyword("TRUE"):
            self._advance()
            return ast.Literal(True)
        if token.is_keyword("FALSE"):
            self._advance()
            return ast.Literal(False)
        if self._at_punct("?"):
            self._advance()
            parameter = ast.Parameter(index=len(self.parameter_positions))
            self.parameter_positions.append(token.position)
            return parameter
        if token.is_keyword("CAST"):
            return self._parse_cast()
        if token.is_keyword("CASE"):
            return self._parse_case()
        if token.is_keyword(*_AGGREGATE_KEYWORDS) and self._peek(1).value == "(":
            return self._parse_function_call(self._advance().value)
        if self._at_punct("("):
            self._advance()
            if self._at_keyword("SELECT"):
                subquery = self._parse_select()
                self._expect_punct(")")
                return ast.ScalarSubquery(subquery=subquery)
            expr = self._parse_expression()
            self._expect_punct(")")
            return expr
        if token.kind in (TokenKind.IDENTIFIER, TokenKind.QUOTED_IDENTIFIER):
            if self._peek(1).kind is TokenKind.PUNCT and self._peek(1).value == "(":
                name = self._advance().value.upper()
                return self._parse_function_call(name)
            return self._parse_column_ref()
        raise ParseError(f"unexpected {token.value!r} at line {token.line}")

    def _parse_column_ref(self) -> ast.ColumnRef:
        first = self._identifier("column name")
        if self._at_punct(".") and self._peek(1).kind in (
            TokenKind.IDENTIFIER,
            TokenKind.QUOTED_IDENTIFIER,
        ):
            self._advance()
            second = self._identifier("column name")
            return ast.ColumnRef(name=second, table=first)
        return ast.ColumnRef(name=first)

    def _parse_function_call(self, name: str) -> ast.FunctionCall:
        self._expect_punct("(")
        if self._at_operator("*"):
            self._advance()
            self._expect_punct(")")
            return ast.FunctionCall(name=name, args=[], star=True)
        if self._accept_punct(")"):
            return ast.FunctionCall(name=name, args=[])
        distinct = bool(self._accept_keyword("DISTINCT"))
        args = [self._parse_expression()]
        while self._accept_punct(","):
            args.append(self._parse_expression())
        self._expect_punct(")")
        return ast.FunctionCall(name=name, args=args, distinct=distinct)

    def _parse_cast(self) -> ast.CastExpr:
        self._expect_keyword("CAST")
        self._expect_punct("(")
        operand = self._parse_expression()
        self._expect_keyword("AS")
        type_name, type_args = self._parse_type()
        self._expect_punct(")")
        return ast.CastExpr(operand=operand, type_name=type_name, type_args=type_args)

    def _parse_case(self) -> ast.CaseExpr:
        self._expect_keyword("CASE")
        operand = None
        if not self._at_keyword("WHEN"):
            operand = self._parse_expression()
        branches: list[tuple[ast.Expression, ast.Expression]] = []
        while self._accept_keyword("WHEN"):
            when = self._parse_expression()
            self._expect_keyword("THEN")
            then = self._parse_expression()
            branches.append((when, then))
        if not branches:
            token = self._peek()
            raise ParseError(f"CASE without WHEN at line {token.line}")
        else_result = None
        if self._accept_keyword("ELSE"):
            else_result = self._parse_expression()
        self._expect_keyword("END")
        return ast.CaseExpr(operand=operand, branches=branches, else_result=else_result)

    # -- types -------------------------------------------------------------

    def _parse_type(self) -> tuple[str, tuple[Optional[int], Optional[int]]]:
        words = [self._identifier("type name").upper()]
        # Multi-word type names: DOUBLE PRECISION, CHARACTER VARYING, ...
        while self._peek().kind is TokenKind.IDENTIFIER and words[-1] in (
            "DOUBLE",
            "CHARACTER",
            "CHAR",
            "LONG",
        ):
            follower = self._peek().value.upper()
            if follower in ("PRECISION", "VARYING"):
                self._advance()
                words.append(follower)
            else:
                break
        name = " ".join(words)
        args: tuple[Optional[int], Optional[int]] = (None, None)
        if self._accept_punct("("):
            first = self._integer("expected type length")
            second = None
            if self._accept_punct(","):
                second = self._integer("expected type scale")
            self._expect_punct(")")
            args = (first, second)
        return name, args

    # -- DDL ---------------------------------------------------------------

    def _parse_create(self) -> ast.Statement:
        self._expect_keyword("CREATE")
        unique = bool(self._accept_keyword("UNIQUE"))
        clustered = False
        token = self._peek()
        if token.kind is TokenKind.IDENTIFIER and token.value.upper() in (
            "CLUSTERED",
            "NONCLUSTERED",
        ):
            clustered = token.value.upper() == "CLUSTERED"
            self._advance()
        if self._accept_keyword("INDEX"):
            return self._parse_create_index(unique=unique, clustered=clustered)
        if unique or clustered:
            raise ParseError("UNIQUE/CLUSTERED only apply to CREATE INDEX")
        if self._accept_keyword("TABLE"):
            return self._parse_create_table()
        if self._accept_keyword("VIEW"):
            return self._parse_create_view()
        token = self._peek()
        raise ParseError(f"unsupported CREATE {token.value!r} at line {token.line}")

    def _parse_create_index(self, unique: bool, clustered: bool) -> ast.CreateIndex:
        name = self._identifier("index name")
        self._expect_keyword("ON")
        table = self._identifier("table name")
        self._expect_punct("(")
        columns = [self._identifier("column name")]
        while self._accept_punct(","):
            columns.append(self._identifier("column name"))
        self._expect_punct(")")
        return ast.CreateIndex(
            name=name, table=table, columns=columns, unique=unique, clustered=clustered
        )

    def _parse_create_table(self) -> ast.CreateTable:
        name = self._identifier("table name")
        self._expect_punct("(")
        columns: list[ast.ColumnSpec] = []
        constraints: list[ast.TableConstraint] = []
        while True:
            if self._at_keyword("PRIMARY", "UNIQUE", "CHECK", "CONSTRAINT") or self._at_keyword(
                "FOREIGN"
            ):
                constraints.append(self._parse_table_constraint())
            else:
                columns.append(self._parse_column_spec())
            if not self._accept_punct(","):
                break
        self._expect_punct(")")
        return ast.CreateTable(name=name, columns=columns, constraints=constraints)

    def _parse_table_constraint(self) -> ast.TableConstraint:
        name = None
        if self._accept_keyword("CONSTRAINT"):
            name = self._identifier("constraint name")
        if self._accept_keyword("PRIMARY"):
            self._expect_keyword("KEY")
            return ast.TableConstraint(
                kind="PRIMARY KEY", columns=self._parse_column_name_list(), name=name
            )
        if self._accept_keyword("UNIQUE"):
            return ast.TableConstraint(
                kind="UNIQUE", columns=self._parse_column_name_list(), name=name
            )
        if self._accept_keyword("CHECK"):
            self._expect_punct("(")
            expr = self._parse_expression()
            self._expect_punct(")")
            return ast.TableConstraint(kind="CHECK", check=expr, name=name)
        token = self._peek()
        if token.kind is TokenKind.KEYWORD and token.value == "FOREIGN":
            raise ParseError("FOREIGN KEY table constraints are not supported")
        raise ParseError(f"unsupported table constraint at line {token.line}")

    def _parse_column_name_list(self) -> list[str]:
        self._expect_punct("(")
        columns = [self._identifier("column name")]
        while self._accept_punct(","):
            columns.append(self._identifier("column name"))
        self._expect_punct(")")
        return columns

    def _parse_column_spec(self) -> ast.ColumnSpec:
        name = self._identifier("column name")
        type_name, type_args = self._parse_type()
        spec = ast.ColumnSpec(name=name, type_name=type_name, type_args=type_args)
        while True:
            if self._accept_keyword("NOT"):
                self._expect_keyword("NULL")
                spec.not_null = True
            elif self._accept_keyword("NULL"):
                pass
            elif self._accept_keyword("PRIMARY"):
                self._expect_keyword("KEY")
                spec.primary_key = True
                spec.not_null = True
            elif self._accept_keyword("UNIQUE"):
                spec.unique = True
            elif self._accept_keyword("DEFAULT"):
                spec.default = self._parse_unary()
            elif self._accept_keyword("CHECK"):
                self._expect_punct("(")
                spec.check = self._parse_expression()
                self._expect_punct(")")
            elif self._accept_keyword("REFERENCES"):
                table = self._identifier("referenced table")
                column = None
                if self._accept_punct("("):
                    column = self._identifier("referenced column")
                    self._expect_punct(")")
                spec.references = (table, column)
            else:
                return spec

    def _parse_create_view(self) -> ast.CreateView:
        name = self._identifier("view name")
        column_names = None
        if self._at_punct("("):
            column_names = self._parse_column_name_list()
        self._expect_keyword("AS")
        query = self._parse_select()
        return ast.CreateView(name=name, query=query, column_names=column_names)

    def _parse_drop(self) -> ast.Statement:
        self._expect_keyword("DROP")
        if self._accept_keyword("TABLE"):
            return ast.DropTable(name=self._identifier("table name"))
        if self._accept_keyword("VIEW"):
            return ast.DropView(name=self._identifier("view name"))
        if self._accept_keyword("INDEX"):
            return ast.DropIndex(name=self._identifier("index name"))
        token = self._peek()
        raise ParseError(f"unsupported DROP {token.value!r} at line {token.line}")

    def _parse_alter(self) -> ast.Statement:
        self._expect_keyword("ALTER")
        self._expect_keyword("TABLE")
        table = self._identifier("table name")
        self._expect_keyword("ADD")
        self._accept_keyword("COLUMN")
        column = self._parse_column_spec()
        return ast.AlterTableAddColumn(table=table, column=column)

    # -- DML ---------------------------------------------------------------

    def _parse_insert(self) -> ast.Insert:
        self._expect_keyword("INSERT")
        self._expect_keyword("INTO")
        table = self._identifier("table name")
        columns = None
        if self._at_punct("("):
            columns = self._parse_column_name_list()
        if self._accept_keyword("VALUES"):
            rows = [self._parse_values_row()]
            while self._accept_punct(","):
                rows.append(self._parse_values_row())
            return ast.Insert(table=table, columns=columns, rows=rows)
        if self._at_keyword("SELECT") or self._at_punct("("):
            return ast.Insert(table=table, columns=columns, query=self._parse_select())
        token = self._peek()
        raise ParseError(f"expected VALUES or SELECT at line {token.line}")

    def _parse_values_row(self) -> list[ast.Expression]:
        self._expect_punct("(")
        row = [self._parse_expression()]
        while self._accept_punct(","):
            row.append(self._parse_expression())
        self._expect_punct(")")
        return row

    def _parse_update(self) -> ast.Update:
        self._expect_keyword("UPDATE")
        table = self._identifier("table name")
        self._expect_keyword("SET")
        assignments = [self._parse_assignment()]
        while self._accept_punct(","):
            assignments.append(self._parse_assignment())
        where = None
        if self._accept_keyword("WHERE"):
            where = self._parse_expression()
        return ast.Update(table=table, assignments=assignments, where=where)

    def _parse_assignment(self) -> tuple[str, ast.Expression]:
        column = self._identifier("column name")
        token = self._peek()
        if not (token.kind is TokenKind.OPERATOR and token.value == "="):
            raise ParseError(f"expected '=' at line {token.line}")
        self._advance()
        return column, self._parse_expression()

    def _parse_delete(self) -> ast.Delete:
        self._expect_keyword("DELETE")
        self._expect_keyword("FROM")
        table = self._identifier("table name")
        where = None
        if self._accept_keyword("WHERE"):
            where = self._parse_expression()
        return ast.Delete(table=table, where=where)


def number_value(text: str) -> Union[int, float, Decimal]:
    """The value of a NUMBER token's text: a float with an exponent, an
    exact Decimal with a point, an int otherwise."""
    if "e" in text or "E" in text:
        return float(text)
    if "." in text:
        return Decimal(text)
    return int(text)


def parse_statement(source: Source) -> ast.Statement:
    """Parse exactly one statement (trailing semicolon allowed)."""
    return Parser(source).parse_only_statement()


def parse_prepared(source: Source) -> tuple[ast.Statement, tuple[int, ...]]:
    """Parse exactly one statement, returning it with the text offset
    of each ``?`` placeholder in statement order."""
    parser = Parser(source)
    return parser.parse_only_statement(), tuple(parser.parameter_positions)


def parse_script(source: Source) -> list[ast.Statement]:
    """Parse a semicolon-separated script."""
    return Parser(source).parse_script()
