import re

import pytest

from pillm.dsl import (
    MAX_BINDINGS,
    BinOp,
    Call,
    DslSyntaxError,
    DslTypeError,
    FeatureRef,
    Num,
    RuleAst,
    TypedRule,
    VarRef,
    children,
    compile_rule,
    format_rule,
    parse,
    typecheck,
    walk,
)

DIAG_RE = re.compile(r"^\d+:\d+: .+")


def check_diag(exc_info) -> None:
    assert DIAG_RE.match(str(exc_info.value)), f"bad diagnostic: {exc_info.value}"


class TestParseBasics:
    def test_single_comparison(self):
        ast = parse("return $zone_temp > 30")
        assert ast.bindings == ()
        assert isinstance(ast.result, BinOp)
        assert ast.result.op == ">"
        assert ast.result.left == FeatureRef("zone_temp")

    def test_binding_program(self):
        ast = parse("d = delta($zone_temp, 5)\nreturn abs(d) > 2 and $fan_status == 1")
        assert len(ast.bindings) == 1
        name, expr = ast.bindings[0]
        assert name == "d"
        assert isinstance(expr, Call) and expr.name == "delta"

    def test_semicolon_terminator(self):
        ast = parse("a = 1 + 2; return a > 2")
        assert len(ast.bindings) == 1

    def test_comments_and_blank_lines(self):
        src = "# detector\n\na = $x + 1  # shift\n\nreturn a > 0  # fire\n"
        ast = parse(src)
        assert len(ast.bindings) == 1

    def test_newlines_inside_parens(self):
        ast = parse("return (\n  $x + 1\n  > 2\n)")
        assert isinstance(ast.result, BinOp)

    def test_number_formats(self):
        for text in ("return 1 > 0", "return 1.5 > 0", "return 2e3 > 0", "return 1.25e-2 > 0"):
            parse(text)

    def test_structural_equality_ignores_positions(self):
        assert parse("return $x>30") == parse("return   $x  >  30")

    def test_node_count_is_tracked(self):
        ast = parse("return $x + 1 > 2")
        # FeatureRef, Num, BinOp(+), Num, BinOp(>)
        assert ast.node_count == 5

    def test_features_are_the_feature_names_read(self):
        ast = parse("x = mean($a, 3) + $b\nreturn clip(x, $a, 1) > 2")
        assert ast.features == frozenset({"a", "b"})
        assert parse("x = 1\nreturn x > 0").features == frozenset()

    def test_features_take_no_part_in_equality(self):
        ast = parse("return $x > 1")
        twin = RuleAst(ast.bindings, ast.result)
        object.__setattr__(twin, "features", frozenset({"other"}))
        assert twin == ast and hash(twin) == hash(ast)

    def test_walk_is_preorder_left_to_right(self):
        ast = parse("d = abs($a - lag($b, 2))\nreturn not (d > 1)")
        kinds = [type(n).__name__ for n in walk(*ast.roots)]
        assert kinds == [
            "Call", "BinOp", "FeatureRef", "Call", "FeatureRef", "Num",
            "Unary", "BinOp", "VarRef", "Num",
        ]
        assert len(kinds) == ast.node_count

    def test_children_rejects_non_nodes(self):
        with pytest.raises(TypeError, match="not an expression node"):
            children("$x")


class TestParseErrors:
    def test_unknown_builtin(self):
        with pytest.raises(DslSyntaxError) as exc:
            parse("return median($x, 3)")
        check_diag(exc)

    def test_wrong_arity(self):
        with pytest.raises(DslSyntaxError):
            parse("return mean($x)")
        with pytest.raises(DslSyntaxError):
            parse("return abs($x, 2)")

    def test_window_must_be_literal(self):
        with pytest.raises(DslSyntaxError, match="literal"):
            parse("return mean($x, $w)")
        with pytest.raises(DslSyntaxError):
            parse("return mean($x, 2 + 1)")

    def test_window_bounds(self):
        parse("return mean($x, 1)")
        parse("return mean($x, 1024)")
        with pytest.raises(DslSyntaxError):
            parse("return mean($x, 0)")
        with pytest.raises(DslSyntaxError):
            parse("return mean($x, 1025)")
        with pytest.raises(DslSyntaxError):
            parse("return mean($x, 3.5)")

    def test_number_past_float_range(self):
        for src, col in (
            ("return $x > 1e999", 13),
            ("return mean($x, 1e999) > 0", 17),
            ("return ewma($x, 2e308) > 0", 17),
        ):
            with pytest.raises(DslSyntaxError, match=r"too large") as exc:
                parse(src)
            assert (exc.value.line, exc.value.col) == (1, col), src
        assert parse("return $x > 1.7e308").result.right == Num(1.7e308)

    def test_ewma_alpha_bounds(self):
        parse("return ewma($x, 1)")
        parse("return ewma($x, 0.3)")
        with pytest.raises(DslSyntaxError):
            parse("return ewma($x, 0)")
        with pytest.raises(DslSyntaxError):
            parse("return ewma($x, 1.5)")

    def test_unbound_identifier(self):
        with pytest.raises(DslSyntaxError, match="unknown identifier"):
            parse("return q > 1")

    def test_use_before_binding(self):
        with pytest.raises(DslSyntaxError):
            parse("a = b + 1\nb = 2\nreturn a > 0")

    def test_rebinding_rejected(self):
        with pytest.raises(DslSyntaxError, match="rebind|already"):
            parse("a = 1\na = 2\nreturn a > 0")

    def test_missing_return(self):
        with pytest.raises(DslSyntaxError):
            parse("a = 1")

    def test_trailing_input(self):
        with pytest.raises(DslSyntaxError):
            parse("return 1 > 0\nreturn 2 > 0")

    def test_bad_character(self):
        with pytest.raises(DslSyntaxError) as exc:
            parse("return $x @ 2")
        check_diag(exc)

    def test_unbalanced_parens(self):
        with pytest.raises(DslSyntaxError):
            parse("return ($x > 1")

    def test_source_size_cap(self):
        big = "return 1 > 0" + " " * (16 * 1024)
        with pytest.raises(DslSyntaxError, match="16"):
            parse(big)

    def test_node_cap(self):
        src = "return " + " + ".join(["1"] * 300) + " > 0"
        with pytest.raises(DslSyntaxError, match="node"):
            parse(src)

    def test_binding_cap(self):
        lines = [f"v{i} = {i}" for i in range(MAX_BINDINGS + 1)]
        lines.append("return v0 > 0")
        with pytest.raises(DslSyntaxError, match="binding"):
            parse("\n".join(lines))

    def test_binding_cap_is_exact(self):
        def program(count: int) -> str:
            return "".join(f"v{i} = {i}\n" for i in range(count)) + "return v0 > 0"

        assert len(parse(program(MAX_BINDINGS)).bindings) == MAX_BINDINGS == 32
        with pytest.raises(DslSyntaxError) as exc:
            parse(program(MAX_BINDINGS + 1))
        assert str(exc.value) == "33:1: too many bindings (cap 32)"

    def test_diagnostics_carry_line_and_column(self):
        with pytest.raises(DslSyntaxError) as exc:
            parse("a = 1\nreturn a >\n")
        check_diag(exc)
        assert str(exc.value).startswith("2:")


class TestTypecheck:
    def test_boolean_result(self):
        rule = typecheck(parse("return $zone_temp > 30"), {"zone_temp"})
        assert isinstance(rule, TypedRule)
        assert rule.ast.features == frozenset({"zone_temp"})

    def test_numeric_result_accepted(self):
        rule = typecheck(parse("return zscore($x, 8)"), {"x"})
        assert rule.ast.max_window == 8

    def test_unknown_feature(self):
        with pytest.raises(DslTypeError, match="ghost"):
            typecheck(parse("return $ghost > 1"), {"zone_temp"})

    @pytest.mark.parametrize(
        ("src", "first_error"),
        [
            ("return (1 and 2) > $ghost", "'and' requires"),
            ("return $ghost > (1 and 2)", "unknown feature \\$ghost"),
        ],
    )
    def test_first_error_in_source_order(self, src, first_error):
        with pytest.raises(DslTypeError, match=first_error):
            typecheck(parse(src), {"x"})

    def test_boolean_in_arithmetic(self):
        with pytest.raises(DslTypeError):
            typecheck(parse("return ($a > 1) + 2"), {"a"})

    def test_numeric_in_logic(self):
        with pytest.raises(DslTypeError):
            typecheck(parse("return $a and $b"), {"a", "b"})
        with pytest.raises(DslTypeError):
            typecheck(parse("return not $a"), {"a"})

    def test_comparison_needs_numeric(self):
        with pytest.raises(DslTypeError):
            typecheck(parse("return ($a > 1) == ($b > 1)"), {"a", "b"})

    def test_division_by_literal_zero(self):
        with pytest.raises(DslTypeError, match="0"):
            typecheck(parse("return $a / 0"), {"a"})

    def test_bindings_typed_through(self):
        typecheck(parse("hot = $t > 30\nreturn hot or $t > 40"), {"t"})
        with pytest.raises(DslTypeError, match="'or' requires"):
            typecheck(parse("hot = $t + 30\nreturn hot or $t > 40"), {"t"})

    def test_max_window_across_bindings(self):
        rule = typecheck(parse("a = mean($x, 4)\nreturn a - rmin($x, 100) > 0"), {"x"})
        assert rule.ast.max_window == 100


class TestFormat:
    def test_canonical_spacing(self):
        assert format_rule(parse("return $x>30")) == "return $x > 30"

    def test_binding_then_return(self):
        text = format_rule(parse("d = delta($x, 5)\nreturn abs(d) > 2"))
        assert text == "d = delta($x, 5)\nreturn abs(d) > 2"

    def test_parentheses_only_where_needed(self):
        src = "return ($a + 1) * 2 > 3 and not ($b < 1 or $c == 2)"
        out = format_rule(parse(src))
        assert parse(out) == parse(src)

    @pytest.mark.parametrize(
        "src",
        [
            "return -$x + 1 > -2",
            "return not ($a > 1) and $b < 2 or $c == 3",
            "return 2 - (3 - 4) > 0",
            "return 2 / (3 * $x) < 1",
            "return clip(ewma($x, 0.25), 0, 10) >= 5",
            "a = lag($x, 3)\nb = a * 2\nreturn b != $x",
        ],
    )
    def test_round_trip(self, src):
        assert parse(format_rule(parse(src))) == parse(src)

    def test_numbers_render_minimally(self):
        assert format_rule(parse("return $x > 30.0")) == "return $x > 30"
        assert format_rule(parse("return $x > 0.5")) == "return $x > 0.5"

    def test_largest_numbers_round_trip(self):
        # Past the float range a literal is a syntax error, so no `inf` reaches the formatter.
        for src in ("return $x > 1e308", "return $x > 1.7976931348623157e308"):
            assert parse(format_rule(parse(src))) == parse(src)
        with pytest.raises(DslSyntaxError, match="too large"):
            format_rule(parse("return $x > 1e999"))


class TestCompileRule:
    def test_chains_parse_and_typecheck(self):
        rule = compile_rule("return $x > 1", {"x"})
        assert isinstance(rule.ast, RuleAst)

    def test_var_refs_resolved(self):
        ast = parse("a = $x + 1\nreturn a > 0")
        _, expr = ast.bindings[0]
        assert isinstance(ast.result.left, VarRef)
        assert isinstance(expr.left, FeatureRef)
        assert isinstance(expr.right, Num)
