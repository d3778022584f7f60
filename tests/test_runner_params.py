"""Tests for typed parameter spaces: coercion, validation, inference."""

import pytest

from repro.runner.params import (
    PARAM_KINDS,
    ParamSpace,
    ParamSpec,
    ParamValidationError,
)


class TestParamSpecCoercion:
    def test_int_coercion(self):
        spec = ParamSpec("n", kind="int", default=1)
        assert spec.coerce(3) == 3
        assert spec.coerce(3.0) == 3
        assert spec.coerce("3") == 3
        assert spec.coerce("3.0") == 3
        with pytest.raises(ParamValidationError):
            spec.coerce(3.5)
        with pytest.raises(ParamValidationError):
            spec.coerce("x")
        with pytest.raises(ParamValidationError):
            spec.coerce(True)

    def test_float_coercion_collapses_spellings(self):
        spec = ParamSpec("rate", kind="float", default=24.0)
        # canonicalize() collapses integral floats, so every spelling of 96
        # produces the same canonical value — and therefore the same key.
        assert spec.coerce("96") == spec.coerce(96) == spec.coerce(96.0) == 96
        assert spec.coerce("1.5") == 1.5
        with pytest.raises(ParamValidationError):
            spec.coerce([1])
        with pytest.raises(ParamValidationError):
            spec.coerce(False)

    def test_bool_coercion(self):
        spec = ParamSpec("flag", kind="bool", default=True)
        assert spec.coerce(False) is False
        assert spec.coerce("true") is True
        assert spec.coerce("False") is False
        # CLI `-p flag=1` arrives as the int 1; JSON files carry numbers.
        assert spec.coerce(1) is True
        assert spec.coerce(0) is False
        with pytest.raises(ParamValidationError):
            spec.coerce(2)
        with pytest.raises(ParamValidationError):
            spec.coerce("maybe")

    def test_str_rejects_non_strings(self):
        spec = ParamSpec("mode", kind="str", default="a")
        assert spec.coerce("b") == "b"
        with pytest.raises(ParamValidationError):
            spec.coerce(1)

    def test_list_coercion(self):
        spec = ParamSpec("split", kind="list[float]", default=[0.5, 0.5])
        assert spec.coerce([1, "2.5"]) == [1, 2.5]
        assert spec.coerce((0.25, 0.75)) == [0.25, 0.75]
        with pytest.raises(ParamValidationError):
            spec.coerce("0.5,0.5")
        with pytest.raises(ParamValidationError):
            spec.coerce([0.5, "x"])

    def test_json_kind_canonicalizes(self):
        spec = ParamSpec("blob", kind="json", default=None, nullable=True)
        assert spec.coerce({"b": 1, "a": (1, 2)}) == {"a": [1, 2], "b": 1}
        with pytest.raises(ParamValidationError):
            spec.coerce(object())

    def test_nullable(self):
        spec = ParamSpec("cap", kind="int", default=None, nullable=True)
        assert spec.coerce(None) is None
        assert spec.coerce(5) == 5
        strict = ParamSpec("n", kind="int", default=1)
        with pytest.raises(ParamValidationError, match="may not be None"):
            strict.coerce(None)

    def test_none_default_requires_nullable(self):
        with pytest.raises(ValueError, match="nullable"):
            ParamSpec("n", kind="int", default=None)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown kind"):
            ParamSpec("n", kind="complex", default=1)
        assert "int" in PARAM_KINDS


class TestParamSpecConstraints:
    def test_choices(self):
        spec = ParamSpec("mode", kind="str", default="a", choices=("a", "b"))
        assert spec.coerce("b") == "b"
        with pytest.raises(ParamValidationError, match="not one of"):
            spec.coerce("c")

    def test_numeric_choices_canonicalized(self):
        spec = ParamSpec("rate", kind="float", default=12.0, choices=(12.0, 24.0))
        # "24" coerces to 24 which must match the canonicalized choice 24.0.
        assert spec.coerce("24") == 24

    def test_bounds(self):
        spec = ParamSpec("rate", kind="float", default=24.0, minimum=1.0, maximum=100.0)
        assert spec.coerce(1.0) == 1
        assert spec.coerce(100) == 100
        with pytest.raises(ParamValidationError, match="below the minimum"):
            spec.coerce(0.5)
        with pytest.raises(ParamValidationError, match="exceeds the maximum"):
            spec.coerce(101)

    def test_validator(self):
        def odd_only(value):
            if value % 2 == 0:
                raise ValueError("must be odd")

        spec = ParamSpec("n", kind="int", default=1, validator=odd_only)
        assert spec.coerce(3) == 3
        with pytest.raises(ParamValidationError, match="must be odd"):
            spec.coerce(4)

    def test_describe_mentions_type_unit_choices(self):
        spec = ParamSpec(
            "rate", kind="float", default=24.0, unit="Mbit/s", choices=(12.0, 24.0)
        )
        text = spec.describe()
        assert "float" in text and "Mbit/s" in text and "{12,24}" in text


class TestParamSpace:
    def _space(self):
        return ParamSpace(
            ParamSpec("rate", kind="float", default=24.0, unit="Mbit/s"),
            ParamSpec("mode", kind="str", default="a", choices=("a", "b")),
            ParamSpec("cap", kind="int", default=None, nullable=True),
        )

    def test_defaults(self):
        assert self._space().defaults == {"rate": 24, "mode": "a", "cap": None}

    def test_resolve_merges_coerces_and_canonicalizes(self):
        space = self._space()
        assert space.resolve({"rate": "96"}) == {"rate": 96, "mode": "a", "cap": None}
        assert space.resolve() == space.defaults

    def test_resolve_rejects_unknown_keys(self):
        with pytest.raises(KeyError, match="unknown parameter"):
            self._space().resolve({"zzz": 1})

    def test_resolve_context_in_errors(self):
        with pytest.raises(KeyError, match="scenario 'x'"):
            self._space().resolve({"zzz": 1}, context="scenario 'x'")

    def test_duplicate_specs_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            ParamSpace(
                ParamSpec("a", kind="int", default=1),
                ParamSpec("a", kind="int", default=2),
            )

    def test_with_defaults(self):
        space = self._space().with_defaults(rate="48", mode="b")
        assert space.defaults == {"rate": 48, "mode": "b", "cap": None}
        # The original space is untouched.
        assert self._space().defaults["rate"] == 24
        with pytest.raises(KeyError, match="unknown parameter"):
            self._space().with_defaults(zzz=1)
        # Overridden defaults are validated like any value.
        with pytest.raises(ValueError):
            self._space().with_defaults(mode="zzz")

    def test_describe_rows(self):
        rows = self._space().describe_rows()
        assert [r[0] for r in rows] == ["rate", "mode", "cap"]
        assert rows[2][2] == "None"

    def test_required_has_no_default_and_must_be_supplied(self):
        space = ParamSpace(
            ParamSpec("points", kind="json", required=True),
            ParamSpec("cap", kind="int", default=5),
        )
        assert space.resolve({"points": [[1, 1.0]]}) == {"points": [[1, 1]], "cap": 5}
        with pytest.raises(ParamValidationError, match="'points' is required for dist 'x'"):
            space.resolve({"cap": 1}, context="dist 'x'")
        with pytest.raises(ParamValidationError, match="may not be None"):
            space.resolve({"points": None})
        assert space.describe_rows()[0][1:3] == ("json required", "-")
        with pytest.raises(ValueError, match="takes no default"):
            ParamSpec("points", kind="json", required=True, default=[])


class TestReviewRegressions:
    def test_big_int_strings_keep_exact_precision(self):
        spec = ParamSpec("n", kind="int", default=1)
        big = 10000000000000000001  # beyond 2**53: float round-trip corrupts it
        assert spec.coerce(str(big)) == big

    def test_non_finite_values_raise_param_validation_error(self):
        spec = ParamSpec("rate", kind="float", default=1.0)
        with pytest.raises(ParamValidationError, match="rate"):
            spec.coerce(float("inf"))
        with pytest.raises(ParamValidationError, match="rate"):
            spec.coerce(float("nan"))

    def test_declaration_time_default_validation(self):
        # A typo'd default fails at registration, not on every resolve.
        with pytest.raises(ParamValidationError, match="not one of"):
            ParamSpec("mode", kind="str", default="bundlr_sfq", choices=("bundler_sfq",))
        with pytest.raises(ParamValidationError, match="below the minimum"):
            ParamSpec("rate", kind="float", default=0.5, minimum=1.0)
        # Coercible defaults are normalized in place.
        assert ParamSpec("n", kind="int", default=3.0).default == 3
