"""Closed-form and asymptotic bound evaluators."""

import json
import math

import pytest

from oracles import rate_function_acosh
from ulamcode.bounds import (
    CodeParams,
    asymptotic_lower_log,
    bound_report,
    gv_lower,
    kim_rate_log,
    rate_function,
    singleton_upper,
)


class TestCodeParams:
    def test_valid(self):
        p = CodeParams(5, 3)
        assert p.delta == 2

    @pytest.mark.parametrize("n,d", [(1, 1), (5, 0), (5, 5), (5, 6), (2, 2)])
    def test_invalid(self, n, d):
        with pytest.raises(ValueError):
            CodeParams(n, d)


class TestSingleton:
    def test_worked_example(self):
        # The (5,3) integer program improves on this value 6.
        assert singleton_upper(CodeParams(5, 3)) == 6

    def test_d1_gives_full_group(self):
        for n in range(2, 9):
            assert singleton_upper(CodeParams(n, 1)) == math.factorial(n)

    def test_7_4(self):
        assert singleton_upper(CodeParams(7, 4)) == 24

    def test_ratio_identity(self):
        # (n-d+1)! * (n-d+1)-step: singleton(n,d) * (n-d+1) wrong way round:
        # singleton(n, d-1) = (n-d+2)! = (n-d+2) * singleton(n, d).
        for n in range(3, 12):
            for d in range(2, n):
                assert singleton_upper(CodeParams(n, d)) * (n - d + 2) == (
                    singleton_upper(CodeParams(n, d - 1))
                )


class TestGv:
    def test_d1(self):
        for n in range(2, 9):
            assert gv_lower(CodeParams(n, 1)) == math.factorial(n)

    def test_examples(self):
        assert gv_lower(CodeParams(6, 3)) == 2  # ceil(24/15)
        assert gv_lower(CodeParams(5, 3)) == 1  # ceil(6/10); raw formula value

    def test_never_exceeds_singleton(self):
        for n in range(2, 11):
            for d in range(1, n):
                p = CodeParams(n, d)
                assert gv_lower(p) <= singleton_upper(p)


class TestAsymptoticForm:
    def test_zero_at_e(self):
        assert asymptotic_lower_log(math.e, 100) == pytest.approx(0.0, abs=1e-12)

    def test_c1_n100(self):
        assert asymptotic_lower_log(1.0, 100) == -20.0

    @pytest.mark.parametrize("c, n, message", [
        (0.0, 100, "c must be positive"),
        (-1.0, 100, "c must be positive"),
        (2.0, 0, "n must be >= 1"),
    ])
    def test_domain(self, c, n, message):
        with pytest.raises(ValueError, match=message):
            asymptotic_lower_log(c, n)

    def test_positive_increasing_past_e(self):
        for c in (3.0, 5.0):
            vals = [asymptotic_lower_log(c, n) for n in (100, 400, 1600)]
            assert all(v > 0 for v in vals)
            assert vals[0] < vals[1] < vals[2]

    def test_limit_approach_with_exact_factorials(self):
        # a_n = ln((c sqrt(n))! / C(n, c sqrt(n))) / sqrt(n) approaches
        # 2c(ln c - 1); the error shrinks along n = 10^2, 10^4, 10^6.
        c = 3
        target = 2 * c * (math.log(c) - 1)
        errors = []
        for n in (10**2, 10**4, 10**6):
            k = c * math.isqrt(n)
            a_n = (math.log(math.factorial(k)) - math.log(math.comb(n, k))) / (
                math.sqrt(n)
            )
            errors.append(abs(a_n - target))
        assert errors[0] > errors[1] > errors[2]


class TestRateFunction:
    def test_zero_at_two(self):
        assert abs(rate_function(2.0)) <= 1e-12

    def test_domain(self):
        with pytest.raises(ValueError):
            rate_function(1.999)
        with pytest.raises(ValueError):
            rate_function_acosh(1.0)

    def test_both_forms_agree(self):
        c = 2.0
        while c <= 50.0:
            assert rate_function(c) == pytest.approx(
                rate_function_acosh(c), abs=1e-12, rel=1e-12
            )
            c += 0.25

    def test_value_at_three(self):
        expect = 2 * 3 * math.log(1.5 + math.sqrt(1.25)) - 2 * math.sqrt(5)
        assert rate_function(3.0) == pytest.approx(expect, rel=1e-14)

    def test_dominates_asymptotic_rate(self):
        # I(c) > 2c(ln c - 1) on a fine grid above 2.
        c = 2.1
        while c <= 10.0:
            assert rate_function(c) > 2 * c * (math.log(c) - 1)
            c += 0.1


class TestKimTail:
    def test_rate_log_domain_and_sign(self):
        with pytest.raises(ValueError):
            kim_rate_log(2.0, 100)
        with pytest.raises(ValueError):
            kim_rate_log(2.2, 100)
        assert kim_rate_log(2.05, 10**6) > 0


class TestBoundReport:
    def test_finalize_and_fields(self):
        report = bound_report(CodeParams(5, 3))
        assert report.singleton_upper == 6
        assert report.gv_lower == 1
        assert report.best_lower == 2  # trivial {identity, reversal} code
        assert report.best_upper == 6
        data = json.loads(json.dumps(report.to_dict()))
        assert data["params"] == {"n": 5, "d": 3}
        for key in (
            "singleton_upper",
            "gv_lower",
            "ip_upper",
            "sphere_lower",
            "sphere_upper",
            "best_lower",
            "best_upper",
        ):
            assert key in data

    def test_invariants_over_grid(self):
        for n in range(2, 11):
            for d in range(1, n):
                report = bound_report(CodeParams(n, d))
                assert 1 <= report.best_lower <= report.best_upper
                assert report.gv_lower <= report.singleton_upper

    def test_text_is_aligned(self):
        text = bound_report(CodeParams(6, 3)).to_text()
        lines = text.splitlines()
        assert any(line.startswith("singleton_upper") for line in lines)
        assert any(line.endswith("24") for line in lines)
