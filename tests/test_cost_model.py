"""Cost-function fixtures (frozen from an independent REPL evaluation) and limits."""

import pytest

from tradelab.cost_model import (
    ImpactParams,
    RateCoefficients,
    RiskParams,
    impact_total,
    mi_dissipation,
    mi_rate,
    mi_schedule,
    risk_rate,
    risk_schedule,
    same_side_ratio,
    sample_cost_surface,
)

REL = 1e-12


def params(**overrides):
    base = dict(scale=0.5, size_exponent=0.5, vol_exponent=1.0, temp_fraction=0.8,
                adv=1e6, sigma=0.25, price=50.0, order_size=1e5)
    base.update(overrides)
    return ImpactParams(**base)


@pytest.mark.parametrize("build,message", [
    (lambda: params(adv=0), "adv must be positive"),
    (lambda: params(temp_fraction=1.5), "temp_fraction must lie in [0, 1]"),
    (lambda: params(order_size=-1), "order_size must be >= 0"),
    (lambda: params(sigma=-0.1), "sigma must be >= 0"),
    (lambda: RiskParams(price=50.0, order_size=1e5, sigma=0.25, horizon_fraction=0.0),
     "horizon_fraction must be positive"),
    (lambda: RiskParams(price=50.0, order_size=1e5, sigma=-0.25, horizon_fraction=0.1),
     "sigma and order_size must be >= 0"),
], ids=["adv", "temp_fraction", "order_size", "sigma", "horizon", "risk_sigma"])
def test_bad_parameters_raise_when_built(build, message):
    # checked once, at construction; the cost functions trust their inputs
    with pytest.raises(ValueError) as exc:
        build()
    assert str(exc.value) == message


class TestImpactTotal:
    # 0.5 * (1e5/1e6)^0.5 * 0.25^1 * 1e5 * 50, evaluated independently
    FROZEN = 197642.35376052372

    def test_frozen_fixture(self):
        assert impact_total(params()) == pytest.approx(self.FROZEN, rel=REL)

    def test_zero_order(self):
        assert impact_total(params(order_size=0)) == 0.0

    def test_linear_degenerate(self):
        p = params(size_exponent=0.0, vol_exponent=0.0)
        assert impact_total(p) == pytest.approx(0.5 * 1e5 * 50.0, rel=REL)

    def test_homogeneity_in_order_size(self):
        base = impact_total(params())
        for k in (0.5, 2.0, 3.7):
            scaled = impact_total(params(order_size=k * 1e5))
            assert scaled / base == pytest.approx(k ** 1.5, rel=1e-9)

    def test_rejects_bad_adv(self):
        with pytest.raises(ValueError):
            impact_total(params(adv=0))


class TestMiSchedule:
    # single period x1 = X, v1 = X, b1 = 0.8: (2/3)*b1*I + 0.2*I/X
    FROZEN = 105409.6506236535

    def test_single_period_fixture(self):
        total = impact_total(params())
        got = mi_schedule([1e5], [1e5], 0.8, total, 1e5)
        assert got == pytest.approx(self.FROZEN, rel=REL)

    def test_no_trading_leaves_permanent_only(self):
        total = impact_total(params())
        got = mi_schedule([0.0, 0.0], [100.0, 100.0], 0.8, total, 1e5)
        assert got == pytest.approx(0.2 * total / 1e5, rel=REL)

    def test_pure_temporary(self):
        total = impact_total(params())
        got = mi_schedule([1e5], [1e5], 1.0, total, 1e5)
        assert got == pytest.approx((2.0 / 3.0) * total, rel=REL)

    def test_degenerate_period_raises(self):
        with pytest.raises(ValueError):
            mi_schedule([10.0], [-20.0], 0.8, 100.0, 100.0)


class TestMiRate:
    def test_alpha_zero_is_permanent_floor(self):
        c = RateCoefficients.from_params(params())
        assert mi_rate(0.0, c) == c.perm_coeff

    def test_alpha_one(self):
        c = RateCoefficients.from_params(params())
        assert mi_rate(1.0, c) == pytest.approx(c.temp_coeff + c.perm_coeff, rel=REL)

    def test_sqrt_scaling(self):
        c = RateCoefficients.from_params(params())
        lo = mi_rate(0.1, c) - c.perm_coeff
        hi = mi_rate(0.4, c) - c.perm_coeff
        assert hi == pytest.approx(2.0 * lo, rel=1e-9)

    def test_coefficient_identity(self):
        c = RateCoefficients.from_params(params())
        assert c.perm_coeff == pytest.approx(0.2 * c.total_impact / 1e5, rel=REL)
        assert c.temp_coeff == pytest.approx((2.0 / 3.0) * 0.8 * c.total_impact / 1e5,
                                             rel=REL)

    def test_monotone_concave(self):
        c = RateCoefficients.from_params(params())
        grid = [0.01 * i for i in range(1, 101)]
        vals = [mi_rate(a, c) for a in grid]
        assert all(b >= a for a, b in zip(vals, vals[1:]))
        diffs = [b - a for a, b in zip(vals, vals[1:])]
        assert all(d2 <= d1 + 1e-12 for d1, d2 in zip(diffs, diffs[1:]))

    def test_negative_alpha(self):
        with pytest.raises(ValueError):
            mi_rate(-0.1, RateCoefficients.from_params(params()))


class TestDissipation:
    def test_identity_at_mu_one(self):
        assert mi_dissipation(123.0, 1.0, 0.8) == pytest.approx(123.0, rel=REL)

    def test_no_temporary_component(self):
        for mu in (0.5, 1.0, 7.0):
            assert mi_dissipation(50.0, mu, 0.0) == pytest.approx(50.0, rel=REL)

    def test_large_mu_limit(self):
        assert mi_dissipation(50.0, 1e12, 0.8) == pytest.approx(50.0 * 0.2, rel=1e-9)

    def test_same_side_ratio_printed_form(self):
        assert same_side_ratio([10.0, -3.0, 5.0], 2.0) == pytest.approx(0.5)
        with pytest.raises(ValueError):
            same_side_ratio([1.0], 0.0)


class TestRiskSchedule:
    # r = [1000]*4, sigma=0.3, t=1/250, price=50, n=4 -> 50*sqrt(360)
    FROZEN = 948.6832980505138

    def test_frozen_fixture(self):
        got = risk_schedule([1000.0] * 4, 0.3, 50.0, 1.0 / 250.0, 4)
        assert got == pytest.approx(self.FROZEN, rel=REL)

    def test_zero_vol(self):
        assert risk_schedule([1000.0] * 4, 0.0, 50.0, 1.0 / 250.0, 4) == 0.0

    def test_instantaneous_execution(self):
        assert risk_schedule([0.0] * 4, 0.3, 50.0, 1.0 / 250.0, 4) == 0.0

    def test_rejects_increasing_residuals(self):
        with pytest.raises(ValueError):
            risk_schedule([100.0, 200.0], 0.3, 50.0, 1.0 / 250.0, 2)


class TestRiskRate:
    # alpha=0.25, X=1e5, sigma=0.25, price=50, s=0.1
    FROZEN = 456435.4645876384

    def risk(self, **kw):
        base = dict(price=50.0, order_size=1e5, sigma=0.25, horizon_fraction=0.1)
        base.update(kw)
        return RiskParams(**base)

    def test_frozen_fixture(self):
        assert risk_rate(0.25, self.risk()) == pytest.approx(self.FROZEN, rel=REL)

    def test_zero_vol(self):
        assert risk_rate(0.25, self.risk(sigma=0.0)) == 0.0

    def test_inverse_sqrt_law(self):
        r = self.risk()
        assert risk_rate(0.4, r) == pytest.approx(0.5 * risk_rate(0.1, r), rel=1e-12)

    def test_unit_point(self):
        # alpha = s/3 makes sqrt(s/(3a)) = 1
        r = self.risk()
        alpha = r.horizon_fraction / 3.0
        assert risk_rate(alpha, r) == pytest.approx(50.0 * 1e5 * 0.25, rel=REL)

    def test_alpha_zero_is_domain_error(self):
        with pytest.raises(ValueError):
            risk_rate(0.0, self.risk())

    def test_monotone_decreasing_convex(self):
        r = self.risk()
        grid = [0.01 * i for i in range(1, 101)]
        vals = [risk_rate(a, r) for a in grid]
        assert all(b <= a for a, b in zip(vals, vals[1:]))
        diffs = [b - a for a, b in zip(vals, vals[1:])]
        assert all(d2 >= d1 - 1e-9 for d1, d2 in zip(diffs, diffs[1:]))


class TestQualitativeAgreement:
    def test_schedule_and_rate_forms_both_increase_with_rate(self):
        p = params()
        total = impact_total(p)
        coeffs = RateCoefficients.from_params(p)
        x = p.order_size
        rate_vals, sched_vals = [], []
        for alpha in (0.05, 0.1, 0.2, 0.4, 0.8):
            rate_vals.append(mi_rate(alpha, coeffs))
            # constant-rate schedule over 4 periods against volume x/alpha each
            v = x / (4 * alpha)
            sched_vals.append(mi_schedule([x / 4] * 4, [v] * 4, 0.8, total, x))
        assert rate_vals == sorted(rate_vals)
        assert sched_vals == sorted(sched_vals)

    def test_surface_sampler_shapes(self):
        p = params()
        coeffs = RateCoefficients.from_params(p)
        risk = RiskParams(price=50.0, order_size=1e5, sigma=0.25, horizon_fraction=0.1)
        rows = sample_cost_surface(coeffs, risk, [0.1, 0.2, 0.3])
        assert len(rows) == 3
        alphas, mis, risks = zip(*rows)
        assert list(mis) == sorted(mis)
        assert list(risks) == sorted(risks, reverse=True)


def test_all_outputs_zero_when_order_is_zero():
    p = params(order_size=0)
    assert impact_total(p) == 0.0
    c = RateCoefficients.from_params(p)
    assert mi_rate(0.5, c) == 0.0
    r = RiskParams(price=50.0, order_size=0.0, sigma=0.25, horizon_fraction=0.1)
    assert risk_rate(0.5, r) == 0.0
