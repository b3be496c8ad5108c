import json
import math
from fractions import Fraction

import pytest

from furstlab.bounds import (
    BoundParams,
    InapplicableBound,
    POSITIVE_MEASURE,
    as_fraction,
    bound_hera,
    bound_spread_general,
    bound_spread_hyperplane,
    bound_spread_main,
    bound_survey,
    compute_k0,
    exact_value,
    ff_bound_exponents,
)
from furstlab.cli import _json


def params(n, k, s, t):
    return BoundParams(n, k, as_fraction(s), as_fraction(t))


class TestK0:
    def test_table(self):
        assert {n: compute_k0(n) for n in (2, 3, 4, 7, 8, 13, 14)} == {
            2: 1, 3: 2, 4: 2, 7: 3, 8: 4, 13: 4, 14: 5,
        }

    def test_defining_inequality(self):
        for n in range(2, 40):
            k0 = compute_k0(n)
            assert Fraction(7, 3) * Fraction(2) ** (k0 - 2) + k0 >= n
            if k0 > 1:
                assert Fraction(7, 3) * Fraction(2) ** (k0 - 3) + k0 - 1 < n


class TestSpreadGeneral:
    def test_hand_values(self):
        assert bound_spread_general(params(7, 4, "7/2", 12), 3) == Fraction(13, 2)
        assert bound_spread_general(params(7, 4, "7/2", 10), 3) == Fraction(11, 2)

    def test_full_direction_family_is_sharp(self):
        p = params(7, 4, "7/2", 12)  # t = k(n-k)
        assert bound_spread_general(p, 3) == 7 - 4 + Fraction(7, 2)

    def test_hypothesis_violations(self):
        with pytest.raises(InapplicableBound):
            bound_spread_general(params(7, 3, "5/2", 9), 3)  # k < k0+1
        with pytest.raises(InapplicableBound):
            bound_spread_general(params(7, 4, 3, 12), 3)  # s = k0 not > k0


class TestSpreadMain:
    def test_examples(self):
        assert bound_spread_main(params(7, 4, "7/2", 12)) == Fraction(13, 2)
        assert bound_spread_main(params(8, 5, "9/2", 15)) == Fraction(15, 2)

    def test_inapplicable_small_k(self):
        with pytest.raises(InapplicableBound):
            bound_spread_main(params(7, 3, "5/2", 9))


class TestSpreadHyperplane:
    def test_examples(self):
        assert bound_spread_hyperplane(3, "3/2", 2) == Fraction(5, 2)
        assert bound_spread_hyperplane(4, "3/2", 1) == Fraction(3, 2)

    def test_full_t(self):
        for n in (3, 4, 5):
            s = Fraction(3, 2)
            assert bound_spread_hyperplane(n, s, n - 1) == 1 + s

    def test_out_of_range(self):
        with pytest.raises(InapplicableBound):
            bound_spread_hyperplane(2, "3/2", 1)
        with pytest.raises(InapplicableBound):
            bound_spread_hyperplane(4, 1, 1)  # needs s > 1
        with pytest.raises(InapplicableBound):
            bound_spread_hyperplane(4, "3/2", 0)  # needs t > 0

    def test_matches_general_at_k0_one(self):
        # The planar maximal-function instantiation: hyperplane bound is the
        # general bound with k0 = 1.
        import random

        rnd = random.Random(101)
        for _ in range(100):
            n = rnd.randint(3, 10)
            s = 1 + Fraction(rnd.randint(1, 24), 24) * (n - 2)
            t = Fraction(rnd.randint(1, 16), 16) * (n - 1)
            lhs = bound_spread_hyperplane(n, s, t)
            rhs = bound_spread_general(params(n, n - 1, s, t), 1)
            assert lhs == rhs

    def test_sharpness_at_low_t(self):
        # t = n-1-ceil(s) makes the bound collapse to s exactly.
        for n, s in [(4, Fraction(3, 2)), (5, Fraction(3, 2)), (5, Fraction(5, 2)),
                     (6, Fraction(7, 4)), (7, Fraction(10, 3))]:
            t = n - 1 - math.ceil(s)
            if t <= 0:
                continue
            assert bound_spread_hyperplane(n, s, t) == s


class TestHera:
    def test_hand_value(self):
        assert bound_hera(params(4, 2, "3/2", 4)) == Fraction(17, 6)

    def test_vanishing_numerator(self):
        p = params(5, 3, "3/2", (3 - 2) * (5 - 3))
        assert bound_hera(p) == Fraction(3, 2)

    def test_full_t_full_dimension(self):
        assert bound_hera(params(4, 2, 2, 6)) == 4


class TestMonotonicity:
    def _bounds_at(self, p):
        out = {}
        rep = bound_survey(p)
        for e in rep.entries:
            if e.applicable and e.value is not None:
                out[e.name] = e.value
            elif e.flag == POSITIVE_MEASURE:
                out[e.name] = Fraction(p.n)  # full dimension
        return out

    def test_nondecreasing_in_t(self):
        # Every surveyed bound except Dabrowski-Orponen-Villa (whose stated
        # formula decreases in t) is nondecreasing in t.
        import random

        rnd = random.Random(7)
        for _ in range(200):
            n = rnd.randint(2, 9)
            k = rnd.randint(1, n - 1)
            s = Fraction(rnd.randint(1, 12), 12) * k
            tmax = (k + 1) * (n - k)
            t1 = Fraction(rnd.randint(1, 48), 48) * tmax
            t2 = t1 + Fraction(rnd.randint(0, 48), 48) * (tmax - t1)
            lo = self._bounds_at(BoundParams(n, k, s, t1))
            hi = self._bounds_at(BoundParams(n, k, s, t2))
            for name in lo:
                if name == "dabrowski_orponen_villa" or name not in hi:
                    continue
                assert hi[name] >= lo[name], (name, n, k, s, t1, t2)

    def test_nondecreasing_in_s(self):
        import random

        rnd = random.Random(8)
        for _ in range(200):
            n = rnd.randint(2, 9)
            k = rnd.randint(1, n - 1)
            t = Fraction(rnd.randint(1, 24), 24) * ((k + 1) * (n - k))
            s1 = Fraction(rnd.randint(1, 48), 48) * k
            s2 = s1 + Fraction(rnd.randint(0, 48), 48) * (k - s1)
            lo = self._bounds_at(BoundParams(n, k, s1, t))
            hi = self._bounds_at(BoundParams(n, k, s2, t))
            for name in lo:
                if name not in hi:
                    continue
                assert hi[name] >= lo[name], (name, n, k, s1, s2, t)


class TestSurvey:
    def test_ren_wang_plane(self):
        rep = bound_survey(params(2, 1, "1/2", 1))
        entry = {e.name: e for e in rep.entries}["ren_wang"]
        assert entry.applicable and entry.value == Fraction(5, 4)

    def test_dov_value(self):
        rep = bound_survey(params(3, 2, "3/2", 2))
        entry = {e.name: e for e in rep.entries}["dabrowski_orponen_villa"]
        assert entry.applicable and entry.value == Fraction(7, 4)

    def test_dov_boundary_t_one_inapplicable(self):
        rep = bound_survey(params(3, 2, "3/2", 1))
        entry = {e.name: e for e in rep.entries}["dabrowski_orponen_villa"]
        assert not entry.applicable

    def test_hyperplane_corollary_inapplicable_at_t_zero(self):
        # The paper needs t in (0, k(n-k)]; the formula itself would give 1.
        rep = bound_survey(params(4, 3, "3/2", 0))
        entries = {e.name: e for e in rep.entries}
        assert not entries["spread_hyperplane_corollary"].applicable
        assert not entries["spread_main"].applicable

    def test_positive_measure_flag(self):
        # t above (k+1)(n-k) - k = 4 trips the positive-measure case; the
        # bound is about whole k-planes, so the tuple has s = k.
        rep = bound_survey(params(4, 2, 2, 5))
        entry = {e.name: e for e in rep.entries}["oberlin_falconer_mattila"]
        assert entry.applicable and entry.flag == POSITIVE_MEASURE
        assert entry.value is None

    def test_oberlin_fm_inapplicable_below_s_equal_k(self):
        # C x [0,1] with dim C = s* < 1 refutes 2k - k(n-k) + t = 2 here;
        # Ren-Wang, sharp in the plane, is then the best bound.
        rep = bound_survey(params(2, 1, "1/2", 1))
        entry = {e.name: e for e in rep.entries}["oberlin_falconer_mattila"]
        assert not entry.applicable and entry.value is None and entry.flag is None
        assert (rep.best_name, rep.best_value) == ("ren_wang", Fraction(5, 4))
        assert {e.name: e for e in bound_survey(params(2, 1, 1, 1)).entries}[
            "oberlin_falconer_mattila"].value == 2

    def test_best_is_max_numeric(self):
        rep = bound_survey(params(2, 1, "1/2", 1))
        numeric = [e.value for e in rep.entries if e.applicable and e.value is not None]
        assert rep.best_value == max(numeric)

    def test_json_stable_fields(self):
        rep = bound_survey(params(4, 3, 2, 2))
        d = rep.as_dict()
        assert set(d) == {"params", "entries", "best"}
        for e in d["entries"]:
            assert {"name", "applicable"} <= set(e)
        again = bound_survey(params(4, 3, 2, 2))
        assert _json(rep.as_dict()) == _json(again.as_dict())


class TestFFExponents:
    def test_zhang_example(self):
        rep = ff_bound_exponents(3, 1, "1/2")
        assert rep["zhang_upper"] == 2
        assert rep["pair_counting"] == Fraction(1, 2) + 1
        assert rep["polynomial_method"] == Fraction(3, 2)
        assert rep["ddl_lower"] == Fraction(5, 2)

    def test_formulas_hold(self):
        for n in (2, 3, 5):
            for k in range(1, n):
                for s in (Fraction(1, 3), Fraction(1, 2), 1):
                    rep = ff_bound_exponents(n, k, s)
                    assert rep["polynomial_method"] == n * s
                    assert rep["ddl_lower"] == n - k + s

    def test_zhang_dominates_pair_counting(self):
        for n in (2, 3, 4, 7):
            for s in (Fraction(1, 4), Fraction(1, 2), 1):
                rep = ff_bound_exponents(n, 1, s)
                assert rep["zhang_upper"] >= rep["pair_counting"]


class TestHugeN:
    def test_every_value_finite_up_to_the_cap(self):
        for n in (2**60, 2**500):
            for k in (1, n // 2, n - 1):
                for s in (1, k):
                    for t in (0, (k + 1) * (n - k)):
                        rep = bound_survey(BoundParams(n, k, s, t))
                        json.dumps(rep.as_dict(), allow_nan=False)
                    exponents = ff_bound_exponents(n, k, s)
                    json.dumps({m: exact_value(v) for m, v in exponents.items()}, allow_nan=False)

    def test_n_past_the_cap_rejected(self):
        with pytest.raises(ValueError):
            BoundParams(2**500 + 1, 1, 1, 1)
        with pytest.raises(ValueError):
            ff_bound_exponents(2**500 + 1, 1, 1)


class TestExactness:
    def test_rational_in_rational_out(self):
        v = bound_spread_main(params(7, 4, Fraction(7, 2), Fraction(12)))
        assert isinstance(v, Fraction) and v == Fraction(13, 2)

    def test_float_inputs_taken_at_binary_value(self):
        assert as_fraction(3.5) == Fraction(7, 2)
        assert as_fraction("7/2") == Fraction(7, 2)
        assert bound_spread_main(params(7, 4, 3.5, 12)) == Fraction(13, 2)

    def test_params_validation(self):
        with pytest.raises(ValueError):
            BoundParams(1, 1, Fraction(1), Fraction(1))
        with pytest.raises(ValueError):
            BoundParams(4, 4, Fraction(1), Fraction(1))
        with pytest.raises(ValueError):
            BoundParams(4, 2, Fraction(3), Fraction(1))  # s > k
        with pytest.raises(ValueError):
            BoundParams(4, 2, Fraction(1), Fraction(7))  # t > (k+1)(n-k)
