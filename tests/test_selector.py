import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from rwc.model import Alphabet, ContextModel, predict
from rwc.selector import (
    KeptSet,
    SelectorParams,
    full_support,
    marginal_f,
    select_kept,
    solve_alpha,
    subset_cost,
)

from oracles import ALPHA_VALUES, brute_force_kept, check_kept, dense

# Root of the keep/drop threshold equation, found independently by Newton
# iteration to full float precision.
ALPHA_REF = 0.1854203093019385


def dist(*weights):
    s = sum(weights)
    return dense((0.0,) + tuple(w / s for w in weights))

ETA = dist(0.49, 0.49, 0.02)


def positive_dists(max_support=8):
    return st.lists(
        st.floats(0.01, 1.0), min_size=2, max_size=max_support
    ).map(lambda ws: dist(*ws))


class TestSolveAlpha:
    def test_value(self):
        assert solve_alpha() == pytest.approx(0.18543, abs=1e-4)
        assert solve_alpha() == pytest.approx(ALPHA_REF, abs=1e-9)

    def test_defining_identity(self):
        a = solve_alpha()
        assert abs((1 + a) ** (1 + a) - (16 * a) ** a) <= 1e-10

    def test_root_of_marginal_function(self):
        assert abs(marginal_f(solve_alpha())) <= 1e-9

    def test_bisection_bracket_straddles_the_root(self):
        assert marginal_f(1e-9) > 0.0 > marginal_f(1.0)

    def test_same_float_on_every_call(self):
        assert solve_alpha().hex() == solve_alpha().hex() == "0x1.7bbda4a2fd1e8p-3"

    def test_params_default_carries_alpha(self):
        p = SelectorParams.default()
        assert p.alpha == solve_alpha()


class TestMarginalF:
    def test_at_one(self):
        # (1/4)(2*log2(2) - 1*log2(1)) - 1
        assert marginal_f(1.0) == -0.5

    def test_positive_below_threshold(self):
        assert marginal_f(0.05) == pytest.approx(0.0225013, abs=1e-6)
        assert marginal_f(0.05) > 0.0

    def test_negative_above_threshold(self):
        assert marginal_f(0.5) < 0.0
        assert marginal_f(100.0) < 0.0

    def test_domain_error(self):
        with pytest.raises(ValueError):
            marginal_f(0.0)
        with pytest.raises(ValueError):
            marginal_f(-1.0)

    @pytest.mark.parametrize("x", [math.nan, math.inf])
    def test_a_non_finite_ratio_is_refused(self, x):
        with pytest.raises(ValueError, match=f"ratio {x!r} must be positive and finite"):
            marginal_f(x)

    @given(st.floats(0.001, ALPHA_REF - 1e-6))
    def test_sign_below(self, x):
        assert marginal_f(x) > 0.0

    @given(st.floats(ALPHA_REF + 1e-6, 100.0))
    def test_sign_above(self, x):
        assert marginal_f(x) < 0.0


class TestSubsetCost:
    def test_empty_set_costs_one_error(self):
        assert subset_cost(ETA, ()) == 1.0

    def test_singleton_costs_its_miss_rate(self):
        d = dist(0.9, 0.1)
        assert subset_cost(d, (1,)) == pytest.approx(0.1, abs=1e-12)

    def test_two_of_three(self):
        # log2(.98/.49) = 1, so the cost is 0.25*0.98 + 0.02
        assert subset_cost(ETA, (1, 2)) == pytest.approx(0.265, abs=1e-9)

    def test_certain_symbol_costs_nothing(self):
        assert subset_cost(dist(1.0), (1,)) == 0.0

    def test_zero_probability_member_rejected(self):
        d = dense((0.0, 0.5, 0.5, 0.0))
        with pytest.raises(ValueError):
            subset_cost(d, (1, 3))

    def test_repeated_member_rejected(self):
        # counting id 2 twice would give a cost of -0.125
        with pytest.raises(ValueError, match="repeated"):
            subset_cost(dense((0.0, 0.25, 0.75)), (2, 2))

    @pytest.mark.parametrize("sym", [-1, 0, 3])
    def test_id_outside_the_alphabet_rejected(self, sym):
        # -1 would index id 2 from the end, and 3 is past the last id
        with pytest.raises(ValueError, match="outside alphabet"):
            subset_cost(dense((0.0, 0.25, 0.75)), (sym,))


class TestMarginalIdentity:
    @given(positive_dists(), st.data())
    def test_adding_a_symbol_moves_cost_by_f(self, d, data):
        support = [i for i, p in enumerate(d.probs) if p > 0.0]
        size = data.draw(st.integers(1, len(support) - 1))
        members = tuple(support[:size])
        j = data.draw(st.sampled_from([i for i in support if i not in members]))
        mass = sum(d.probs[i] for i in members)
        lhs = (subset_cost(d, members + (j,)) - subset_cost(d, members)) / mass
        rhs = marginal_f(d.probs[j] / mass)
        assert lhs == pytest.approx(rhs, abs=1e-10)


class TestSelectKept:
    def test_keeps_the_common_two_of_three(self, params):
        kept = select_kept(ETA, params)
        assert kept.members == (1, 2)
        assert kept.mass == pytest.approx(0.98, abs=1e-12)
        assert kept.renorm == pytest.approx((0.5, 0.5), abs=1e-12)

    def test_uniform_256_keeps_six(self, params):
        d = dense((0.0,) + (1 / 256,) * 256)
        assert len(select_kept(d, params).members) == 6

    def test_single_symbol(self, params):
        kept = select_kept(dist(1.0), params)
        assert kept.members == (1,)
        assert kept.mass == 1.0

    def test_threshold_is_at_least(self, params):
        # second symbol sits just above / just below alpha times the first
        for nudge, expect in ((1 + 1e-9, 2), (1 - 1e-9, 1)):
            d = dist(1.0, params.alpha * nudge)
            assert len(select_kept(d, params).members) == expect

    def test_probability_ties_break_by_ascending_id(self, params):
        d = dense((0.0, 0.25, 0.25, 0.25, 0.25))
        assert select_kept(d, params).members == (1, 2, 3, 4)

    def test_zero_probability_never_kept(self, params):
        d = dense((0.0, 0.5, 0.0, 0.5))
        assert 2 not in select_kept(d, params).members

    def test_empty_support_rejected(self, params):
        with pytest.raises(ValueError):
            select_kept(dense((0.0, 0.0)), params)

    @given(positive_dists())
    def test_members_form_a_probability_sorted_prefix(self, d):
        p = SelectorParams.default()
        kept = select_kept(d, p)
        positive = [i for i, p in enumerate(d.probs) if p > 0.0]
        ranked = sorted(positive, key=lambda i: (-d.probs[i], i))
        assert kept.members == tuple(ranked[: len(kept.members)])
        assert abs(sum(kept.renorm) - 1.0) <= 1e-12

    @given(positive_dists())
    def test_kept_sets_hold_their_invariants(self, d):
        check_kept(full_support(d))
        for alpha in ALPHA_VALUES:
            check_kept(select_kept(d, SelectorParams(alpha=alpha)))

    @given(positive_dists())
    def test_never_worse_than_trivial_policies(self, d):
        p = SelectorParams.default()
        cost = subset_cost(d, select_kept(d, p).members)
        assert cost <= 1.0 + 1e-12
        assert cost <= subset_cost(d, full_support(d).members) + 1e-12


class TestFullSupport:
    def test_orders_by_descending_probability(self):
        kept = full_support(dist(0.1, 0.6, 0.3))
        assert kept.members == (2, 3, 1)
        assert kept.mass == pytest.approx(1.0, abs=1e-12)


class TestBruteForce:
    def test_agrees_on_the_running_example(self, params):
        assert brute_force_kept(ETA).members == (1, 2)
        assert subset_cost(ETA, brute_force_kept(ETA).members) == pytest.approx(0.265, abs=1e-9)

    def test_skewed_pair_keeps_only_the_big_one(self):
        # ratio 1/9 is below the threshold, so adding the small one hurts
        assert brute_force_kept(dist(0.9, 0.1)).members == (1,)

    def test_single_symbol(self):
        kept = brute_force_kept(dist(1.0))
        assert kept.members == (1,)
        assert subset_cost(dist(1.0), kept.members) == 0.0

    def test_uniform_ten_matches_selection(self, params):
        d = dense((0.0,) + (0.1,) * 10)
        assert brute_force_kept(d).members == select_kept(d, params).members

    def test_large_support_refused(self):
        d = dense((0.0,) + (1 / 21,) * 21)
        with pytest.raises(ValueError):
            brute_force_kept(d)

    @given(positive_dists(max_support=7))
    def test_selection_attains_the_exhaustive_minimum(self, d):
        p = SelectorParams.default()
        chosen = subset_cost(d, select_kept(d, p).members)
        best = subset_cost(d, brute_force_kept(d).members)
        assert chosen <= best + 1e-12


class TestKeptSetValidation:
    """`check_kept` refuses each malformed kept set with the reason why."""

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="cannot be empty"):
            check_kept(KeptSet(members=(), renorm=(), mass=0.0))

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError, match="length mismatch"):
            check_kept(KeptSet(members=(1, 2), renorm=(1.0,), mass=1.0))

    def test_unnormalized_rejected(self):
        with pytest.raises(ValueError, match="sum to 1"):
            check_kept(KeptSet(members=(1, 2), renorm=(0.5, 0.4), mass=1.0))

    def test_small_set_off_by_a_billionth_rejected(self):
        with pytest.raises(ValueError, match="sum to 1"):
            check_kept(KeptSet(members=(1, 2, 3), renorm=(0.5, 0.25, 0.25 + 1e-9), mass=1.0))

    @pytest.mark.parametrize("renorm", [(math.nan,), (1.0, math.nan), (math.inf, -math.inf)])
    def test_nan_sum_rejected(self, renorm):
        # abs(nan - 1) > tol is False, so the check must be written to fail on NaN
        with pytest.raises(ValueError, match="sum to 1"):
            check_kept(KeptSet(members=tuple(range(1, len(renorm) + 1)), renorm=renorm, mass=1.0))

    @pytest.mark.parametrize("renorm", [(1.0, 0.0), (1.5, -0.5), (1.0, -0.0)])
    def test_non_positive_entry_rejected(self, renorm):
        with pytest.raises(ValueError, match="must be positive"):
            check_kept(KeptSet(members=(1, 2), renorm=renorm, mass=1.0))

    @pytest.mark.parametrize("mass", [0.0, -0.5, math.nan, math.inf])
    def test_mass_not_positive_and_finite_rejected(self, mass):
        with pytest.raises(ValueError, match="positive and finite"):
            check_kept(KeptSet(members=(1,), renorm=(1.0,), mass=mass))

    def test_lossless_set_over_fifty_thousand_glyphs_accepted(self):
        # Rounding in the mass and renorm sums grows with the member count;
        # over 50,000 members it passes a fixed 1e-12 tolerance.
        alphabet = Alphabet(tuple(chr(0x100 + i) for i in range(50_000)))
        model = ContextModel(alphabet, 0, 0.1, {(): {1: 5, 2: 3}})
        kept = full_support(predict(model, []))
        check_kept(kept)
        assert len(kept.members) == 50_000
        assert kept.members[:3] == (1, 2, 3)
