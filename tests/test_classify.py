import dataclasses
import math
from collections import Counter
from fractions import Fraction

import pytest

from exact_reference import gamma_exact, nabla_gamma
from sphshift.scalarseq import (
    AlternatingTwelve,
    ConstantDelta,
    HpSpace,
    PolynomialGamma,
    RhoEta,
    Tabulated,
    default_suite,
)
from sphshift.shift import SphericalShift
from sphshift import classify
from sphshift.classify import (
    Classification,
    classification,
    complete_hyperexpansion_up_to,
    is_compact,
    is_essentially_normal,
    is_hyponormal,
    is_q_expansion,
    is_szego,
    q_isometry_order,
    subnormal_consistency,
)
from sphshift.schatten import cutoff_check, decide
from sphshift.spectra import (
    convergence_radius,
    essential_normality_gate,
    inner_radius,
    outer_radius,
)
from sphshift.truncation import oracle_suite


class TestCompactEssentiallyNormal:
    def test_hp_not_compact_essentially_normal(self):
        for m, p in ((2, 1), (2, 3), (3, 3)):
            seq = HpSpace(m, p)
            assert is_compact(seq).value is False
            assert is_essentially_normal(seq).value is True

    def test_alt_twelve_not_essentially_normal(self):
        v = is_essentially_normal(AlternatingTwelve())
        assert v.value is False
        assert v.witness == (0, Fraction(1, 12))

    def test_rho_eta(self):
        seq = RhoEta()
        assert is_compact(seq).value is False
        assert is_essentially_normal(seq).value is True

    def test_compact_sampled(self):
        seq = Tabulated([1], tail=lambda k: Fraction(1, (k + 1) ** 2))
        v = is_compact(seq, K=200_000)
        assert v.value is True
        assert v.mode == "sampled"

    def test_classification_and_cutoff_agree_on_held_table(self):
        # delta2 = 1/(k+1) held past k = 20000: the tail max is still 1e-4
        # at K = 10000, but the quarter sups fall by more than 1e-2
        seq = Tabulated([Fraction(1, k + 1) for k in range(20_000)], tail="hold")
        K = 10_000
        compact = classification(seq, P=2, Q=2, K=20, horizon=K).compact
        assert compact.value is True and compact.mode == "sampled"
        assert "quarter sups" in compact.note
        rep = cutoff_check(seq, 2, [1.0, 3.0], K=K)
        assert rep["skipped"] and rep["reason"] == "compact"

    def test_undecided_sample_is_none_everywhere(self):
        # delta2 alternates 1 and 1e-6: neither settles at 0 nor stays away
        seq = Tabulated([1], tail=lambda k: Fraction(1, 10**6) if k % 2 else Fraction(1))
        v = is_compact(seq, K=10_000)
        assert v.value is None and v.mode == "sampled" and v.horizon == 10_000
        assert v.note
        rep = cutoff_check(seq, 2, [1.0, 3.0], K=10_000)
        assert rep["skipped"] is False and rep["noncompact"] is None
        assert decide(seq, 2, 1.0, K=10_000).cutoff_consistent is None

    def test_sampled_essential_normality_is_the_spectral_gate(self):
        seq = Tabulated([1], tail=lambda k: Fraction(1) if k % 2 else Fraction(1, 2))
        v = is_essentially_normal(seq, K=10_000)
        gate = essential_normality_gate(seq, 10_000, 1_000)
        assert (v.value, v.mode, v.horizon, v.note) == (
            gate["value"], "sampled", 10_000, gate["detail"])
        assert v.value is False


class TestHyponormal:
    def test_hp_iff_p_at_least_m(self):
        for m in (2, 3):
            for p in (Fraction(1), Fraction(m) - Fraction(1, 2), Fraction(m),
                      Fraction(m) + Fraction(1, 2), Fraction(2 * m)):
                v = is_hyponormal(HpSpace(m, p), 200)
                assert v.value == (p >= m), (m, p)

    def test_rho_eta_hyponormal(self):
        assert is_hyponormal(RhoEta()).value is True

    def test_alt_twelve_witness_at_zero(self):
        v = is_hyponormal(AlternatingTwelve())
        assert v.value is False and v.witness == (0,)


class TestQIsometry:
    def test_szego_is_isometry(self):
        order, mode = q_isometry_order(HpSpace(2, 2), 4, 200)
        assert order == 1 and mode == "exact"

    def test_drury_arveson_order_m(self):
        for m in (2, 3):
            order, _ = q_isometry_order(HpSpace(m, 1), m + 2, 200)
            assert order == m

    def test_hp_m3_p2_order_two(self):
        order, _ = q_isometry_order(HpSpace(3, 2), 5, 200)
        assert order == 2

    def test_non_integer_p_is_never_isometry(self):
        order, _ = q_isometry_order(HpSpace(2, Fraction(3, 2)), 6, 100)
        assert order is None

    def test_float_table_is_an_exact_isometry(self):
        # float rows enter at their binary values, here exactly 1
        seq = Tabulated([1.0, 1.0, 1.0], tail="hold")
        order, mode = q_isometry_order(seq, 3, 40)
        assert order == 1 and mode == "exact"


class TestQExpansion:
    def test_szego_every_order(self):
        for q in range(1, 6):
            assert is_q_expansion(HpSpace(3, 3), q, 100).value is True

    def test_hp_two_expansion_window(self):
        for m in (2, 3):
            for p in (Fraction(m) - Fraction(3, 2), Fraction(m) - 1,
                      Fraction(m) - Fraction(1, 2), Fraction(m),
                      Fraction(m) + Fraction(1, 2)):
                if p <= 0:
                    continue
                v = is_q_expansion(HpSpace(m, p), 2, 200)
                assert v.value == (m - 1 <= p <= m), (m, p)

    def test_drury_arveson_one_expansion(self):
        assert is_q_expansion(HpSpace(2, 1), 1, 200).value is True

    def test_matches_bq_diagonal_sign(self, suite_m2):
        # two routes to the same verdict: gamma differences vs the operator
        # defect diagonal
        for label, seq in suite_m2:
            s = SphericalShift(2, seq)
            for q in (1, 2, 3):
                via_gamma = is_q_expansion(seq, q, 60).value
                via_bq = all(s.bq_diag(k, q) <= 0 for k in range(61))
                assert via_gamma == via_bq, (label, q)

    def test_hyperexpansion_counts(self):
        assert complete_hyperexpansion_up_to(HpSpace(2, 2), 6, 100) == 6
        assert complete_hyperexpansion_up_to(HpSpace(2, 1), 6, 100) == 6
        assert complete_hyperexpansion_up_to(HpSpace(2, 3), 6, 100) == 0


class TestSubnormalConsistency:
    def test_bergman_passes(self):
        for m in (2, 3):
            rep = subnormal_consistency(HpSpace(m, m + 1), 8, 200)
            assert rep["pass"] and rep["mode"] == "exact"

    def test_hardy_passes(self):
        for m in (2, 3):
            assert subnormal_consistency(HpSpace(m, m), 8, 200)["pass"]

    def test_drury_arveson_witness(self):
        rep = subnormal_consistency(HpSpace(2, 1), 8, 200)
        assert not rep["pass"]
        assert rep["witness"] == (2, 0)
        # the violating alternating sum is strictly negative
        assert Fraction(rep["witness_value"]) < 0

    def test_szego_all_orders(self):
        rep = subnormal_consistency(ConstantDelta(1), 10, 100)
        assert rep["pass"]

    def test_unbounded_rejected(self):
        seq = Tabulated([1], tail=lambda k: Fraction(k + 1))
        with pytest.raises(ValueError):
            subnormal_consistency(seq, 4, 50)

    def test_unknown_sup_is_read_over_the_windows_only(self):
        # a family without a sup is rescaled by its largest delta2 over the
        # levels the windows read, k <= K + P - 1; each level is read at most
        # twice (float and exact), and none past the classification's horizon
        calls = Counter()
        seq = Tabulated([1], tail=lambda k: calls.update([k]) or Fraction(k + 2, k + 3))
        c = classification(seq, P=8, K=50, horizon=100)
        assert c.subnormal["rescale_mode"] == "sampled"
        assert max(calls.values()) <= 2 and max(calls) == 100

    def test_float_family_rescales_exactly(self):
        # p = 0.5 at its binary value gives sup delta2 = 4, and 4.0 ** k leaves
        # the float range for k > 511: the integer windows of delta2 / 4 do not
        rep = subnormal_consistency(HpSpace(2, 0.5), 8, 600)
        assert rep["mode"] == "exact" and rep["rescale_mode"] == "exact"
        assert not rep["pass"] and rep["witness"] == (2, 0)

    def test_scale_invariance_of_criterion(self):
        # rescaling is built in: a pre-scaled copy must give the same verdict
        base = HpSpace(2, 3)
        scaled = base.scale(Fraction(7, 2))
        assert subnormal_consistency(scaled, 6, 100)["pass"]


class TestSzegoDetection:
    def test_hp_p_equals_m(self):
        assert is_szego(HpSpace(2, 2)).value is True
        assert is_szego(HpSpace(3, 3)).value is True
        assert is_szego(HpSpace(2, 3)).value is False

    def test_constant_one_same_sequence(self):
        assert is_szego(ConstantDelta(1)).value is True

    def test_exact_mode(self):
        assert is_szego(HpSpace(2, 2)).mode == "exact"


class TestIsometryForcesUnitRadii:
    def test_polynomial_gamma_radii_one(self):
        # any polynomial gamma with positive leading coefficient has
        # delta2 -> 1, so all three radii collapse to the unit sphere value
        for coeffs in ([1, 1], [1, 2, 1], [2, 0, 0, 2]):
            seq = PolynomialGamma(coeffs)
            order, _ = q_isometry_order(seq, seq.degree + 2, 100)
            assert order == seq.degree + 1
            assert outer_radius(seq, 40, 20_000).value == 1.0
            assert convergence_radius(seq, 20_000).value == 1.0
            assert inner_radius(seq, 40, 20_000).value == 1.0


def _suite_and_a_held_table() -> list:
    """Fresh default_suite(2) sequences and a decreasing exact table, one
    test parameter each, labelled."""
    table = Tabulated([Fraction(k + 3, 2 * k + 5) for k in range(40)], tail="hold")
    return [pytest.param(seq, id=label)
            for label, seq in default_suite(2) + [("held-table", table)]]


class TestFullClassification:
    @pytest.mark.parametrize("seq", _suite_and_a_held_table())
    def test_one_defect_pass_decides_every_order(self, seq, monkeypatch):
        passes = []
        real = seq.exact_defects

        def counting_pass(kmax, qmax, scale=None):
            passes.append("plain" if scale is None else "subnormal")
            return real(kmax, qmax, scale)

        levels = Counter()
        exact = seq.delta2_exact

        def counting_exact(k):
            levels[k] += 1
            return exact(k)

        monkeypatch.setattr(seq, "exact_defects", counting_pass)
        monkeypatch.setattr(seq, "delta2_exact", counting_exact)
        c = classification(seq, P=8, Q=6, K=200)
        assert sorted(passes) == ["plain", "subnormal"]
        assert max(levels.values()) == 1
        assert max(levels) == 200 + 8 - 1 < classify.DEFAULT_K_SAMPLED
        # the public one-question functions apply the same per-order rules
        assert c.q_expansion == {q: is_q_expansion(seq, q, 200) for q in range(1, 7)}
        assert (c.q_isometry_order, c.q_isometry_mode) == q_isometry_order(seq, 6, 200)
        assert c.szego == is_szego(seq, 200)
        assert c.complete_hyperexpansion_up_to == complete_hyperexpansion_up_to(seq, 6, 200)

    def test_hp_classification_bundle(self):
        c = classification(HpSpace(2, 1), P=8, Q=4, K=150)
        assert c.hyponormal.value is False
        assert c.q_isometry_order == 2
        assert c.q_expansion[1].value is True
        assert c.q_expansion[2].value is True
        assert c.complete_hyperexpansion_up_to == 4
        assert not c.subnormal["pass"]
        assert c.szego.value is False
        assert c.q_isometry_mode == "exact"
        assert c.hyponormal.witness == (0,)

    def test_isometry_order_implies_expansion_and_contraction(self):
        # at the isometry order the defect vanishes, so both sign conditions hold
        for m, seq in ((2, HpSpace(2, 1)), (3, HpSpace(3, 2)), (2, PolynomialGamma([1, 2, 1]))):
            order, _ = q_isometry_order(seq, 6, 100)
            assert order is not None
            assert is_q_expansion(seq, order, 100).value is True
            s = SphericalShift(m, seq)
            assert all(s.bq_diag(k, order) == 0.0 for k in range(50))

    def test_a_float_input_is_classified_at_its_binary_value(self, float_input_family):
        floats, fractions = (classification(seq) for seq in float_input_family)
        for f in dataclasses.fields(Classification):
            assert getattr(floats, f.name) == getattr(fractions, f.name), f.name

    def test_rho_eta_bundle(self):
        c = classification(RhoEta(), P=4, Q=3, K=100)
        assert c.hyponormal.value is True
        assert c.essentially_normal.value is True
        assert c.compact.value is False
        assert c.bounded.verdict == "family-declared"


_E, _A = "exact", "analytic"
_YES, _NO0 = (True, _E, None), (False, _E, 0)
# label -> (szego, hyponormal, expansion orders 1..6, isometry order,
#           hyperexpansion depth, subnormal (pass, witness)); every verdict
#           is (value, mode, witness position)
_PINS = {
    "szego": (_YES, (True, _A, None), [_YES] * 6, 1, 6, (True, None)),
    "bergman": (_NO0, (True, _A, None), [_NO0] * 6, None, 0, (True, None)),
    "rho-eta": ((False, _E, 3), (True, _A, None),
                [_YES, (False, _E, 2), _YES, _NO0, _NO0, _NO0], None, 1, (False, (3, 3))),
    "alt-twelve": (_NO0, _NO0, [_NO0] * 4 + [(False, _E, 1)] * 2, None, 0, (False, (2, 0))),
    "constant-half": (_NO0, (True, _A, None), [_NO0] * 6, None, 0, (True, None)),
    "poly-gamma-sq": (_NO0, _NO0, [_YES, _NO0] + [_YES] * 4, 3, 1, (False, (2, 0))),
}
_DRURY_ARVESON = {
    2: (_NO0, _NO0, [_YES] * 6, 2, 6, (False, (2, 0))),
    3: (_NO0, _NO0, [_YES, _NO0] + [_YES] * 4, 3, 1, (False, (2, 0))),
}


def _verdict_pin(v):
    return (v.value, v.mode, None if v.witness is None else v.witness[0])


@pytest.mark.parametrize("m,label", [(m, label) for m in (2, 3) for label in
                                     ("szego", "bergman", "drury-arveson", "rho-eta",
                                      "alt-twelve", "constant-half", "poly-gamma-sq")])
def test_default_suite_classification_pinned(m, label):
    seq = dict(default_suite(m))[label]
    szego, hypo, expansion, order, depth, subnormal = (
        _DRURY_ARVESON[m] if label == "drury-arveson" else _PINS[label])
    c = classification(seq, K=200)
    assert _verdict_pin(c.compact) == (False, _A, None)
    assert _verdict_pin(c.essentially_normal) == (
        (False, _A, 0) if label == "alt-twelve" else (True, _A, None))
    assert _verdict_pin(c.szego) == szego
    assert _verdict_pin(c.hyponormal) == hypo
    assert [_verdict_pin(c.q_expansion[q]) for q in range(1, 7)] == expansion
    assert (c.q_isometry_order, c.q_isometry_mode) == (order, _E)
    assert c.complete_hyperexpansion_up_to == depth
    assert (c.subnormal["pass"], c.subnormal["witness"]) == subnormal


def _scale_invariant_verdicts(seq, m):
    """Every verdict that rescaling all weights by a constant cannot change."""
    c = classification(seq, P=4, Q=2, K=100, horizon=10_000)
    subnormal = [c.subnormal[key] for key in ("pass", "witness", "mode", "rescale_mode")]
    schatten = [decide(seq, m, p, K=10_000) for p in (1.5, m + 0.5)]
    return (c.bounded.verdict, _verdict_pin(c.compact), _verdict_pin(c.essentially_normal),
            _verdict_pin(c.hyponormal), subnormal, [(v.verdict, v.analytic) for v in schatten])


@pytest.mark.parametrize("seq", _suite_and_a_held_table())
def test_scaling_keeps_every_scale_free_verdict(seq):
    # delta2 scales by c^2: 1e-200 and 1e200 test that no rule reads an
    # absolute level, and that no float power of a term leaves the range
    unscaled = _scale_invariant_verdicts(seq, 2)
    for c in (2, Fraction(1, 10 ** 100), 10 ** 100):
        assert _scale_invariant_verdicts(seq.scale(c), 2) == unscaled, c
    if seq.schatten_divergence is not None:  # its reason names unscaled values
        assert decide(seq.scale(2), 2, 1.5, K=10_000).reason.startswith(
            "the base sequence's reason, before the weights were scaled by c = 2: ")


def _sign(x) -> int:
    return (x > 0) - (x < 0)


class TestLocalWindows:
    """The verdicts read L_q(k) over windows of q consecutive delta2 values;
    nabla_gamma, the difference of the whole gamma list, is the reference."""

    @pytest.mark.parametrize("m", [2, 3])
    def test_window_signs_match_gamma_differences(self, m):
        for label, seq in default_suite(m):
            for q, lead, den in seq.exact_defects(200, 6):
                assert (den > 0).all()
                for k in range(201):
                    assert _sign(lead[k]) == _sign(nabla_gamma(seq, k, q)), (label, q, k)

    @pytest.mark.parametrize("m", [2, 3])
    def test_rescaled_window_signs_match_rescaled_differences(self, m):
        for label, seq in default_suite(m):
            S = seq.sup_delta2() or seq.delta2_exact(0)
            diffs = [gamma_exact(seq, k) / S ** k for k in range(207)]
            for q, lead, den in seq.exact_defects(200, 6, scale=S):
                diffs = [b - a for a, b in zip(diffs, diffs[1:])]
                for k in range(201):
                    assert _sign(lead[k]) == _sign(diffs[k]), (label, q, k)

    @pytest.mark.parametrize("level", [0, 2])
    def test_the_oracle_pins_the_integers_classify_signs(self, monkeypatch, level):
        # one source: flipping the sign of bergman's order-2 lead at one level
        # must fail the oracle's bq/2 row and move classify's order-2 verdicts.
        # L_2(k) = 2/((k+3)(k+4)) > 0, so the 2-expansion fails first at
        # k = 0 and subnormality (L_2 >= 0) holds until a flip
        seq = HpSpace(2, 3)
        before = classification(seq, K=200)
        real = seq.exact_defects

        def flipped(kmax, qmax, scale=None):
            for q, lead, den in real(kmax, qmax, scale):
                if q == 2 and kmax >= level:
                    lead = lead.copy()
                    lead[level] = -lead[level]
                yield q, lead, den

        monkeypatch.setattr(seq, "exact_defects", flipped)
        rows = oracle_suite(SphericalShift(2, seq), N=10)
        assert [r["kind"] for r in rows if not r["pass"]] == ["bq/2"]
        after = classification(seq, K=200)
        assert before.subnormal["witness"] is None
        assert after.subnormal["witness"] == (2, level)
        first = 1 if level == 0 else 0  # the first k with L_2(k) > 0 after the flip
        assert before.q_expansion[2].witness[0] == 0
        assert after.q_expansion[2].witness[0] == first

    def test_witness_value_is_the_local_value(self):
        # alt-twelve: L_5(1) over the window 1/4, 1/3, 1/4, 1/3, 1/4
        v = is_q_expansion(AlternatingTwelve(), 5, 200)
        assert v.witness == (1, Fraction(-235, 576))
        assert nabla_gamma(AlternatingTwelve(), 1, 5) == Fraction(-235, 576) / 3

    @pytest.mark.parametrize("m", [2, 3])
    def test_float_family_agrees_with_exact(self, m):
        for p in ("1/2", "1", "3/2", "2", "5/2", "3", "4"):
            exact, approx = HpSpace(m, Fraction(p)), HpSpace(m, float(Fraction(p)))
            assert q_isometry_order(approx, 6, 200)[0] == q_isometry_order(exact, 6, 200)[0], p
            for q in range(1, 7):
                assert (is_q_expansion(approx, q, 200).value
                        == is_q_expansion(exact, q, 200).value), (p, q)

    def test_isometry_and_szego_agree_on_a_perturbed_float_table(self):
        # delta2(1) = 1 + 1e-13 is not 1: neither verdict may call this an isometry
        seq = Tabulated([1.0, 1.0 + 1e-13, 1.0], tail="hold")
        order, mode = q_isometry_order(seq)
        assert order is None and mode == "exact"
        szego = is_szego(seq)
        assert szego.value is False and szego.witness == (1,)

    def test_tiny_float_drop_is_not_hyponormal(self):
        v = is_hyponormal(Tabulated([1e-20, 5e-21], tail="hold"))
        assert v.value is False and v.mode == "exact" and v.witness == (0,)

    def test_float_window_beyond_the_float_range_is_decided_exactly(self):
        # delta2 = 1e300: the windows of q >= 2 leave the float range, and
        # L_q = (delta2 - 1)^q is not zero at any order
        seq = ConstantDelta(1e150)
        assert q_isometry_order(seq, 4, 20) == (None, "exact")
