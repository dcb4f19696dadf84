"""Structural classification of the tuple from its scalar sequence.

Every verdict records its epistemic status: "analytic" when the family
declares the fact, "exact" when rational arithmetic certified it over the
stated horizon, "sampled" when only floating evidence exists. Every family
holds exact delta2 (a float input at its binary value), so the defect,
isometry, Szego, hyponormality and subnormality verdicts are all exact
about the values the family holds; compactness, essential normality and
boundedness read the float snapshot unless the family declares them, through
the sampled answers in scalarseq, the one module this layer imports.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import takewhile
from typing import Optional, Tuple

import numpy as np

from .scalarseq import (DEFAULT_K_EXACT, DEFAULT_K_SAMPLED, DEFAULT_P, DEFAULT_Q, BoundednessReport,
                        ScalarSequence, Verdict, essential_normality_gate, is_compact,
                        suspect_unbounded)


def _first(mask) -> Optional[int]:
    hits = np.flatnonzero(mask)
    return int(hits[0]) if len(hits) else None


def is_essentially_normal(seq: ScalarSequence, K: int = DEFAULT_K_SAMPLED) -> Verdict:
    """delta2(k) - delta2(k-1) -> 0: all commutators compact."""
    gate, witness = essential_normality_gate(seq, K), None
    if gate["mode"] == "analytic" and not gate["value"]:  # a declared no: the exact first step
        b, a = seq.delta2_exact_array(1)
        witness = (0, abs(a - b))
    return Verdict(gate["value"], gate["mode"], horizon=gate.get("horizon"), witness=witness,
                   note=gate["detail"])


def is_hyponormal(seq: ScalarSequence, K: int = DEFAULT_K_EXACT) -> Verdict:
    """delta_k nondecreasing for k <= K (joint hyponormality of the tuple)."""
    if K < 1:
        raise ValueError("K must be >= 1")
    if seq.monotone_nondecreasing is True:
        return Verdict(True, "analytic", note="declared monotone nondecreasing")
    exact = seq.delta2_exact_array(K)
    k = next((k for k in range(1, K + 1) if exact[k] < exact[k - 1]), None)
    if k is not None:
        return Verdict(False, "exact", horizon=K, witness=(k - 1,),
                       note=f"delta2 drops from {exact[k - 1]} to {exact[k]} at k = {k - 1} -> {k}")
    return Verdict(True, "exact", horizon=K, note="no drop up to the horizon")


def _isometry_order(defects) -> Tuple[Optional[int], str]:
    """(smallest q whose defect vanishes on the whole window, mode)."""
    if not defects:
        raise ValueError("the largest order Q must be >= 1")
    return next((q for q, lead, _ in defects if (lead == 0).all()), None), "exact"


def _expansion(q, lead, den, K: int) -> Verdict:
    """The order-q expansion verdict: (-1)^q L_q(k) <= 0 for all k <= K."""
    k = _first((-1) ** q * lead > 0)
    if k is not None:
        return Verdict(False, "exact", horizon=K, witness=(k, Fraction(lead[k], den[k])))
    return Verdict(True, "exact", horizon=K)


def _szego(q, lead, den, K: int) -> Verdict:
    """The order-1 (q = 1) verdict: L_1(k) = delta2(k) - 1 vanishes for all k <= K."""
    k = _first(lead != 0)
    return Verdict(k is None, "exact", horizon=K, witness=None if k is None else (k,))


def _expansion_depth(verdicts) -> int:
    """Number of leading True verdicts in the order-1, 2, ... sequence."""
    return sum(1 for _ in takewhile(lambda v: v.value, verdicts))


def q_isometry_order(
    seq: ScalarSequence, Q: int = DEFAULT_Q, K: int = DEFAULT_K_EXACT
) -> Tuple[Optional[int], str]:
    """Smallest q <= Q with the q-th gamma differences all zero, k <= K.

    Returns (order, mode); the mode is "exact", since the windows are.
    """
    return _isometry_order(list(seq.exact_defects(K, Q)))


def is_q_expansion(seq: ScalarSequence, q: int, K: int = DEFAULT_K_EXACT) -> Verdict:
    """(-1)^q * (q-th difference of gamma at k) <= 0 for all k <= K."""
    if q < 1:
        raise ValueError("q must be >= 1")
    *_, last = seq.exact_defects(K, q)  # the last order is q
    return _expansion(*last, K)


def complete_hyperexpansion_up_to(
    seq: ScalarSequence, Q: int = DEFAULT_Q, K: int = DEFAULT_K_EXACT
) -> int:
    """Largest Q' <= Q with the expansion property at every order 1..Q'."""
    return _expansion_depth(_expansion(*d, K) for d in seq.exact_defects(K, Q))


def subnormal_consistency(
    seq: ScalarSequence, P: int = DEFAULT_P, K: int = DEFAULT_K_EXACT
) -> dict:
    """Necessary moment-type inequalities for joint subnormality.

    The criterion applies to a contraction, so gamma is first rescaled by
    the sup of delta2 (gt_k = gamma_k / S^k, which squashes the weights
    below 1); subnormality itself is scale-invariant, so nothing is lost.
    The check is (-1)^p * (p-th difference of gt at k) >= 0 for p <= P,
    k <= K, read from the windows of delta2 / S: a pass means "consistent
    with subnormality up to order P", a failure is definitive and returns
    the violating (p, k) with the local value L_p(k) as witness_value.
    """
    if P < 1 or K < 1:
        raise ValueError("P and K must be >= 1")
    sup = seq.sup_delta2()
    if sup is None:  # the largest delta2 the windows read, k <= K + P - 1
        if suspect_unbounded(seq.delta2_array(K + P - 1)):
            raise ValueError(
                f"{seq.name}: delta2 keeps growing over the probe horizon; "
                "rescaling by sup delta is undefined for an unbounded sequence"
            )
        sup, rescale_mode = max(seq.delta2_exact_array(K + P - 1)), "sampled"
    else:
        rescale_mode = "exact"

    report = {"pass": True, "witness": None, "order": P, "horizon": K}
    for p, lead, den in seq.exact_defects(K, P, scale=sup):
        k = _first((-1) ** p * lead < 0)
        if k is not None:
            report.update({"pass": False, "witness": (p, k),
                           "witness_value": Fraction(lead[k], den[k])})
            break
    report.update({"mode": "exact", "rescale_mode": rescale_mode})
    return report


def is_szego(seq: ScalarSequence, K: int = DEFAULT_K_EXACT) -> Verdict:
    """delta2(k) = 1 for all k <= K: the tuple is the constant-one shift
    (equivalently, the iterated positive map fixes the identity), i.e. the
    first-order defect L_1(k) = delta2(k) - 1 vanishes on the window."""
    return _szego(*next(seq.exact_defects(K, 1)), K)


@dataclass
class Classification:
    bounded: BoundednessReport
    compact: Verdict
    essentially_normal: Verdict
    szego: Verdict
    hyponormal: Verdict
    q_isometry_order: Optional[int]
    q_isometry_mode: str
    q_expansion: dict = field(default_factory=dict)
    complete_hyperexpansion_up_to: int = 0
    subnormal: dict = field(default_factory=dict)


def require_classification_orders(P: int, Q: int, K: int) -> None:
    """Refuses a subnormality order P, a largest expansion order Q or an
    exact horizon K below 1."""
    for name, value in (("the largest order Q", Q), ("P", P), ("K", K)):
        if value < 1:
            raise ValueError(f"{name} must be >= 1")


def classification(
    seq: ScalarSequence,
    P: int = DEFAULT_P,
    Q: int = DEFAULT_Q,
    K: int = DEFAULT_K_EXACT,
    horizon: int = DEFAULT_K_SAMPLED,
) -> Classification:
    """Run the whole battery on one sequence. One pass of local defects
    decides the isometry order, the expansions and Szego; subnormality
    makes its own pass, over delta2 / sup delta2."""
    require_classification_orders(P, Q, K)  # before any array is built
    if horizon < 1:
        raise ValueError("horizon must be >= 1")
    defects = list(seq.exact_defects(K, Q))
    order, order_mode = _isometry_order(defects)
    q_expansion = {q: _expansion(q, *defect, K) for q, *defect in defects}
    return Classification(
        bounded=seq.is_bounded(horizon),
        compact=is_compact(seq, horizon),
        essentially_normal=is_essentially_normal(seq, horizon),
        szego=_szego(*defects[0], K),
        hyponormal=is_hyponormal(seq, K),
        q_isometry_order=order,
        q_isometry_mode=order_mode,
        q_expansion=q_expansion,
        complete_hyperexpansion_up_to=_expansion_depth(q_expansion.values()),
        subnormal=subnormal_consistency(seq, P, K),
    )
