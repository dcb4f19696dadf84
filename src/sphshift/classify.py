"""Structural classification of the tuple from its scalar sequence.

Every verdict records its epistemic status: "analytic" when the family
declares the fact, "exact" when rational arithmetic certified it over the
stated horizon, "sampled" when only floating evidence exists. Definitive
algebraic yes-answers (isometry orders, the constant-weight detection)
require the exact path; floating families can only earn "consistent".
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import takewhile
from typing import Optional, Tuple

import numpy as np

from .scalarseq import (
    DEFAULT_K_EXACT,
    DEFAULT_K_SAMPLED,
    DEFAULT_P,
    DEFAULT_Q,
    BoundednessReport,
    ScalarSequence,
)
from .spectra import essential_normality_gate, suspect_unbounded


@dataclass(frozen=True)
class Verdict:
    value: Optional[bool]
    mode: str                    # "analytic" | "exact" | "sampled"
    horizon: Optional[int] = None
    witness: Optional[tuple] = None
    note: str = ""


_U = 2.0 ** -53  # unit roundoff of float64


def _local_defects(seq: ScalarSequence, Q: int, K: int, scale=None):
    """Yield (q, lead, tol, den) for q = 1..Q, each an array over k = 0..K.

    The q-th forward difference of gamma is gamma(k) * L_q(k) with
    L_q(k) = sum_{s<=q} (-1)^(q-s) C(q,s) prod_{i<s} delta2(k+i), the
    diagonal of the defect operator B_q; gamma > 0, so its sign is the sign
    of L_q, which reads only the window delta2(k..k+q-1). With ``scale`` S,
    delta2 is divided by S, giving the differences of gamma(k) / S^k.

    Exact delta2 (and S exact or absent) runs on the Python ints of the
    sequence's exact windows: lead is L_q * den with den the window's
    cleared, positive denominators, and tol = 0. Otherwise lead is L_q in
    float64, den is None, and |lead| <= tol, the forward error bound
    4(q+1) u sum_s C(q,s) P_s(k), counts as zero; an overflowing bound
    decides nothing.
    """
    if scale is None or isinstance(scale, Fraction):
        num, den, ok = seq.exact_windows(K, Q)
        if ok[Q].all():  # every delta2 through K + Q - 1 is exact
            # delta2 / S = (num Sd) / (den Sn) over each window
            Sn, Sd = (1, 1) if scale is None else (scale.numerator, scale.denominator)
            for q in range(1, Q + 1):
                lead = sum((-1) ** (q - s) * math.comb(q, s) * Sd ** s * Sn ** (q - s)
                           * num[s] * (den[q] // den[s]) for s in range(q + 1))
                yield q, lead, 0, den[q] * Sn ** q
            return
    d2 = seq.delta2_array(K + Q - 1) / (1.0 if scale is None else float(scale))
    prods = [np.ones(K + 1)]  # prod_{i<s} delta2(k+i) / S
    for q in range(1, Q + 1):
        with np.errstate(over="ignore", invalid="ignore"):
            prods.append(prods[-1] * d2[q - 1: q + K])
            terms = [(-1) ** (q - s) * math.comb(q, s) * prods[s] for s in range(q + 1)]
            lead = sum(terms)
            tol = 4 * (q + 1) * _U * sum(np.abs(t) for t in terms)
        yield q, lead, np.where(np.isfinite(tol), tol, np.nan), None


def _first(mask) -> Optional[int]:
    hits = np.flatnonzero(mask)
    return int(hits[0]) if len(hits) else None


def _local_value(lead, den, k: int):
    """L_q(k): an exact Fraction, or a float on the float path."""
    return float(lead[k]) if den is None else Fraction(lead[k], den[k])


def is_compact(seq: ScalarSequence, K: int = DEFAULT_K_SAMPLED) -> Verdict:
    """delta_k -> 0, i.e. the tuple consists of compact operators. The one
    compactness rule, also behind the Schatten cut-off; value None when the
    sample decides nothing, and the note names the deciding branch."""
    if seq.delta2_limit is not None:
        return Verdict(seq.delta2_limit == 0, "analytic", note="declared limit of delta2")
    if seq.delta2_liminf is not None and seq.delta2_liminf > 0:
        return Verdict(False, "analytic", note="declared liminf of delta2 is positive")
    d2 = seq.delta2_array(K)
    tail = d2[-max(1, K // 10):]
    top, low, peak = float(np.max(tail)), float(np.min(tail)), float(np.max(d2))
    sups = [float(np.max(q)) for q in np.array_split(d2, 4)]
    if all(b < a for a, b in zip(sups, sups[1:])) and sups[-1] < 1e-2 * sups[0]:
        value, note = True, f"quarter sups of delta2 fall, last/first = {sups[-1] / sups[0]:.3e}"
    elif low > 1e-3 * peak:
        value, note = False, f"tail min delta2 = {low:.3e} > 1e-3 * max = {peak:.3e}"
    else:
        value, note = None, f"tail delta2 in [{low:.3e}, {top:.3e}], max {peak:.3e}: undecided"
    return Verdict(value, "sampled", horizon=K, note=note)


def is_essentially_normal(seq: ScalarSequence, K: int = DEFAULT_K_SAMPLED) -> Verdict:
    """delta2(k) - delta2(k-1) -> 0: all commutators compact."""
    if seq.essentially_normal_declared is not None:
        witness = None
        if not seq.essentially_normal_declared:
            b, a = seq.delta2_exact_array(1)
            if a is not None and b is not None:
                witness = (0, abs(a - b))
        return Verdict(
            bool(seq.essentially_normal_declared),
            "analytic",
            witness=witness,
            note="declared by family",
        )
    gate = essential_normality_gate(seq, K, K // 10)
    return Verdict(gate["value"], "sampled", horizon=K, note=gate["detail"])


def is_hyponormal(seq: ScalarSequence, K: int = DEFAULT_K_EXACT) -> Verdict:
    """delta_k nondecreasing for k <= K (joint hyponormality of the tuple)."""
    if K < 1:
        raise ValueError("K must be >= 1")
    if seq.monotone_nondecreasing is True:
        return Verdict(True, "analytic", note="declared monotone nondecreasing")
    exact = seq.delta2_exact_array(K)
    run = exact.index(None) if None in exact else K + 1  # the exact prefix
    k = next((k for k in range(1, run) if exact[k] < exact[k - 1]), None)
    if k is not None:
        return Verdict(False, "exact", horizon=K, witness=(k - 1,),
                       note=f"delta2 drops from {exact[k - 1]} to {exact[k]} at k = {k - 1} -> {k}")
    if run == K + 1:
        return Verdict(True, "exact", horizon=K, note="no drop up to the horizon")
    d2 = seq.delta2_array(K)
    k = _first(np.diff(d2) < -4 * _U * (d2[:-1] + d2[1:]))  # a few ulps of the pair
    if k is not None:
        return Verdict(False, "sampled", horizon=K, witness=(k,))
    return Verdict(True, "sampled", horizon=K, note="no drop up to the horizon")


def _isometry_order(defects) -> Tuple[Optional[int], str]:
    """(smallest q whose defect vanishes on the whole window, mode)."""
    if not defects:
        raise ValueError("the largest order Q must be >= 1")
    q = next((q for q, lead, tol, _ in defects if np.all(np.abs(lead) <= tol)), None)
    return q, "consistent-sampled" if defects[0][3] is None else "exact"


def _expansion(q, lead, tol, den, K: int) -> Verdict:
    """The order-q expansion verdict: (-1)^q L_q(k) <= 0 for all k <= K."""
    mode = "sampled" if den is None else "exact"
    k = _first((-1) ** q * lead > tol)
    if k is not None:
        return Verdict(False, mode, horizon=K, witness=(k, _local_value(lead, den, k)))
    return Verdict(True, mode, horizon=K)


def _szego(q, lead, tol, den, K: int) -> Verdict:
    """The order-1 (q = 1) verdict: L_1(k) = delta2(k) - 1 vanishes for all k <= K."""
    k = _first(np.abs(lead) > tol)
    mode = "sampled" if den is None else "exact"
    return Verdict(k is None, mode, horizon=K, witness=None if k is None else (k,))


def _expansion_depth(verdicts) -> int:
    """Number of leading True verdicts in the order-1, 2, ... sequence."""
    return sum(1 for _ in takewhile(lambda v: v.value, verdicts))


def q_isometry_order(
    seq: ScalarSequence, Q: int = DEFAULT_Q, K: int = DEFAULT_K_EXACT
) -> Tuple[Optional[int], str]:
    """Smallest q <= Q with the q-th gamma differences all zero, k <= K.

    Returns (order, mode). A definitive order needs the exact path; on
    floats the answer is only "consistent" with being a q-isometry.
    """
    return _isometry_order(list(_local_defects(seq, Q, K)))


def is_q_expansion(seq: ScalarSequence, q: int, K: int = DEFAULT_K_EXACT) -> Verdict:
    """(-1)^q * (q-th difference of gamma at k) <= 0 for all k <= K."""
    if q < 1:
        raise ValueError("q must be >= 1")
    *_, last = _local_defects(seq, q, K)  # the last window is order q
    return _expansion(*last, K)


def complete_hyperexpansion_up_to(
    seq: ScalarSequence, Q: int = DEFAULT_Q, K: int = DEFAULT_K_EXACT
) -> int:
    """Largest Q' <= Q with the expansion property at every order 1..Q'."""
    return _expansion_depth(_expansion(*d, K) for d in _local_defects(seq, Q, K))


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
    if sup is None:
        probe = seq.delta2_array(max(K, 1000))
        if suspect_unbounded(probe):
            raise ValueError(
                f"{seq.name}: delta2 keeps growing over the probe horizon; "
                "rescaling by sup delta is undefined for an unbounded sequence"
            )
        # the exact value at the sampled maximum keeps exact data exact
        at = int(np.argmax(probe))
        exact_at = seq.delta2_exact_array(at)[at]
        sup_val = float(probe[at]) if exact_at is None else exact_at
        rescale_mode = "sampled"
    else:
        sup_val, rescale_mode = sup, "exact" if isinstance(sup, Fraction) else "analytic"

    report = {"pass": True, "witness": None, "order": P, "horizon": K}
    for p, lead, tol, den in _local_defects(seq, P, K, scale=sup_val):
        k = _first((-1) ** p * lead < -tol)
        if k is not None:
            report.update({"pass": False, "witness": (p, k),
                           "witness_value": _local_value(lead, den, k)})
            break
    report.update({"mode": "sampled" if den is None else "exact", "rescale_mode": rescale_mode})
    return report


def is_szego(seq: ScalarSequence, K: int = DEFAULT_K_EXACT) -> Verdict:
    """delta2(k) = 1 for all k <= K: the tuple is the constant-one shift
    (equivalently, the iterated positive map fixes the identity), i.e. the
    first-order defect L_1(k) = delta2(k) - 1 vanishes on the window."""
    return _szego(*next(_local_defects(seq, 1, K)), K)


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
    for name, value in (("the largest order Q", Q), ("P", P), ("K", K), ("horizon", horizon)):
        if value < 1:  # before any array is built
            raise ValueError(f"{name} must be >= 1")
    defects = list(_local_defects(seq, Q, K))
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
