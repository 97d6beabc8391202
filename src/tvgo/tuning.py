"""Tuning-parameter formulas, assumption checks, and the error-bound
right-hand sides of every implemented inequality.

Each inequality is a kind crossed with a rate form.  The two kinds, PLAIN
and SQRT, hold all that the square-root estimator changes in a bound: the
deviation parameter and probability, the penalty coefficient, the kappa
term, the family-rate scaling and the slow-rate LHS coefficient.  The three
rate forms are written once: the generic fast rate (a compatibility bound,
closed-form on paths and cycles or the exact kappa), the path/cycle fast
rate (K and weights rates) and the slow rate (noise plus a coefficient times
||Df||_1).  THEOREMS maps each id to its kind, rate form, minimal tuning
and hypothesis check.
"""
from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

from .compatibility import HypothesisError, kappa_bound
from .graphs import ActiveSet
from .projections import TheoryReport


# where a fast rate's compatibility constant comes from: the closed-form
# bound of the graph family, or a kappa value (compatibility.kappa_numeric's)
KAPPA_SOURCES = ("paper_bound", "numeric")


class TheoremHypothesisError(HypothesisError):
    """A hypothesis of the requested inequality fails for these inputs."""


def lambda_plain(gamma: float, sigma: float, n: int, r_S: int, t: float) -> float:
    """Minimal admissible penalty level for the plain estimator:
    gamma * sigma * sqrt(2 log(2(n - r_S))/n + 2t/n)."""
    if r_S >= n:
        raise ValueError("r_S must be < n")
    if t <= 0:
        raise ValueError("t must be > 0")
    return gamma * sigma * math.sqrt(2.0 * math.log(2.0 * (n - r_S)) / n + 2.0 * t / n)


def t_max_sqrt(n: int, r_S: int) -> float:
    """Upper end of the admissible t interval for the square-root formulas."""
    return (n - 1) / 2.0 - math.log(2.0 * (n - r_S))


def lambda0_sqrt(gamma: float, n: int, r_S: int, t: float, eta: float) -> float:
    """Minimal noise-free penalty level for the square-root estimator:
    (1/(1-eta)) * gamma * sqrt((2 log(2(n - r_S)) + 2t)/(n - 1)).

    Does not depend on the noise level."""
    if not (0.0 < eta < 1.0):
        raise ValueError("eta must lie in (0, 1)")
    if not (0.0 < t < t_max_sqrt(n, r_S)):
        raise ValueError(f"t must lie in (0, {t_max_sqrt(n, r_S):.6g}) for n={n}, r_S={r_S}")
    return gamma / (1.0 - eta) * math.sqrt((2.0 * math.log(2.0 * (n - r_S)) + 2.0 * t) / (n - 1))


def sqrt_R_min(gamma: float, n: int, r_S: int, t: float) -> float:
    """Minimal noise-ratio threshold R = gamma sqrt((2log(2(n-r_S)) + 2t)/(n-1))."""
    return gamma * math.sqrt((2.0 * math.log(2.0 * (n - r_S)) + 2.0 * t) / (n - 1))


@dataclass(frozen=True)
class Assumption1Report:
    """Outcome of the square-root regime check.

    ok is the conjunction of the three checkable conditions; c is the signal
    budget constant entering the total-variation cap."""

    ok: bool
    c: float
    n_large_enough: bool
    eta_large_enough: bool
    lambda0_large_enough: bool
    signal_small_enough: bool
    tv_cap: float
    details: dict

    def to_dict(self) -> dict:
        return asdict(self)


def check_assumption1(n: int, r_S: int, gamma: float, sigma: float, a: float,
                      eta: float, t: float, lambda0: float,
                      norm_Df0_1: float) -> Assumption1Report:
    """Check the square-root regime conditions for the given parameters.

    Conditions: n > 8a; eta > 2(sqrt(r_S) + sqrt(2a))/sqrt(n - sqrt(8an));
    lambda0 >= R/(1 - eta) for the minimal R; and the signal's total
    variation below c*sigma*sqrt(1 - sqrt(8a/n))/lambda0, with
    c = sqrt((eta/2 - (sqrt(r_S)+sqrt(2a))/sqrt(n - sqrt(8an)))^2 + 4) - 2.
    """
    if n <= 8 * a:
        raise ValueError(f"need n > 8a; got n={n}, a={a}")
    p = (math.sqrt(r_S) + math.sqrt(2 * a)) / math.sqrt(n - math.sqrt(8 * a * n))
    c = math.sqrt((eta / 2.0 - p) ** 2 + 4.0) - 2.0
    eta_ok = eta > 2.0 * p
    R = sqrt_R_min(gamma, n, r_S, t)
    lam0_ok = lambda0 >= R / (1.0 - eta) * (1.0 - 1e-12)
    tv_cap = c * sigma * math.sqrt(1.0 - math.sqrt(8.0 * a / n)) / lambda0
    signal_ok = norm_Df0_1 <= tv_cap
    details = {"p": p, "R_min": R, "lambda0_min": R / (1.0 - eta),
               "eta_threshold": 2.0 * p}
    if not eta_ok:
        details["reason"] = "eta too small for r_S"
    return Assumption1Report(ok=bool(eta_ok and lam0_ok and signal_ok), c=c,
                             n_large_enough=True, eta_large_enough=bool(eta_ok),
                             lambda0_large_enough=bool(lam0_ok),
                             signal_small_enough=bool(signal_ok),
                             tv_cap=tv_cap, details=details)


@dataclass(frozen=True)
class AdmissibleCaps:
    """Caps on r_S and gamma for active sets compatible with fixed square-root
    tuning; non-positive caps mean no active set qualifies."""

    max_r_S: float
    max_gamma: float
    feasible: bool

    def to_dict(self) -> dict:
        return asdict(self)


def admissible_set_requirements(lambda0: float, a: float, t: float, eta: float,
                                n: int) -> AdmissibleCaps:
    """Requirements an active set must meet for fixed (lambda0, a, t, eta):
    r_S < (eta sqrt(n - sqrt(8an))/2 - sqrt(2a))^2 and
    gamma <= lambda0 (1-eta) sqrt((n-1)/(2 log(2n) + 2t))."""
    if n <= 8 * a:
        raise ValueError(f"need n > 8a; got n={n}, a={a}")
    root = eta * math.sqrt(n - math.sqrt(8 * a * n)) / 2.0 - math.sqrt(2 * a)
    max_r = root ** 2 if root > 0 else -(root ** 2)
    max_g = lambda0 * (1.0 - eta) * math.sqrt((n - 1) / (2.0 * math.log(2.0 * n) + 2.0 * t))
    return AdmissibleCaps(max_r_S=max_r, max_gamma=max_g,
                          feasible=bool(root > 0 and max_g > 0))


@dataclass(frozen=True)
class OracleRHS:
    """A right-hand side value, its additive decomposition, and the
    probability with which the inequality is guaranteed."""

    theorem_id: str
    value: float
    breakdown: dict
    probability: float

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass
class TheoremInputs:
    """Everything an inequality evaluation may need.

    f is the oracle candidate (defaults to f0); norms of Df, D_S f and
    D_{-S} f are derived from it.  kappa_source selects between the
    closed-form compatibility bound and a kappa passed in kappa_value (the
    exact one of compatibility.kappa_numeric, say).
    """

    active: ActiveSet
    report: TheoryReport
    family: str
    sigma: float
    t: float
    x: float | None = None
    a: float | None = None
    eta: float | None = None
    lam: float | None = None
    lambda0: float | None = None
    f: np.ndarray | None = None
    f0: np.ndarray | None = None
    D: object = None
    kappa_source: str = "paper_bound"
    kappa_value: float | None = None
    grid_constant: float | None = None

    def approx_err(self) -> float:
        if self.f is None or self.f0 is None:
            return 0.0
        d = np.asarray(self.f) - np.asarray(self.f0)
        return float(np.sum(d ** 2) / len(d))

    def df_norms(self) -> tuple[float, float, float]:
        """(||Df||_1, ||D_S f||_1, ||D_{-S} f||_1) of the candidate f."""
        if self.f is None or self.D is None:
            return 0.0, 0.0, 0.0
        Df = np.abs(self.D @ np.asarray(self.f, dtype=np.float64))
        total = float(Df.sum())
        s_part = float(Df[np.asarray(self.active.S, dtype=np.int64) - 1].sum()) if self.active.S else 0.0
        return total, s_part, total - s_part

    def sqrt_rs_over_kappa(self) -> float:
        """sqrt(r_S)/kappa(S, W) from the selected source."""
        if self.kappa_source == "numeric":
            if self.kappa_value is None:
                raise ValueError("kappa_source='numeric' needs kappa_value")
            return math.sqrt(self.active.r_S) / self.kappa_value
        return kappa_bound(self.family, self.active, self.report.weights,
                           self.report.gamma).sqrt_rs_over_kappa_weighted


def _need(inputs: TheoremInputs, *names):
    for nm in names:
        if getattr(inputs, nm) is None:
            raise ValueError(f"theorem needs input {nm!r}")


def _check_equal_sizes(inp: TheoremInputs, even: bool = False):
    active = inp.active
    if active.n_min != active.n_max:
        raise TheoremHypothesisError(
            f"needs n_min = n_max; got {active.n_min} != {active.n_max}")
    if even and active.n_max % 2 != 0:
        raise TheoremHypothesisError(f"needs even component size; got {active.n_max}")


def _check_cycle_nonempty(inp: TheoremInputs):
    if not inp.active.S:
        raise TheoremHypothesisError("cycle inequalities need a nonempty active set")


def _log2n_t(inp: TheoremInputs) -> float:
    return math.log(2.0 * inp.active.n) + inp.t


def _lhs_sqrt(inp: TheoremInputs) -> float:
    _need(inp, "a", "eta")
    n = inp.active.n
    return 2.0 * (1.0 - inp.eta) * math.sqrt(1.0 - math.sqrt(8.0 * inp.a / n)) \
        * inp.sigma * inp.lambda0


def _penalty_intermediate(inp: TheoremInputs, pen_ms: float) -> float:
    # sharper penalty constant (1+eta)(1+sqrt(4a/n)) before it is rounded up to 4
    return 4.0 * (1.0 + inp.eta) * (1.0 + math.sqrt(4.0 * inp.a / inp.active.n)) \
        * inp.sigma * inp.lambda0 * pen_ms


@dataclass(frozen=True)
class _Kind:
    """What an estimator changes in an inequality.  Each square-root bound is
    its plain twin with x -> a, 4 lam -> 16 sigma lambda0, the kappa term
    lam sqrt(r_S)/(kappa sigma) -> 4 lambda0 sqrt(r_S)/kappa, and the family
    rates times 4/(1 - eta) over n - 1 in place of n."""

    name: str             # "plain" | "sqrt"
    level: str            # the tuning input: "lam" | "lambda0"
    dev: str              # the deviation parameter: "x" | "a"
    tuning_needs: tuple   # inputs every minimal tuning of the kind reads
    dev_weight: float     # probability 1 - dev_weight exp(-dev) - exp(-t)
    penalty: object       # inputs -> RHS coefficient of ||D f||_1
    kappa: object         # (inputs, sqrt(r_S)/kappa) -> kappa stochastic term
    rate: object          # inputs -> multiplier of the family rates ...
    rate_shift: int       # ... whose denominator is n - rate_shift
    slow_lhs: object      # inputs -> LHS coefficient of ||D_S fhat||_1 (slow rate)
    intermediate: object = None  # (inputs, ||D_{-S} f||_1) -> noted sharper penalty


PLAIN = _Kind("plain", "lam", "x", (), 1.0,
              penalty=lambda i: 4.0 * i.lam,
              kappa=lambda i, sr_k: i.lam * sr_k / i.sigma,
              rate=lambda i: 1.0, rate_shift=0,
              slow_lhs=lambda i: 2.0 * i.lam)
SQRT = _Kind("sqrt", "lambda0", "a", ("eta",), 4.0,
             penalty=lambda i: 16.0 * i.sigma * i.lambda0,
             kappa=lambda i, sr_k: 4.0 * i.lambda0 * sr_k,
             rate=lambda i: 4.0 * (1.0 / (1.0 - i.eta)), rate_shift=1,
             slow_lhs=_lhs_sqrt, intermediate=_penalty_intermediate)


@dataclass(frozen=True)
class _Thm:
    kind: _Kind
    min_tuning: object        # inputs -> minimal lambda or lambda0
    rhs: object               # (row, inputs) -> (value, breakdown)
    needs: tuple = ()         # inputs the row reads beyond its kind's
    K: str | None = None      # family rates: the family of the closed-form K; None
                              # for equal even sizes
    coeff: object = None      # slow rate: closed-form penalty coefficient
    check: object = None      # hypothesis check
    slow_lhs: bool = False    # the LHS carries kind.slow_lhs * ||D_S fhat||_1


def _fast_sum(kind: _Kind, inp: TheoremInputs, rates: dict):
    """approximation + penalty on D_{-S} f + sigma^2 (sum of the noise terms
    and the rates)^2, each term recorded in the breakdown."""
    n = inp.active.n
    parts = {f"noise_{kind.dev}": math.sqrt(2.0 * getattr(inp, kind.dev) / n),
             "noise_rs": math.sqrt(inp.active.r_S / n), **rates}
    tot = inp.sigma * sum(parts.values())
    bd = {f"stochastic.{k}": inp.sigma * v for k, v in parts.items()}
    bd["stochastic_total"] = tot ** 2
    _, _, pen_ms = inp.df_norms()
    approx = inp.approx_err()
    pen = kind.penalty(inp) * pen_ms
    bd.update(approximation=approx, penalty=pen)
    return approx + pen + tot ** 2, bd, pen_ms


def _rhs_fast(thm: _Thm, inp: TheoremInputs):
    """Generic fast rate: the compatibility constant enters the kappa term."""
    kind = thm.kind
    value, bd, pen_ms = _fast_sum(kind, inp, {"kappa": kind.kappa(inp, inp.sqrt_rs_over_kappa())})
    if kind.intermediate is not None:
        bd["penalty_intermediate"] = kind.intermediate(inp, pen_ms)
    return value, bd


def _rhs_family_fast(thm: _Thm, inp: TheoremInputs):
    """Path and cycle fast rates: the kappa term becomes a K rate and a
    weights rate, both over the kind's denominator."""
    kind, active = thm.kind, inp.active
    if thm.K is None:
        _check_equal_sizes(inp, even=True)
    if active.n_min < 4:
        raise TheoremHypothesisError(
            f"needs every component size >= 4; smallest is {active.n_min}")
    n, r = active.n, active.r_S
    denom = n - kind.rate_shift
    if thm.K is None:
        rate_K = math.sqrt(4.0 * r * _log2n_t(inp) / denom)
    else:
        kb = kappa_bound(thm.K, active)
        K = kb.K if kb.K is not None else kb.K_prime
        rate_K = math.sqrt(active.n_max * K * _log2n_t(inp) / denom)
    rate_w = math.sqrt(10.0 * (r / denom) * _log2n_t(inp) * math.log(n / r))
    mult = kind.rate(inp)
    value, bd, _ = _fast_sum(kind, inp, {"rate_K": mult * rate_K, "rate_weights": mult * rate_w})
    return value, bd


def _rhs_slow(thm: _Thm, inp: TheoremInputs):
    """Slow rate: approximation + noise + coefficient * ||Df||_1, with the
    row's closed-form coefficient (grids) or the kind's penalty."""
    kind, n = thm.kind, inp.active.n
    tot, _, _ = inp.df_norms()
    approx = inp.approx_err()
    head = math.sqrt(2.0 * getattr(inp, kind.dev))
    noise = inp.sigma ** 2 / n * (head + math.sqrt(inp.active.r_S)) ** 2
    pen = (thm.coeff or kind.penalty)(inp) * tot
    return approx + noise + pen, {"approximation": approx, "noise": noise, "penalty": pen}


def _min_lam_theorem(inp: TheoremInputs) -> float:
    return lambda_plain(inp.report.gamma, inp.sigma, inp.active.n, inp.active.r_S, inp.t)


def _min_lam_family(inp: TheoremInputs) -> float:
    return inp.sigma * math.sqrt(inp.active.n_max * _log2n_t(inp)) / inp.active.n


def _min_lam_equal(inp: TheoremInputs) -> float:
    return inp.sigma * math.sqrt(_log2n_t(inp) / (inp.active.r_S * inp.active.n))


def _min_lam_grid(inp: TheoremInputs) -> float:
    n = inp.active.n
    return inp.grid_constant * inp.sigma * math.sqrt(math.log(n) * _log2n_t(inp)) / n


def _min_lam0_theorem(inp: TheoremInputs) -> float:
    return lambda0_sqrt(inp.report.gamma, inp.active.n, inp.active.r_S, inp.t, inp.eta)


def _min_lam0_family(inp: TheoremInputs) -> float:
    n = inp.active.n
    return math.sqrt(inp.active.n_max * _log2n_t(inp) / (n * (n - 1))) / (1.0 - inp.eta)


def _min_lam0_equal(inp: TheoremInputs) -> float:
    n = inp.active.n
    return math.sqrt(_log2n_t(inp) / (inp.active.r_S * (n - 1))) / (1.0 - inp.eta)


def _min_lam0_grid(inp: TheoremInputs) -> float:
    n = inp.active.n
    return inp.grid_constant / (1.0 - inp.eta) * math.sqrt(math.log(n) * _log2n_t(inp) / (n * (n - 1)))


def _sqrt_grid_coeff(inp: TheoremInputs) -> float:
    n = inp.active.n
    return inp.grid_constant * inp.sigma / (1.0 - inp.eta) \
        * math.sqrt(math.log(n) * _log2n_t(inp) / (n * (n - 1)))


THEOREMS: dict[str, _Thm] = {
    "plain_fast": _Thm(PLAIN, _min_lam_theorem, _rhs_fast),
    "plain_slow": _Thm(PLAIN, _min_lam_theorem, _rhs_slow, slow_lhs=True),
    "sqrt_fast": _Thm(SQRT, _min_lam0_theorem, _rhs_fast, ("eta",)),
    "sqrt_slow": _Thm(SQRT, _min_lam0_theorem, _rhs_slow, slow_lhs=True),
    "path_fast": _Thm(PLAIN, _min_lam_family, _rhs_family_fast, K="path"),
    "path_fast_equal": _Thm(PLAIN, _min_lam_equal, _rhs_family_fast),
    "sqrt_path_fast": _Thm(SQRT, _min_lam0_family, _rhs_family_fast, ("eta",), K="path"),
    "sqrt_path_fast_equal": _Thm(SQRT, _min_lam0_family, _rhs_family_fast, ("eta",)),
    "cycle_fast": _Thm(PLAIN, _min_lam_family, _rhs_family_fast, K="cycle",
                       check=_check_cycle_nonempty),
    "sqrt_cycle_fast": _Thm(SQRT, _min_lam0_family, _rhs_family_fast, ("eta",), K="cycle",
                            check=_check_cycle_nonempty),
    "tree_cycle_slow": _Thm(PLAIN, _min_lam_family, _rhs_slow),
    "tree_cycle_slow_equal": _Thm(PLAIN, _min_lam_equal, _rhs_slow, check=_check_equal_sizes),
    "sqrt_tree_cycle_slow": _Thm(SQRT, _min_lam0_family, _rhs_slow),
    "sqrt_tree_cycle_slow_equal": _Thm(SQRT, _min_lam0_equal, _rhs_slow,
                                       check=_check_equal_sizes),
    "grid_slow": _Thm(PLAIN, _min_lam_grid, _rhs_slow, ("grid_constant",),
                      coeff=_min_lam_grid),
    "sqrt_grid_slow": _Thm(SQRT, _min_lam0_grid, _rhs_slow, ("eta", "grid_constant"),
                           coeff=_sqrt_grid_coeff),
}


def _row(theorem_id: str) -> _Thm:
    thm = THEOREMS.get(theorem_id)
    if thm is None:
        raise ValueError(f"unknown theorem id {theorem_id!r}")
    return thm


def theorem_kind(theorem_id: str) -> str:
    return _row(theorem_id).kind.name


def minimal_tuning(theorem_id: str, inputs: TheoremInputs) -> float:
    """Theorem-minimal lambda (plain ids) or lambda0 (sqrt ids)."""
    thm = _row(theorem_id)
    _need(inputs, *thm.kind.tuning_needs, *thm.needs)
    return thm.min_tuning(inputs)


def levels(theorem_ids, inputs: TheoremInputs, lam: float | None = None,
           lambda0: float | None = None) -> tuple[float | None, float | None]:
    """(lam, lambda0), each level not given set to the minimal tuning that
    the requested theorems of its kind share (None when none is of that
    kind).  ValueError names an unknown id, or says that theorems disagree."""
    kinds = [_row(tid).kind for tid in theorem_ids]
    out = {"lam": lam, "lambda0": lambda0}
    for kind in (PLAIN, SQRT):
        vals = [minimal_tuning(tid, inputs) for tid, k in zip(theorem_ids, kinds)
                if k is kind and out[kind.level] is None]
        if vals and max(vals) - min(vals) > 1e-12 * max(vals):
            raise ValueError("requested theorems disagree on the minimal tuning value; "
                             "run them in separate experiments or fix the tuning explicitly")
        out[kind.level] = vals[0] if vals else out[kind.level]
    return out["lam"], out["lambda0"]


def lhs_penalty_coefficient(theorem_id: str, inputs: TheoremInputs) -> float:
    """Coefficient of ||D_S f_hat||_1 on the inequality's left-hand side."""
    thm = _row(theorem_id)
    if not thm.slow_lhs:
        return 0.0
    _need(inputs, thm.kind.level)
    return thm.kind.slow_lhs(inputs)


def oracle_rhs(theorem_id: str, inputs: TheoremInputs) -> OracleRHS:
    """Evaluate one inequality's right-hand side with a term breakdown.

    Raises ValueError naming a missing input, and a
    compatibility.HypothesisError (a TheoremHypothesisError for the
    inequality's own) naming the violated hypothesis if the inputs fall
    outside the inequality's or its compatibility bound's assumptions.
    """
    thm = _row(theorem_id)
    kind = thm.kind
    _need(inputs, kind.level, kind.dev, *thm.needs)
    if thm.check is not None:
        thm.check(inputs)
    value, breakdown = thm.rhs(thm, inputs)
    prob = 1.0 - kind.dev_weight * math.exp(-getattr(inputs, kind.dev)) - math.exp(-inputs.t)
    return OracleRHS(theorem_id=theorem_id, value=float(value),
                     breakdown=breakdown, probability=float(prob))
