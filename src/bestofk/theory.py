"""Closed-form calculators for every bound used by the toolkit.

Covers the Bernoulli KL value and its sandwich bounds, the log-inflation
transform turning complexity terms into sample counts, the oracle-variance
radius with its sample-size inversion, the occlusion constants of uniform
play, the information sharing terms for marked/bandit feedback, the per-arm
complexity terms and total-query expressions for all three feedback models,
the dependent and independent lower bounds, and the feasibility range of the
all-zeros probability for equal-mean (k-1)-wise independent vectors together
with the machinery that rebuilds a full joint table from that single degree
of freedom.

Logs are natural throughout; the transform keeps its explicit log2(e)
constant.  All functions are pure.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .errors import DomainError, IdentifiabilityError, InfeasibleError
from .game import check_model
from .measures import JointTableMeasure, _unique_best

__all__ = [
    "GapProfile",
    "BoundReport",
    "FeasibilityRange",
    "bernoulli_kl",
    "kl_bounds",
    "calT",
    "true_variance_radius",
    "inversion_sample_size",
    "kappa_constants",
    "poisson_binomial_pmf",
    "info_sharing",
    "tau_terms",
    "upper_bound_total",
    "dependent_lower_bound",
    "simplified_dependent_lower_bound",
    "independent_lower_bound",
    "h_sharing",
    "psi",
    "phi",
    "feasible_range",
    "w0_atoms",
    "joint_from_w0",
]

LOG2E = math.log2(math.e)

# ---------------------------------------------------------------------------
# Bernoulli KL divergence and its quadratic sandwich.
# ---------------------------------------------------------------------------

def bernoulli_kl(x: float, y: float) -> float:
    """d(x, y) = x log(x/y) + (1-x) log((1-x)/(1-y)), with 0 log 0 = 0.

    Returns ``inf`` when y sits on the boundary while x does not (the
    divergence genuinely diverges there).
    """
    if not (0.0 <= x <= 1.0 and 0.0 <= y <= 1.0):
        raise DomainError("x and y must lie in [0, 1]")
    if x == y:
        return 0.0
    total = 0.0
    if x > 0.0:
        if y == 0.0:
            return math.inf
        total += x * math.log(x / y)
    if x < 1.0:
        if y == 1.0:
            return math.inf
        total += (1.0 - x) * math.log((1.0 - x) / (1.0 - y))
    return total


def kl_bounds(x: float, y: float) -> tuple[float, float]:
    """Quadratic sandwich: lower <= d(x, y) <= upper.

    lower = (y-x)^2/2 / sup_{z in [x,y]} z(1-z);
    upper = (y-x)^2/2 / min{x(1-x), y(1-y)} (inf on the boundary).
    """
    if not (0.0 <= x <= 1.0 and 0.0 <= y <= 1.0):
        raise DomainError("x and y must lie in [0, 1]")
    gap2 = (y - x) ** 2 / 2.0
    lo, hi = min(x, y), max(x, y)
    # z(1-z) is concave: sup at 1/2 if inside, else nearest endpoint
    z_star = min(max(0.5, lo), hi)
    sup = z_star * (1.0 - z_star)
    lower = gap2 / sup if sup > 0.0 else (0.0 if gap2 == 0.0 else math.inf)
    inf_var = min(x * (1.0 - x), y * (1.0 - y))
    upper = gap2 / inf_var if inf_var > 0.0 else (0.0 if gap2 == 0.0 else math.inf)
    return lower, upper


# ---------------------------------------------------------------------------
# The log-inflation transform, the stage calculators, the Poisson-binomial helper.
# ---------------------------------------------------------------------------

def calT(tau: float, n: int, delta: float) -> float:
    """tau * log((16 n log2(e)/delta) * log(8 n tau log2(e)/delta)).

    Converts a complexity term into a per-arm sample count.  Undefined when
    the inner log argument is <= 1.
    """
    if tau <= 0.0:
        raise DomainError("tau must be positive")
    if n < 1:
        raise DomainError("n must be >= 1")
    if not (0.0 < delta < 1.0):
        raise DomainError("delta must lie in (0, 1)")
    inner = 8.0 * n * tau * LOG2E / delta
    if inner <= 1.0:
        raise DomainError("transform undefined: inner log argument <= 1")
    return tau * math.log((16.0 * n * LOG2E / delta) * math.log(inner))


def true_variance_radius(V: float, T: float, n: int, delta: float) -> float:
    """Oracle-variance radius sqrt(2 V L / T) + 14 L / (3(T-1)), L = log(8 n t^2/delta).

    t = log2(T), matching the doubling schedule.
    """
    if T <= 1:
        raise DomainError("need T > 1")
    t = math.log2(T)
    log_term = math.log(8.0 * n * t * t / delta)
    return math.sqrt(2.0 * V * log_term / T) + 14.0 * log_term / (3.0 * (T - 1))


def inversion_sample_size(V: float, gap: float, n: int, delta: float) -> float:
    """Samples guaranteeing the oracle-variance radius drops below ``gap``:

    (16 V/gap^2 + 14/gap) * log((24 n/delta) log((12 n/delta)(16 V/gap^2 + 14/gap))).
    """
    if gap <= 0.0:
        raise DomainError("gap must be positive")
    if V < 0.0:
        raise DomainError("variance must be nonnegative")
    alpha = 16.0 * V / gap**2 + 14.0 / gap
    inner = (12.0 * n / delta) * alpha
    if inner <= 1.0:
        raise DomainError("inversion undefined: inner log argument <= 1")
    return alpha * math.log((24.0 * n / delta) * math.log(inner))


def kappa_constants(u_prime_size: int, k1: int) -> tuple[float, float]:
    """Occlusion constants of a uniform size-k1 draw from a size-m pool.

    kappa1 = Pr(j not in S | i in S) = 1 - (k1-1)/(m-1): how often a fixed
    other arm stays out of the query.  kappa2 = (k1-1)/(m-2*k1): the co-draw
    mass against the pool slack (0 for singleton queries; infinite when the
    pool cannot hold two disjoint queries).
    """
    if not (1 <= k1 <= u_prime_size) or u_prime_size < 2:
        raise DomainError("need 1 <= k1 <= m and m >= 2")
    kappa1 = 1.0 - (k1 - 1) / (u_prime_size - 1)
    if k1 == 1:
        kappa2 = 0.0
    elif u_prime_size - 2 * k1 <= 0:
        kappa2 = math.inf
    else:
        kappa2 = (k1 - 1) / (u_prime_size - 2 * k1)
    return kappa1, kappa2


def poisson_binomial_pmf(probs: Sequence[float]) -> np.ndarray:
    """Exact pmf of a sum of independent Bernoullis, by convolution DP."""
    pmf = np.ones(1)
    for p in probs:
        if not (0.0 <= p <= 1.0):
            raise DomainError("probabilities must lie in [0, 1]")
        nxt = np.zeros(len(pmf) + 1)
        nxt[:-1] = pmf * (1.0 - p)
        nxt[1:] += pmf * p
        pmf = nxt
    return pmf


def info_sharing(means: Sequence[float], k: int, model: str) -> float:
    """Information sharing term over the k-1 largest supplied means.

    marked: E[1 / (1 + sum of k-1 Bernoulli indicators)], exact via the
    Poisson-binomial pmf.  bandit: product of (1 - mean) over the same arms
    (0 when some mean is 1, which destroys identifiability).  semi: 1.
    """
    check_model(model)
    if k < 1:
        raise DomainError("k must be >= 1")
    if len(means) < k - 1:
        raise DomainError(f"need at least k-1 = {k - 1} means")
    if any(not (0.0 <= m <= 1.0) for m in means):
        raise DomainError("means must lie in [0, 1]")
    top = sorted((float(m) for m in means), reverse=True)[: k - 1]
    if model == "semi":
        return 1.0
    if model == "bandit":
        return math.prod(1.0 - m for m in top)
    pmf = poisson_binomial_pmf(top)
    return float(sum(pmf[s] / (1 + s) for s in range(len(pmf))))


# ---------------------------------------------------------------------------
# Gap profiles and per-arm complexity terms.
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GapProfile:
    """Means sorted descending with their top-k gaps and variances.

    gaps[i] = mu_i - mu_{k+1} for i < k (0-based: i <= k-1) and
    mu_k - mu_i for i >= k; variances are mu(1-mu).  Requires the top k set
    to be unique: mu_k beats mu_{k+1} by the toolkit's one tie rule,
    ``measures._unique_best``.
    """

    means: tuple[float, ...]
    k: int
    gaps: tuple[float, ...] = field(init=False)
    variances: tuple[float, ...] = field(init=False)

    def __post_init__(self):
        means = tuple(sorted((float(m) for m in self.means), reverse=True))
        n = len(means)
        if not (1 <= self.k < n):
            raise DomainError("need 1 <= k < n")
        if any(not (0.0 <= m <= 1.0) for m in means):
            raise DomainError("means must lie in [0, 1]")
        if _unique_best(np.array(means[self.k - 1 : self.k + 1])) is None:
            raise DomainError("top-k set not unique: mu_k must exceed mu_{k+1} by more than 1e-12")
        object.__setattr__(self, "means", means)
        gaps = tuple(
            means[i] - means[self.k] if i < self.k else means[self.k - 1] - means[i]
            for i in range(n)
        )
        object.__setattr__(self, "gaps", gaps)
        object.__setattr__(self, "variances", tuple(m * (1.0 - m) for m in means))

    @property
    def n(self) -> int:
        return len(self.means)


@dataclass(frozen=True)
class BoundReport:
    """One evaluated closed-form quantity with its inputs echoed for audit."""

    name: str
    inputs: dict
    value: float
    terms: dict = field(default_factory=dict)
    notes: tuple[str, ...] = ()

    def render(self) -> str:
        lines = [f"bound: {self.name}", f"value: {self.value!r}"]
        for key in sorted(self.inputs):
            lines.append(f"input {key}: {self.inputs[key]!r}")
        for key in sorted(self.terms):
            lines.append(f"term {key}: {self.terms[key]!r}")
        for note in self.notes:
            lines.append(f"note: {note}")
        return "\n".join(lines)


def tau_terms(profile: GapProfile, model: str) -> list[float]:
    """Per-arm complexity terms (0-based positions, means sorted descending).

    semi:   56/gap + 256 * max{V_i, worst V on the other side} / gap^2
    marked: 56/gap + 256 * (mu_i if top side else mu_k) / gap^2
    bandit: 66/gap + 2560 * [2(1-mu_{k+1})mu_i + (1-mu_{k+1})^2 (1-H^B)] / gap^2
            (top side; mirrored below), an upper bound on the true term.
    """
    check_model(model)
    k, means, gaps, variances = profile.k, profile.means, profile.gaps, profile.variances
    n = profile.n
    if model == "semi":
        worst_bottom = max(variances[k:])
        worst_top = max(variances[:k])
        out = []
        for i in range(n):
            other = worst_bottom if i < k else worst_top
            out.append(56.0 / gaps[i] + 256.0 * max(variances[i], other) / gaps[i] ** 2)
        return out
    if model == "marked":
        return [
            56.0 / gaps[i]
            + 256.0 * (means[i] if i < k else means[k - 1]) / gaps[i] ** 2
            for i in range(n)
        ]
    hb = info_sharing(means, k, "bandit")
    mu_next = means[k]
    out = []
    for i in range(n):
        if i < k:
            bracket = 2.0 * (1.0 - mu_next) * means[i] + (1.0 - mu_next) ** 2 * (1.0 - hb)
        else:
            bracket = 2.0 * (1.0 - means[i]) * mu_next + (1.0 - means[i]) ** 2 * (1.0 - hb)
        out.append(66.0 / gaps[i] + 2560.0 * bracket / gaps[i] ** 2)
    return out


def upper_bound_total(profile: GapProfile, model: str, delta: float,
                      fewer_than_k_allowed: bool = False) -> BoundReport:
    """Total-query upper bound for stagewise elimination.

    semi:   8 T(t_(1)) + (4/k) sum_{i>k} T(t_(i)) with t = tau
    marked: 16 T(tau^M_(1)/H^M) + (8/k) sum_{i>k} T(tau^M_(i)/H^M); with the
            fewer-than-k option the alternative form
            8 max_{i in [k-1]} i T(tau^M_(i)) + (8/(k H^M)) sum_{i>=2} T(tau^M_(i)).
    bandit: 20 T(tau^B_(1)/H^B) + (5/k) sum_{i>k} T(tau^B_(i)/H^B); requires
            n >= 7k/2 and every mean < 1.
    """
    check_model(model)
    n, k = profile.n, profile.k
    inputs = {"model": model, "n": n, "k": k, "delta": delta,
              "means": profile.means, "fewer_than_k_allowed": fewer_than_k_allowed}
    notes: tuple[str, ...] = ()
    taus = tau_terms(profile, model)
    order = sorted(range(n), key=lambda i: -taus[i])
    sorted_taus = [taus[i] for i in order]

    if model == "semi":
        value = 8.0 * calT(sorted_taus[0], n, delta)
        value += (4.0 / k) * sum(calT(t, n, delta) for t in sorted_taus[k:])
    elif model == "marked":
        hm = info_sharing(profile.means, k, "marked")
        if fewer_than_k_allowed:
            lead = max(
                (i + 1) * calT(sorted_taus[i], n, delta)
                for i in range(max(1, k - 1))
            )
            value = 8.0 * lead
            value += (8.0 / (k * hm)) * sum(calT(t, n, delta) for t in sorted_taus[1:])
            notes = ("fewer-than-k form",)
        else:
            value = 16.0 * calT(sorted_taus[0] / hm, n, delta)
            value += (8.0 / k) * sum(calT(t / hm, n, delta) for t in sorted_taus[k:])
        inputs["H_M"] = hm
    else:
        if any(m >= 1.0 for m in profile.means):
            raise IdentifiabilityError("bandit bound needs every mean < 1 (identifiability)")
        if n < 7 * k / 2:
            raise DomainError(f"bandit bound needs n >= 7k/2, got n={n}, k={k}")
        hb = info_sharing(profile.means, k, "bandit")
        value = 20.0 * calT(sorted_taus[0] / hb, n, delta)
        value += (5.0 / k) * sum(calT(t / hb, n, delta) for t in sorted_taus[k:])
        inputs["H_B"] = hb

    return BoundReport(
        name=f"upper_bound_total[{model}]",
        inputs=inputs,
        value=value,
        terms={"tau": taus, "order": order},
        notes=notes,
    )


# ---------------------------------------------------------------------------
# Lower bounds.
# ---------------------------------------------------------------------------

def dependent_lower_bound(n: int, k: int, mu: float, p: float, delta: float,
                          model: str) -> BoundReport:
    """Expected-query lower bound against the planted instance, gap = p mu^k.

    bandit and marked share one expression:
        (4/3) (1 - p (mu/(1-mu))^k) (1-(1-mu)^k) (1-mu)^k C(n,k) gap^-2 log(1/(2 delta))
    semi:
        (2/3) mu^{2k} (1-p) C(n,k) gap^-2 log(1/(2 delta))
    """
    check_model(model)
    if not (2 <= k < n):
        raise DomainError("need 2 <= k < n")
    if not (0.0 < mu <= 0.5):
        raise DomainError("need 0 < mu <= 1/2")
    if not (0.0 < p <= 1.0):
        raise DomainError("need 0 < p <= 1")
    if not (0.0 < delta < 0.5):
        raise DomainError("need 0 < delta < 1/2")
    gap = p * mu**k
    log_term = math.log(1.0 / (2.0 * delta))
    choose = _binom(n, k)
    notes: tuple[str, ...] = ()
    if model == "semi":
        value = (2.0 / 3.0) * mu ** (2 * k) * (1.0 - p) * choose * gap**-2 * log_term
        if p == 1.0:
            notes = ("degenerate: the (1-p) factor vanishes at p=1",)
    else:
        lead = (4.0 / 3.0) * (1.0 - p * (mu / (1.0 - mu)) ** k)
        value = lead * (1.0 - (1.0 - mu) ** k) * (1.0 - mu) ** k * choose * gap**-2 * log_term
        if lead == 0.0:
            notes = ("degenerate: the 1 - p (mu/(1-mu))^k factor vanishes at mu=1/2, p=1",)
    return BoundReport(
        name=f"dependent_lower_bound[{model}]",
        inputs={"n": n, "k": k, "mu": mu, "p": p, "delta": delta, "model": model},
        value=value,
        terms={"gap": gap, "choose": choose},
        notes=notes,
    )


def simplified_dependent_lower_bound(n: int, k: int, gap: float, delta: float) -> float:
    """(1/3) C(n,k) gap^-2 log(1/(2 delta)): the small-p bandit bound at
    mu = 1 - 2^(-1/k), where (1-mu)^k = 1/2."""
    if not (2 <= k < n):
        raise DomainError("need 2 <= k < n")
    if gap <= 0.0:
        raise DomainError("gap must be positive")
    if not (0.0 < delta < 0.5):
        raise DomainError("need 0 < delta < 1/2")
    return _binom(n, k) / 3.0 * gap**-2 * math.log(1.0 / (2.0 * delta))


def h_sharing(means: Sequence[float], j: int, p_pull: int) -> float:
    """max over (p_pull-1)-subsets of [n]-{j} of prod (1-mu_i).

    The maximum picks the p_pull-1 largest (1-mu) factors, i.e. the smallest
    means excluding arm j (empty product = 1 when p_pull = 1).
    """
    n = len(means)
    if not (0 <= j < n):
        raise DomainError("arm index out of range")
    if not (1 <= p_pull <= n):
        raise DomainError("need 1 <= p_pull <= n")
    others = sorted(means[i] for i in range(n) if i != j)  # ascending: smallest first
    return math.prod(1.0 - m for m in others[: p_pull - 1])


def independent_lower_bound(means: Sequence[float], k: int, p_pull: int,
                            delta: float, model: str) -> BoundReport:
    """Lower bound for independent Bernoulli arms queried p_pull at a time.

    Per-arm terms (0-based positions over descending means, D = gap):
    bandit: j >= k: (1-mu-D)/D^2 * (1-h+mu h)/h;  j < k: (1-mu)/D^2 * (1-h+(mu-D)h)/h
    semi:   j >= k: (1-mu-D) mu / D^2;            j < k: (1-mu)(mu-D)/D^2
    Total: (max_j tau_j + (1/p_pull) sum_j tau_j) log(1/(2 delta)).
    """
    check_model(model)
    if model == "marked":
        raise DomainError("the independent lower bound covers bandit and semi observations")
    if not (0.0 < delta < 0.5):
        raise DomainError("need 0 < delta < 1/2")
    profile = GapProfile(means=tuple(means), k=k)
    n = profile.n
    if not (1 <= p_pull <= k):
        raise DomainError("need 1 <= p_pull <= k")
    taus = []
    for j in range(n):
        mu_j, d_j = profile.means[j], profile.gaps[j]
        if model == "semi":
            if j < k:
                taus.append((1.0 - mu_j) * (mu_j - d_j) / d_j**2)
            else:
                taus.append((1.0 - mu_j - d_j) * mu_j / d_j**2)
        else:
            h_j = h_sharing(profile.means, j, p_pull)
            if j < k:
                taus.append((1.0 - mu_j) / d_j**2 * (1.0 - h_j + (mu_j - d_j) * h_j) / h_j)
            else:
                taus.append((1.0 - mu_j - d_j) / d_j**2 * (1.0 - h_j + mu_j * h_j) / h_j)
    value = (max(taus) + sum(taus) / p_pull) * math.log(1.0 / (2.0 * delta))
    return BoundReport(
        name=f"independent_lower_bound[{model}]",
        inputs={"means": profile.means, "k": k, "p_pull": p_pull,
                "delta": delta, "model": model},
        value=value,
        terms={"tau": taus},
    )


def _binom(n: int, k: int) -> float:
    # exact below n=60, log-space beyond to dodge overflow
    if n <= 60:
        return float(math.comb(n, k))
    return math.exp(math.lgamma(n + 1) - math.lgamma(k + 1) - math.lgamma(n - k + 1))


# ---------------------------------------------------------------------------
# Feasibility of the all-zeros probability under (k-1)-wise independence.
# ---------------------------------------------------------------------------

def psi(p: int, mu: float, k: int) -> float:
    """mu^p (1-mu)^(k-1-p): mass of a weight-p string over k-1 coordinates."""
    if not (0 <= p <= k - 1):
        raise DomainError("need 0 <= p <= k-1")
    return mu**p * (1.0 - mu) ** (k - 1 - p)


def phi(p: int, mu: float, k: int) -> float:
    """Alternating partial sum Phi(p) = sum_{i<p} (-1)^i psi(i)."""
    if not (0 <= p <= k):
        raise DomainError("need 0 <= p <= k")
    return math.fsum((-1.0) ** i * psi(i, mu, k) for i in range(p))


@dataclass(frozen=True)
class FeasibilityRange:
    """Feasible interval for Pr(all k arms zero) given equal means mu and
    (k-1)-wise independence, plus the full Phi table encoding the one free
    degree of freedom."""

    mu: float
    k: int
    k_even: int
    k_odd: int
    lo: float
    hi: float
    phi_table: tuple[float, ...]


def feasible_range(mu: float, k: int) -> FeasibilityRange:
    """Range of Pr(all zeros) over all equal-mean (k-1)-wise independent laws.

    mu < 1/2: [(1-mu)^k (1 - rho^k_even), (1-mu)^k (1 + rho^k_odd)] with
    rho = mu/(1-mu), which equal Phi(k_even) and Phi(k_odd).  mu >= 1/2:
    [0, (1-mu)^(k-1)] = [Phi(0), Phi(1)].
    """
    if not (0.0 <= mu <= 1.0):
        raise DomainError("mu must lie in [0, 1]")
    if k < 2:
        raise DomainError("k must be >= 2")
    k_even = k if k % 2 == 0 else k - 1
    k_odd = k if k % 2 == 1 else k - 1
    table = tuple(phi(p, mu, k) for p in range(k + 1))
    if mu < 0.5:
        lo, hi = table[k_even], table[k_odd]
    else:
        lo, hi = 0.0, (1.0 - mu) ** (k - 1)
    return FeasibilityRange(mu=mu, k=k, k_even=k_even, k_odd=k_odd,
                            lo=lo, hi=hi, phi_table=table)


def w0_atoms(mu: float, k: int, w0: float) -> np.ndarray:
    """Raw atom vector of the joint law pinned by the all-zeros mass ``w0``.

    Weight-p strings t over the first k-1 arms get
        w(t) = (-1)^p w0 + (-1)^(p-1) Phi(p) = Pr(X_{-k} = t, X_k = 0),
    and Pr(X_{-k} = t, X_k = 1) = psi(p) - w(t).  No sign validation: an
    infeasible w0 shows up as a negative entry, which is exactly what
    feasibility probes look for.
    """
    if k < 2:
        raise DomainError("k must be >= 2")
    if not (0.0 <= mu <= 1.0):
        raise DomainError("mu must lie in [0, 1]")
    probs = np.zeros(2**k)
    for t in range(2 ** (k - 1)):
        weight = t.bit_count()
        w_t = (-1.0) ** weight * w0 + (-1.0) ** (weight - 1) * phi(weight, mu, k)
        probs[t] = w_t  # X_k = 0 atoms: top bit clear
        probs[t | (1 << (k - 1))] = psi(weight, mu, k) - w_t
    return probs


def joint_from_w0(mu: float, k: int, w0: float) -> JointTableMeasure:
    """Rebuild the unique joint law with all-zeros mass ``w0``.

    Raises ``InfeasibleError`` (carrying the offending minimum atom) when w0
    lies outside the feasible range.
    """
    probs = w0_atoms(mu, k, w0)
    min_atom = float(probs.min())
    if min_atom < -1e-12:
        raise InfeasibleError(
            f"w0={w0} lies outside the feasible range (minimum atom {min_atom})"
        )
    return JointTableMeasure(k=k, probs=tuple(np.clip(probs, 0.0, None)))
