"""One-dimensional quadrature for the segment integrals.

Two rules live here.  :func:`gauss_jacobi` builds a fixed N-node Gauss–Jacobi
rule by Golub–Welsch; :func:`segment_rule` caches the rule whose weight
``(1-x)**(m_hi/n) * (1+x)**(m_lo/n)`` matches a segment density's endpoint
behaviour exactly (Gauss–Legendre on a panel that touches no entry), and
:func:`_ellipse_rho` gives the ellipse parameter of the a-priori bound on
that rule's error.  :mod:`gmeanrep.representation` computes every remainder
and moment with them alone.  The keyhole contour, the ``quad-*`` suites and
the tests' tight references use the adaptive engine below.

The adaptive engine pairs a 15-point Kronrod rule with its embedded 7-point Gauss rule
for per-panel error estimation, refines the worst panel first, and routes the
whole interval through a tanh-sinh ("double exponential") change of variable
so that integrands with algebraic endpoint behaviour such as
``|t - lo|**(1/n)`` — bounded value, unbounded derivative — are tamed before
any panel is laid down.  :func:`integrate_near_pole` makes the real
projection of a nearby pole an endpoint too: it splits there once and lets
the remap cluster nodes on both sides of it.

Integrands receive a 1-D ``ndarray`` of abscissae and must return a same-shape
array (real or complex).  Complex integrands are handled natively: real and
imaginary parts share panels and refinement decisions.

Results are deterministic: panels are refined strictly worst-error-first with
insertion order as tie-break, and the final reduction sums panels in
left-to-right position order regardless of the refinement history.
"""

from __future__ import annotations

import functools
import heapq
import math
from dataclasses import dataclass

import numpy as np


class QuadratureFailure(RuntimeError):
    """Raised by consumers when an integral did not converge.

    Carries the partial result (whose meaning depends on the caller) in the
    ``result`` attribute.  ``integrate`` itself never raises on
    non-convergence; it returns ``converged=False``.
    """

    def __init__(self, message: str, result=None):
        super().__init__(message)
        self.result = result


@dataclass(frozen=True)
class QuadratureSpec:
    """Tolerances and work limits for integration.

    The default is the library's one accuracy target:
    :mod:`gmeanrep.representation` holds every remainder and every density
    moment to it (there ``max_subdivisions`` bounds the panels one segment
    may be cut into), and :func:`integrate` uses it when no spec is given, as
    the contour's arcs do.  Other values are for the adaptive engine alone:
    the contour's line budget and the tight references of the tests and the
    ``quad-*`` suites.
    """

    abs_tol: float = 1e-12
    rel_tol: float = 1e-10
    max_subdivisions: int = 2000

    def __post_init__(self):
        if not (self.abs_tol > 0.0 and self.rel_tol > 0.0):
            raise ValueError("tolerances must be positive")
        if self.max_subdivisions < 1:
            raise ValueError("max_subdivisions must be >= 1")


@dataclass(frozen=True)
class QuadratureResult:
    value: complex | float
    error_estimate: float
    subdivisions_used: int
    converged: bool


# 15-point Kronrod extension of 7-point Gauss-Legendre on [-1, 1]
# (abscissae ascending; the embedded Gauss nodes sit at the odd indices).
_XK = np.array([
    -0.991455371120812639206854697526329,
    -0.949107912342758524526189684047851,
    -0.864864423359769072789712788640926,
    -0.741531185599394439863864773280788,
    -0.586087235467691130294144838258730,
    -0.405845151377397166906606412076961,
    -0.207784955007898467600689403773245,
    0.0,
    0.207784955007898467600689403773245,
    0.405845151377397166906606412076961,
    0.586087235467691130294144838258730,
    0.741531185599394439863864773280788,
    0.864864423359769072789712788640926,
    0.949107912342758524526189684047851,
    0.991455371120812639206854697526329,
])
_WK = np.array([
    0.022935322010529224963732008058970,
    0.063092092629978553290700663189204,
    0.104790010322250183839876322541518,
    0.140653259715525918745189590510238,
    0.169004726639267902826583426598550,
    0.190350578064785409913256402421014,
    0.204432940075298892414161999234649,
    0.209482141084727828012999174891714,
    0.204432940075298892414161999234649,
    0.190350578064785409913256402421014,
    0.169004726639267902826583426598550,
    0.140653259715525918745189590510238,
    0.104790010322250183839876322541518,
    0.063092092629978553290700663189204,
    0.022935322010529224963732008058970,
])
_WG = np.array([
    0.129484966168869693270611432679082,
    0.279705391489276667901467771423780,
    0.381830050505118944950369775488975,
    0.417959183673469387755102040816327,
    0.381830050505118944950369775488975,
    0.279705391489276667901467771423780,
    0.129484966168869693270611432679082,
])

_ROUNDOFF = 50.0 * np.finfo(float).eps
_DE_CUTOFF = 4.0  # tanh-sinh truncation; weight ~ 3e-36 there
_INITIAL_PANELS = 8


def kronrod_panel(f, lo: float, hi: float):
    """One Kronrod panel over [lo, hi]: (kronrod, gauss, error_estimate).

    Exposed so the base rule's polynomial exactness can be checked directly.
    """
    k, g, err = _eval_panels(f, [lo], [hi])
    return k[0], g[0], float(err[0])


def _eval_panels(f, edges_lo, edges_hi):
    """Kronrod values, embedded Gauss values and error estimates for several
    panels in one call."""
    los = np.asarray(edges_lo, dtype=float)
    his = np.asarray(edges_hi, dtype=float)
    c = 0.5 * (los + his)
    h = 0.5 * (his - los)
    x = (c[:, None] + h[:, None] * _XK[None, :]).reshape(-1)
    y = np.asarray(f(x))
    if y.shape != x.shape:
        y = np.broadcast_to(y, x.shape)
    y = y.reshape(len(los), _XK.size)
    k = h * (y @ _WK)
    g = h * (y[:, 1::2] @ _WG)
    err = np.maximum(np.abs(k - g), _ROUNDOFF * np.abs(k))
    return k, g, err


def _adaptive(f, lo: float, hi: float, spec: QuadratureSpec):
    """Worst-first global adaptive refinement of Kronrod panels on [lo, hi]."""
    edges = np.linspace(lo, hi, _INITIAL_PANELS + 1)
    vals, _, errs = _eval_panels(f, edges[:-1], edges[1:])
    panels = [[edges[i], edges[i + 1], vals[i], float(errs[i])] for i in range(_INITIAL_PANELS)]
    alive = [True] * _INITIAL_PANELS
    heap = [(-panels[i][3], i) for i in range(_INITIAL_PANELS)]
    heapq.heapify(heap)

    total_val = sum(p[2] for p in panels)
    total_err = sum(p[3] for p in panels)
    subdivisions = 0
    converged = True
    while not total_err <= max(spec.abs_tol, spec.rel_tol * abs(total_val)):
        # a nan or overflowed estimate can never certify the value
        if not math.isfinite(total_err) or subdivisions >= spec.max_subdivisions:
            converged = False
            break
        if not heap:
            # every panel is at machine width and the total still misses
            converged = False
            break
        _, idx = heapq.heappop(heap)
        plo, phi, pval, perr = panels[idx]
        mid = 0.5 * (plo + phi)
        if mid <= plo or mid >= phi:
            # panel width at machine precision; keep it, never re-queue it
            continue
        alive[idx] = False
        (v1, v2), _, (e1, e2) = _eval_panels(f, [plo, mid], [mid, phi])
        for plo2, phi2, v, e in ((plo, mid, v1, float(e1)), (mid, phi, v2, float(e2))):
            panels.append([plo2, phi2, v, e])
            alive.append(True)
            heapq.heappush(heap, (-e, len(panels) - 1))
        total_val += v1 + v2 - pval
        total_err += e1 + e2 - perr
        subdivisions += 1

    final = sorted(
        (p for p, keep in zip(panels, alive) if keep), key=lambda p: (p[0], p[1])
    )
    value = sum(p[2] for p in final)
    error = float(sum(p[3] for p in final))
    return value, error, subdivisions, converged


def gauss_jacobi(N: int, alpha: float, beta: float) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of the N-point Gauss–Jacobi rule on [-1, 1].

    The rule integrates ``(1-x)**alpha * (1+x)**beta * p(x)`` exactly for
    every polynomial ``p`` of degree ``<= 2N-1``; ``-1 < alpha, beta <= 1``,
    the range of segment-density exponents.  Golub–Welsch: the nodes are the
    eigenvalues of the Jacobi matrix of the orthonormal three-term
    recurrence, that is the zeros of ``p_N``, and each weight is
    ``mu0 * v0**2`` for the eigenvector's first component, that is the
    inverse Christoffel sum ``1 / sum_{k<N} p_k(x)**2`` with
    ``mu0 = 2**(alpha+beta+1) B(alpha+1, beta+1)``.  The eigenvalues are found
    by Newton's method on the recurrence from their asymptotic positions
    rather than by a LAPACK eigensolver, which keeps about 1 MB of library
    code out of memory; the Christoffel sums keep the small end weights
    accurate to a few dozen ulps.  Nodes ascend.

    Raises:
        ArithmeticError: if Newton's method does not settle on N distinct
            zeros (not seen for any ``N <= 200``).
    """
    if N < 1:
        raise ValueError("N must be >= 1")
    if not (-1.0 < alpha <= 1.0 and -1.0 < beta <= 1.0):
        raise ValueError("Jacobi exponents must lie in (-1, 1]")
    ab = alpha + beta
    k = np.arange(N + 1, dtype=float)
    s = 2.0 * k + ab
    diag = np.empty(N + 1)
    diag[0] = (beta - alpha) / (ab + 2.0)
    diag[1:] = (beta * beta - alpha * alpha) / (s[1:] * (s[1:] + 2.0))
    # off[k-1] couples p_{k-1} and p_k, k = 1..N; the k = 1 entry written out, since
    # the general form is 0/0 at alpha + beta = -1
    kk, ss = k[2:], s[2:]
    off = np.empty(N)
    off[0] = math.sqrt(4.0 * (1.0 + alpha) * (1.0 + beta) / ((ab + 2.0) ** 2 * (ab + 3.0)))
    off[1:] = np.sqrt(4.0 * kk * (kk + alpha) * (kk + beta) * (kk + ab) / (ss * ss * (ss + 1.0) * (ss - 1.0)))
    log_mu0 = (
        (ab + 1.0) * math.log(2.0)
        + math.lgamma(alpha + 1.0)
        + math.lgamma(beta + 1.0)
        - math.lgamma(ab + 2.0)
    )
    diag, off = diag.tolist(), off.tolist()
    p0 = math.exp(-0.5 * log_mu0)

    def recurrence(x):
        """p_N, p_N' and sum_{k<N} p_k**2 at x."""
        p_prev, p = np.zeros_like(x), np.full_like(x, p0)
        d_prev, d = np.zeros_like(x), np.zeros_like(x)
        christoffel = np.zeros_like(x)
        for j in range(N):
            christoffel += p * p
            x_j = x - diag[j]
            back = off[j - 1] if j else 0.0
            p_prev, p = p, (x_j * p - back * p_prev) / off[j]
            d_prev, d = d, (p_prev + x_j * d - back * d_prev) / off[j]
        return p, d, christoffel

    # zeros of P_N^(alpha, beta)(cos theta) sit near these angles
    theta = math.pi * (np.arange(N, 0, -1) + 0.5 * alpha - 0.25) / (N + 0.5 * (ab + 1.0))
    x = np.cos(theta)
    for _ in range(12):
        p_n, dp_n, _ = recurrence(x)
        step = p_n / dp_n
        x = x - step
        # convergence is quadratic: after a step this small, x is exact
        if np.max(np.abs(step)) < 1e-12:
            break
    gaps = np.diff(np.concatenate(([-1.0], x, [1.0])))
    if not (np.max(np.abs(step)) < 1e-12 and np.min(gaps) > 1e3 * np.max(np.abs(step))):
        raise ArithmeticError(f"Gauss-Jacobi nodes did not converge for N={N}, alpha={alpha}, beta={beta}")
    _, _, christoffel = recurrence(x)
    return x, 1.0 / christoffel


# nodes of the fixed segment rule: rho**(-2N) reaches 1e-10 at rho = 1.2
JACOBI_NODES = 64


def segment_rule(m_lo: int, m_hi: int, n: int) -> tuple[np.ndarray, np.ndarray]:
    """The cached ``JACOBI_NODES``-point rule for a panel whose lower and
    upper ends carry the weights ``(1+x)**(m_lo/n)`` and ``(1-x)**(m_hi/n)``
    (0 where the panel does not touch an entry): :func:`gauss_jacobi` with
    ``alpha = m_hi/n`` and ``beta = m_lo/n``.  Keyed by the integers in
    lowest terms, so ``(0, 0, n)``, Gauss–Legendre, is built once for every
    ``n``; rules are built on first use, and the arrays are read-only.
    """
    g = math.gcd(m_lo, m_hi, n)
    return _jacobi_rule(m_lo // g, m_hi // g, n // g)


# about 1 KB a rule: room for three keys per n over a few hundred n
@functools.lru_cache(maxsize=1024)
def _jacobi_rule(m_lo: int, m_hi: int, n: int) -> tuple[np.ndarray, np.ndarray]:
    x, w = gauss_jacobi(JACOBI_NODES, m_hi / n, m_lo / n)
    x.setflags(write=False)
    w.setflags(write=False)
    return x, w


def _ellipse_rho(s):
    """Parameter ``rho = s + sqrt(s**2 - 1)`` of the Bernstein ellipse on
    [lo, hi] through ``t``, from its semi-major axis ``s = (|t - lo| + |t -
    hi|) / (hi - lo)``: an N-point Gauss rule on [lo, hi] converges like
    ``rho**(-2N)`` for an integrand analytic inside it.  For a caller that
    already ignores overflow and invalid operations.  Non-decreasing in
    ``s``, so the smallest ``s`` of several points gives their smallest
    ``rho`` exactly."""
    s = np.maximum(s, 1.0)
    return s + np.sqrt((s - 1.0) * (s + 1.0))


def _tanh_sinh_wrap(f, lo: float, hi: float):
    """Map f on [lo, hi] to a transformed integrand on the tanh-sinh axis."""
    c = 0.5 * (lo + hi)
    h = 0.5 * (hi - lo)
    half_pi = 0.5 * math.pi

    def g(u):
        s = np.sinh(u)
        t = np.clip(c + h * np.tanh(half_pi * s), lo, hi)
        w = h * half_pi * np.cosh(u) / np.cosh(half_pi * s) ** 2
        return f(t) * w

    return g


def integrate(f, lo: float, hi: float, spec: QuadratureSpec | None = None) -> QuadratureResult:
    """Adaptive integral of ``f`` over [lo, hi].

    Requires ``lo <= hi`` and ``f`` finite-valued on the closed interval;
    endpoint derivatives may blow up.  The interval is remapped by tanh-sinh
    so that node density increases double-exponentially toward both
    endpoints, then refined adaptively in the transformed variable.

    Never raises on non-convergence: when the subdivision budget is
    exhausted, or the error estimate stops being finite (an overflowed or
    ``nan`` integrand value), the best available estimate is returned with
    ``converged=False``.
    """
    if spec is None:
        spec = QuadratureSpec()
    if lo > hi:
        raise ValueError(f"integration bounds out of order: [{lo}, {hi}]")
    if lo == hi:
        return QuadratureResult(0.0, 0.0, 0, True)
    g = _tanh_sinh_wrap(f, lo, hi)
    value, error, subs, ok = _adaptive(g, -_DE_CUTOFF, _DE_CUTOFF, spec)
    value = complex(value) if np.iscomplexobj(value) else float(value)
    return QuadratureResult(value, error, subs, ok)


def integrate_near_pole(
    f, lo: float, hi: float, pole: float, spec: QuadratureSpec | None = None
) -> QuadratureResult:
    """Variant of :func:`integrate` for integrands peaked at a real coordinate.

    ``pole`` marks the real projection of the closest approach of a factor
    like ``1/(t + z)``; the integrand itself must stay finite (``im(z) != 0``
    guarantees this).  When the pole lies strictly inside [lo, hi] the
    interval is split there once, so the tanh-sinh remap of each half
    clusters nodes toward the pole as it does toward any endpoint; otherwise
    the call is exactly ``integrate(f, lo, hi, spec)``.
    """
    if not (lo < pole < hi):
        return integrate(f, lo, hi, spec)
    left = integrate(f, lo, pole, spec)
    right = integrate(f, pole, hi, spec)
    return QuadratureResult(
        left.value + right.value,
        left.error_estimate + right.error_estimate,
        left.subdivisions_used + right.subdivisions_used,
        left.converged and right.converged,
    )
