"""Adaptive Gauss-Kronrod quadrature with package-wide tolerance defaults.

A NumPy/Python port of QUADPACK's QAGS (Piessens, de Doncker-Kapenga,
Ueberhuber and Kahaner, *QUADPACK*, Springer 1983: ``dqagse``, ``dqk21``,
``dqpsrt``, ``dqelg``).  The integrand takes an array of nodes and returns
their values: the 21 nodes of the first panel, then the 42 nodes of both
halves at each bisection, so an integrand whose costly part is vectorised
pays for it once per panel instead of once per node.  Every arithmetic step
of the Fortran routines is kept in its order, on Python floats, so values,
error estimates and subdivisions are bit-identical to
``scipy.integrate.quad`` on the same integrand.  A range ``[a, inf)`` is
mapped onto ``(0, 1]`` by ``x = a + (1 - t) / t`` (the map of QUADPACK's
QAGI) and integrated by the same QAGS driver and 21-point rule.

The error estimate is QUADPACK's: the Kronrod-minus-Gauss difference of each
panel, scaled by ``min(1, (200 |K - G| / resasc)^1.5)``, summed over the
panels, or Wynn's epsilon-algorithm estimate when extrapolation gives the
value.  It is an estimate, not a bound.

All continuous integrals in the package go through :func:`integrate` so that
tolerances and failure behaviour are uniform: a quadrature that cannot reach
the requested tolerance (QUADPACK's ``ier != 0``, where scipy warns) raises
:class:`~levykit.errors.ToleranceError` instead of returning a poor value.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, ToleranceError


@dataclass(frozen=True)
class QuadratureSettings:
    """Default tolerances for adaptive quadrature.

    ``epsabs``/``epsrel`` follow the package contract (absolute 1e-10,
    relative 1e-8); ``limit`` is the subdivision budget, sized for the
    oscillatory Hankel-type integrands that show up in spectral transforms.
    """

    epsabs: float = 1e-10
    epsrel: float = 1e-8
    limit: int = 400


DEFAULT_QUADRATURE = QuadratureSettings()

_EPMACH = sys.float_info.epsilon        # d1mach(4)
_UFLOW = sys.float_info.min             # d1mach(1)
_OFLOW = sys.float_info.max             # d1mach(2)

# dqk21: Kronrod abscissae (descending; the centre 0 is left out), the
# Kronrod weights (the centre's last), and the weights of the 10-point Gauss
# rule on the abscissae of odd index
_XGK21 = (0.995657163025808080735527280689003,
          0.973906528517171720077964012084452,
          0.930157491355708226001207180059508,
          0.865063366688984510732096688423493,
          0.780817726586416897063717578345042,
          0.679409568299024406234327365114874,
          0.562757134668604683339000099272694,
          0.433395394129247190799265943165784,
          0.294392862701460198131126603103866,
          0.148874338981631210884826001129720)
_WGK21 = (0.011694638867371874278064396062192,
          0.032558162307964727478818972459390,
          0.054755896574351996031381300244580,
          0.075039674810919952767043140916190,
          0.093125454583697605535065465083366,
          0.109387158802297641899210590325805,
          0.123491976262065851077208980088322,
          0.134709217311473325928054001771707,
          0.142775938577060080797094273138717,
          0.147739104901338491374841515972068,
          0.149445554002916905664936468389821)
_WG10 = (0.066671344308688137593568809893332,
         0.149451349150580593145776339657697,
         0.219086362515982043995534934228163,
         0.269266719309996355091226921569469,
         0.295524224714752870173892994651338)

_MESSAGES = {
    1: "the maximum number of subdivisions has been achieved",
    2: "roundoff error prevents the requested tolerance from being achieved",
    3: "extremely bad integrand behaviour occurs at some points of the "
       "integration interval",
    4: "roundoff error in the extrapolation table prevents convergence",
    5: "the integral is probably divergent, or slowly convergent",
}


def _error_estimate(resk: float, resg: float, resabs: float, resasc: float,
                    hlgth: float) -> float:
    """A panel's error estimate from its Kronrod and Gauss sums (the tail
    of ``dqk21``; ``resabs`` and ``resasc`` already scaled)."""
    abserr = abs((resk - resg) * hlgth)
    if resasc != 0.0 and abserr != 0.0:
        # min(1, q^1.5) without overflowing q^1.5
        q = 200.0 * abserr / resasc
        abserr = resasc * (q ** 1.5 if q < 1.0 else 1.0)
    if resabs > _UFLOW / (50.0 * _EPMACH):
        abserr = max((_EPMACH * 50.0) * resabs, abserr)
    return abserr


def _kronrod21(fv: list, i: int, hlgth: float) -> tuple:
    """``dqk21`` on the 21 values ``fv[i:i + 21]``: the centre, then the
    nodes ``centre - hlgth * xgk[j]`` and ``centre + hlgth * xgk[j]`` for
    ``j = 0..9``.  Returns ``(result, abserr, resabs, resasc)``."""
    fc = fv[i]
    lo, hi = i + 1, i + 11
    resg = 0.0
    resk = _WGK21[10] * fc
    resabs = abs(resk)
    for j in (1, 3, 5, 7, 9):                    # Gauss and Kronrod nodes
        f1, f2 = fv[lo + j], fv[hi + j]
        fsum = f1 + f2
        resg = resg + _WG10[j >> 1] * fsum
        resk = resk + _WGK21[j] * fsum
        resabs = resabs + _WGK21[j] * (abs(f1) + abs(f2))
    for j in (0, 2, 4, 6, 8):                    # Kronrod nodes only
        f1, f2 = fv[lo + j], fv[hi + j]
        fsum = f1 + f2
        resk = resk + _WGK21[j] * fsum
        resabs = resabs + _WGK21[j] * (abs(f1) + abs(f2))
    reskh = resk * 0.5
    resasc = _WGK21[10] * abs(fc - reskh)
    for j in range(10):
        resasc = resasc + _WGK21[j] * (abs(fv[lo + j] - reskh)
                                       + abs(fv[hi + j] - reskh))
    dhlgth = abs(hlgth)
    resabs = resabs * dhlgth
    resasc = resasc * dhlgth
    return (resk * hlgth, _error_estimate(resk, resg, resabs, resasc, hlgth),
            resabs, resasc)


def _panels(func):
    """Evaluator of 21-point Gauss-Kronrod panels, one ``func`` call for all
    the panels asked for at once."""
    def panels(*intervals):
        nodes, hlgths = [], []
        for a, b in intervals:
            centr, hlgth = 0.5 * (a + b), 0.5 * (b - a)
            absc = [hlgth * x for x in _XGK21]
            nodes += [centr, *[centr - d for d in absc],
                      *[centr + d for d in absc]]
            hlgths.append(hlgth)
        fv = _values(func, np.array(nodes)).tolist()
        return [_kronrod21(fv, 21 * k, h) for k, h in enumerate(hlgths)]
    return panels


def _mapped(func, a: float):
    """``[a, inf)`` mapped onto ``(0, 1]`` as QAGI maps it: ``x = a + (1 -
    t) / t``, ``dx = dt / t^2``.  No Kronrod node lies on an endpoint, so
    ``t = 0`` is never evaluated; but a node next to ``t = 1`` can round
    to ``t >= 1``, so ``x`` can fall at or just below ``a``, and an
    integrand singular at ``a`` may be evaluated there and raise."""
    return lambda t: _values(func, a + (1.0 - t) / t) / t / t


def _values(func, nodes: np.ndarray) -> np.ndarray:
    vals = np.asarray(func(nodes), dtype=float)
    if vals.shape != nodes.shape:
        raise DomainError(f"integrand returned shape {vals.shape} for "
                          f"{nodes.size} nodes; it must map an array of "
                          "nodes to an array of values")
    return vals


def _qpsrt(limit, last, maxerr, elist, iord, nrmax):
    """``dqpsrt``: keep ``iord`` (1-based) ordered by decreasing error and
    return ``(maxerr, errmax, nrmax)`` of the panel to bisect next."""
    if last <= 2:
        iord[1], iord[2] = 1, 2
    else:
        errmax = elist[maxerr]
        for _ in range(nrmax - 1):
            isucc = iord[nrmax - 1]
            if errmax <= elist[isucc]:
                break
            iord[nrmax] = isucc
            nrmax -= 1
        jupbn = limit + 3 - last if last > limit // 2 + 2 else last
        errmin = elist[last]
        jbnd = jupbn - 1
        for i in range(nrmax + 1, jbnd + 1):
            isucc = iord[i]
            if errmax >= elist[isucc]:
                # insert errmax here, then errmin bottom-up
                iord[i - 1] = maxerr
                k = jbnd
                for _ in range(i, jbnd + 1):
                    isucc = iord[k]
                    if errmin < elist[isucc]:
                        iord[k + 1] = last
                        break
                    iord[k + 1] = isucc
                    k -= 1
                else:
                    iord[i] = last
                break
            iord[i - 1] = isucc
        else:
            iord[jbnd] = maxerr
            iord[jupbn] = last
    maxerr = iord[nrmax]
    return maxerr, elist[maxerr], nrmax


def _qelg(n, epstab, res3la, nres):
    """``dqelg``: one step of Wynn's epsilon algorithm on ``epstab[1..n]``
    (1-based, updated in place, as is ``res3la``).  Returns ``(n, result,
    abserr, nres)``."""
    nres += 1
    abserr = _OFLOW
    result = epstab[n]
    if n >= 3:
        epstab[n + 2] = epstab[n]
        newelm = (n - 1) // 2
        epstab[n] = _OFLOW
        num = k1 = n
        for i in range(1, newelm + 1):
            res = epstab[k1 + 2]
            e0, e1, e2 = epstab[k1 - 2], epstab[k1 - 1], res
            e1abs = abs(e1)
            delta2 = e2 - e1
            err2 = abs(delta2)
            tol2 = max(abs(e2), e1abs) * _EPMACH
            delta3 = e1 - e0
            err3 = abs(delta3)
            tol3 = max(e1abs, abs(e0)) * _EPMACH
            if not (err2 > tol2 or err3 > tol3):
                # e0, e1 and e2 agree to machine accuracy
                return n, res, max(err2 + err3, 5.0 * _EPMACH * abs(res)), \
                    nres
            e3 = epstab[k1]
            epstab[k1] = e1
            delta1 = e1 - e3
            err1 = abs(delta1)
            tol1 = max(e1abs, abs(e3)) * _EPMACH
            if err1 <= tol1 or err2 <= tol2 or err3 <= tol3:
                n = i + i - 1
                break
            ss = 1.0 / delta1 + 1.0 / delta2 - 1.0 / delta3
            if not abs(ss * e1) > 1e-4:
                n = i + i - 1
                break
            res = e1 + 1.0 / ss
            epstab[k1] = res
            k1 -= 2
            error = err2 + abs(res - e2) + err3
            if not error > abserr:
                abserr, result = error, res
        # shift the table
        if n == 50:
            n = 49
        ib = 2 if num % 2 == 0 else 1
        for _ in range(newelm + 1):
            epstab[ib] = epstab[ib + 2]
            ib += 2
        if num != n:
            indx = num - n + 1
            for i in range(1, n + 1):
                epstab[i] = epstab[indx]
                indx += 1
        if nres < 4:
            res3la[nres] = result
            abserr = _OFLOW
        else:
            abserr = abs(result - res3la[3]) + abs(result - res3la[2]) \
                + abs(result - res3la[1])
            res3la[1], res3la[2], res3la[3] = res3la[2], res3la[3], result
    return n, result, max(abserr, 5.0 * _EPMACH * abs(result)), nres


def _ratio(x: float, y: float) -> float:
    """``x / y`` with IEEE semantics at ``y = 0``."""
    if y != 0.0:
        return x / y
    return math.nan if x == 0.0 or x != x else math.copysign(math.inf, x) \
        * math.copysign(1.0, y)


def _qags(panels, a, b, epsabs, epsrel, limit):
    """The ``dqagse`` main loop on ``[a, b]``.  Returns ``(result, abserr,
    last, ier)``, ``ier`` as QUADPACK reports it."""
    small = abs(b - a) * 0.375
    (result, abserr, defabs, resabs), = panels((a, b))
    dres = abs(result)
    errbnd = max(epsabs, epsrel * dres)
    ier = 0
    if abserr <= 100.0 * _EPMACH * defabs and abserr > errbnd:
        ier = 2
    if limit == 1:
        ier = 1
    if ier != 0 or (abserr <= errbnd and abserr != resabs) or abserr == 0.0:
        return result, abserr, 1, ier

    alist, blist = [0.0, a], [0.0, b]
    rlist, elist = [0.0, result], [0.0, abserr]
    iord = [0] * (limit + 1)
    iord[1] = 1
    rlist2 = [0.0] * 53
    rlist2[1] = result
    res3la = [0.0] * 4
    errmax, maxerr, area, errsum = abserr, 1, result, abserr
    abserr = _OFLOW
    nrmax, nres, numrl2, ktmin = 1, 0, 2, 0
    extrap = noext = False
    ierro = iroff1 = iroff2 = iroff3 = 0
    erlarg = ertest = correc = 0.0
    ksgn = 1 if dres >= (1.0 - 50.0 * _EPMACH) * defabs else -1
    last, final = 1, None
    while final is None:
        last += 1
        # bisect the panel with the nrmax-th largest error estimate
        a1 = alist[maxerr]
        b1 = 0.5 * (alist[maxerr] + blist[maxerr])
        a2, b2 = b1, blist[maxerr]
        erlast = errmax
        (area1, error1, _, defab1), (area2, error2, _, defab2) = \
            panels((a1, b1), (a2, b2))
        area12 = area1 + area2
        erro12 = error1 + error2
        errsum = errsum + erro12 - errmax
        area = area + area12 - rlist[maxerr]
        if not (defab1 == error1 or defab2 == error2):
            if not (abs(rlist[maxerr] - area12) > 1e-5 * abs(area12)
                    or erro12 < 0.99 * errmax):
                if extrap:
                    iroff2 += 1
                else:
                    iroff1 += 1
            if last > 10 and erro12 > errmax:
                iroff3 += 1
        rlist[maxerr] = area1
        rlist.append(area2)
        errbnd = max(epsabs, epsrel * abs(area))
        if iroff1 + iroff2 >= 10 or iroff3 >= 20:
            ier = 2
        if iroff2 >= 5:
            ierro = 3
        if last == limit:
            ier = 1
        if max(abs(a1), abs(b2)) <= (1.0 + 100.0 * _EPMACH) \
                * (abs(a2) + 1000.0 * _UFLOW):
            ier = 4
        if error2 > error1:
            alist[maxerr] = a2
            alist.append(a1)
            blist.append(b1)
            rlist[maxerr], rlist[last] = area2, area1
            elist[maxerr] = error2
            elist.append(error1)
        else:
            alist.append(a2)
            blist[maxerr] = b1
            blist.append(b2)
            elist[maxerr] = error1
            elist.append(error2)
        maxerr, errmax, nrmax = _qpsrt(limit, last, maxerr, elist, iord,
                                       nrmax)
        if errsum <= errbnd:
            final = "sum"
            continue
        if ier != 0:
            final = "check"
            continue
        if last == 2:
            erlarg, ertest = errsum, errbnd
            rlist2[2] = area
            continue
        if noext:
            continue
        erlarg = erlarg - erlast
        if abs(b1 - a1) > small:
            erlarg = erlarg + erro12
        if not extrap:
            # is the panel to bisect next the smallest one?
            if abs(blist[maxerr] - alist[maxerr]) > small:
                continue
            extrap = True
            nrmax = 2
        if not (ierro == 3 or erlarg <= ertest):
            # the smallest panel has the largest error: bisect the larger
            # ones first while any is left
            jupbnd = limit + 3 - last if last > 2 + limit // 2 else last
            larger = False
            for _ in range(nrmax, jupbnd + 1):
                maxerr = iord[nrmax]
                errmax = elist[maxerr]
                if abs(blist[maxerr] - alist[maxerr]) > small:
                    larger = True
                    break
                nrmax += 1
            if larger:
                continue
        # extrapolate
        numrl2 += 1
        rlist2[numrl2] = area
        numrl2, reseps, abseps, nres = _qelg(numrl2, rlist2, res3la, nres)
        ktmin += 1
        if ktmin > 5 and abserr < 1e-3 * errsum:
            ier = 5
        if not abseps >= abserr:
            ktmin = 0
            abserr, result, correc = abseps, reseps, erlarg
            ertest = max(epsabs, epsrel * abs(reseps))
            if abserr <= ertest:
                final = "check"
                continue
        if numrl2 == 1:
            noext = True
        if ier == 5:
            final = "check"
            continue
        maxerr = iord[1]
        errmax = elist[maxerr]
        nrmax = 1
        extrap = False
        small = small * 0.5
        erlarg = errsum

    if final == "check":
        # labels 100-110 of dqagse: the extrapolated result or the sum?
        divergence_test = True
        if abserr == _OFLOW:
            final = "sum"
        elif ier + ierro != 0:
            if ierro == 3:
                abserr = abserr + correc
            if ier == 0:
                ier = 3
            if result != 0.0 and area != 0.0:
                if abserr / abs(result) > errsum / abs(area):
                    final = "sum"
            elif abserr > errsum:
                final = "sum"
            elif area == 0.0:
                divergence_test = False
        if final == "check" and divergence_test and not (
                ksgn == -1
                and max(abs(result), abs(area)) <= defabs * 0.01):
            q = _ratio(result, area)
            if 0.01 > q or q > 100.0 or errsum > abs(area):
                ier = 6
    if final == "sum":
        result = 0.0
        for value in rlist[1:]:
            result = result + value
        abserr = errsum
    if ier > 2:
        ier -= 1
    return result, abserr, last, ier


def quadpack(func, a, b, epsabs: float, epsrel: float, limit: int):
    """QAGS on a finite ``[a, b]``, or on ``[a, inf)`` mapped onto
    ``(0, 1]``, as ``(value, abserr, neval, ier)`` with QUADPACK's ``ier``
    (0 when the tolerance was met).  ``func`` maps an array of nodes to
    their values.  ``b < a`` integrates ``[b, a]`` and negates the value,
    and ``a == b`` gives zero with no evaluation, as
    ``scipy.integrate.quad`` does."""
    if limit < 1:
        raise DomainError("quadrature limit must be at least 1")
    if epsabs <= 0.0 and epsrel < max(50.0 * _EPMACH, 5e-29):
        raise DomainError("with epsabs <= 0, epsrel must exceed both 5e-29 "
                          "and 50 machine epsilons")
    if a == b:
        return 0.0, 0.0, 0, 0
    if b < a:
        val, err, neval, ier = quadpack(func, b, a, epsabs, epsrel, limit)
        return -val, err, neval, ier
    if math.isinf(a):
        raise DomainError("only [a, b] and [a, inf) ranges are supported")
    a, b = float(a), float(b)
    if math.isinf(b):
        func, a, b = _mapped(func, a), 0.0, 1.0
    val, err, last, ier = _qags(_panels(func), a, b, epsabs, epsrel, limit)
    return val, err, 42 * last - 21, ier


def integrate(func, a, b, settings: QuadratureSettings | None = None):
    """Integrate ``func`` over ``[a, b]`` (``b`` may be ``numpy.inf``: the
    range is then mapped onto ``(0, 1]``, as :func:`quadpack` says).

    ``func`` takes a 1-d array of nodes and returns an array of their
    values, as every integrand of the package does except those of
    :func:`levykit.subexp.tauberian_ratio`, whose weights are scalar
    callables evaluated node by node.  Returns
    ``(value, abserr_estimate)``.  A quadrature that reports
    non-convergence, or whose error estimate is far above the requested
    tolerance, raises ``ToleranceError``.
    """
    s = settings or DEFAULT_QUADRATURE
    val, err, _, ier = quadpack(func, a, b, s.epsabs, s.epsrel, s.limit)
    if ier != 0:
        raise ToleranceError(
            f"quadrature on [{a}, {b}] did not converge: "
            f"{_MESSAGES[ier]} (limit {s.limit})")
    scale = max(1.0, abs(val))
    if err > 1e5 * (s.epsabs + s.epsrel * scale):
        raise ToleranceError(
            f"quadrature error estimate {err:.3e} too large for value {val:.6e}"
        )
    return val, err
