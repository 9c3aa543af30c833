"""Adaptive Gauss-Kronrod quadrature on a finite interval: a port of QUADPACK's
QAGS (Piessens, de Doncker-Kapenga, Ueberhuber and Kahaner, 1983).

The routines dqagse, dqk21, dqpsrt and dqelg are followed statement by
statement, with every floating-point operation in the reference's order, so a
result, its error estimate and the number of subintervals match any faithful
build of QUADPACK bit for bit, `scipy.integrate.quad` among them. Sums stay
explicit left-to-right loops for that reason (Python 3.12's `sum` of floats
compensates). The work lists are 1-based like the reference's arrays; slot 0
is unused.
"""

from __future__ import annotations

import sys

_EPMACH = 2.0**-52  # d1mach(4), the relative machine spacing
_UFLOW = sys.float_info.min  # d1mach(1), the smallest normal double
_OFLOW = sys.float_info.max  # d1mach(2)
_LIMEXP = 50  # epsilon-table length before dqelg drops its oldest entries

# dqk21: abscissae of the 21-point Kronrod rule (odd positions are the
# 10-point Gauss abscissae), its weights, and the Gauss weights.
_XGK = (
    0.995657163025808080735527280689003,
    0.973906528517171720077964012084452,
    0.930157491355708226001207180059508,
    0.865063366688984510732096688423493,
    0.780817726586416897063717578345042,
    0.679409568299024406234327365114874,
    0.562757134668604683339000099272694,
    0.433395394129247190799265943165784,
    0.294392862701460198131126603103866,
    0.148874338981631210884826001129720,
    0.000000000000000000000000000000000,
)
_WGK = (
    0.011694638867371874278064396062192,
    0.032558162307964727478818972459390,
    0.054755896574351996031381300244580,
    0.075039674810919952767043140916190,
    0.093125454583697605535065465083366,
    0.109387158802297641899210590325805,
    0.123491976262065851077958109831074,
    0.134709217311473325928054001771707,
    0.142775938577060080797094273138717,
    0.147739104901338491374841515972068,
    0.149445554002916905664936468389821,
)
_WG = (
    0.066671344308688137593568809893332,
    0.149451349150580593145776339657697,
    0.219086362515982043995534934228163,
    0.269266719309996355091226921569469,
    0.295524224714752870173892994651338,
)
# the Gauss abscissae first, then the Kronrod-only ones, as dqk21 visits them
_ORDER = (1, 3, 5, 7, 9, 0, 2, 4, 6, 8)


def _qk21(f, a, b):
    """dqk21: (result, abserr, resabs, resasc) of the 21-point rule on [a, b]."""
    centr = 0.5 * (a + b)
    hlgth = 0.5 * (b - a)
    dhlgth = abs(hlgth)
    resg = 0.0
    fc = f(centr)
    resk = _WGK[10] * fc
    resabs = abs(resk)
    fv1 = [0.0] * 10
    fv2 = [0.0] * 10
    for j in _ORDER:
        absc = hlgth * _XGK[j]
        fval1 = f(centr - absc)
        fval2 = f(centr + absc)
        fv1[j] = fval1
        fv2[j] = fval2
        fsum = fval1 + fval2
        if j % 2:
            resg = resg + _WG[j // 2] * fsum
        resk = resk + _WGK[j] * fsum
        resabs = resabs + _WGK[j] * (abs(fval1) + abs(fval2))
    reskh = resk * 0.5
    resasc = _WGK[10] * abs(fc - reskh)
    for j in range(10):
        resasc = resasc + _WGK[j] * (abs(fv1[j] - reskh) + abs(fv2[j] - reskh))
    result = resk * hlgth
    resabs = resabs * dhlgth
    resasc = resasc * dhlgth
    abserr = abs((resk - resg) * hlgth)
    if resasc != 0.0 and abserr != 0.0:
        abserr = resasc * min(1.0, (200.0 * abserr / resasc) ** 1.5)
    if resabs > _UFLOW / (50.0 * _EPMACH):
        abserr = max((_EPMACH * 50.0) * resabs, abserr)
    return result, abserr, resabs, resasc


def _qpsrt(limit, last, maxerr, elist, iord, nrmax):
    """dqpsrt: keep iord listing the intervals by descending error estimate
    (only as deep as the subdivisions left can reach); return the next
    interval to bisect as (maxerr, errmax, nrmax)."""
    if last <= 2:
        iord[1] = 1
        iord[2] = 2
    else:
        errmax = elist[maxerr]
        # subdivision raised the error: move errmax up past smaller ones
        for _ in range(nrmax - 1):
            isucc = iord[nrmax - 1]
            if errmax <= elist[isucc]:
                break
            iord[nrmax] = isucc
            nrmax -= 1
        jupbn = last if last <= limit // 2 + 2 else limit + 3 - last
        errmin = elist[last]
        jbnd = jupbn - 1
        i = nrmax + 1
        while i <= jbnd:  # insert errmax top-down
            isucc = iord[i]
            if errmax >= elist[isucc]:
                break
            iord[i - 1] = isucc
            i += 1
        if i > jbnd:
            iord[jbnd] = maxerr
            iord[jupbn] = last
        else:  # then errmin bottom-up
            iord[i - 1] = maxerr
            k = jbnd
            for _ in range(i, jbnd + 1):
                isucc = iord[k]
                if errmin < elist[isucc]:
                    break
                iord[k + 1] = isucc
                k -= 1
            else:
                k = i - 1
            iord[k + 1] = last
    maxerr = iord[nrmax]
    return maxerr, elist[maxerr], nrmax


def _qelg(n, epstab, res3la, nres):
    """dqelg: Wynn's epsilon algorithm on epstab[1..n]; return
    (n, result, abserr, nres) with the table shifted for the next call."""
    nres += 1
    abserr = _OFLOW
    result = epstab[n]
    if n >= 3:
        epstab[n + 2] = epstab[n]
        newelm = (n - 1) // 2
        epstab[n] = _OFLOW
        num = k1 = n
        for i in range(1, newelm + 1):
            k2, k3 = k1 - 1, k1 - 2
            res = epstab[k1 + 2]
            e0, e1, e2 = epstab[k3], epstab[k2], res
            e1abs = abs(e1)
            delta2 = e2 - e1
            err2 = abs(delta2)
            tol2 = max(abs(e2), e1abs) * _EPMACH
            delta3 = e1 - e0
            err3 = abs(delta3)
            tol3 = max(e1abs, abs(e0)) * _EPMACH
            if not (err2 > tol2 or err3 > tol3):
                # e0, e1 and e2 agree to machine accuracy: converged
                result = res
                abserr = err2 + err3
                return n, result, max(abserr, 5.0 * _EPMACH * abs(result)), nres
            e3 = epstab[k1]
            epstab[k1] = e1
            delta1 = e1 - e3
            err1 = abs(delta1)
            tol1 = max(e1abs, abs(e3)) * _EPMACH
            if err1 <= tol1 or err2 <= tol2 or err3 <= tol3:
                n = i + i - 1  # two close elements: cut the table here
                break
            ss = 1.0 / delta1 + 1.0 / delta2 - 1.0 / delta3
            epsinf = abs(ss * e1)
            if not epsinf > 0.1e-03:
                n = i + i - 1  # irregular behaviour: cut the table here
                break
            res = e1 + 1.0 / ss
            epstab[k1] = res
            k1 -= 2
            error = err2 + abs(res - e2) + err3
            if not error > abserr:
                abserr = error
                result = res
        if n == _LIMEXP:
            n = 2 * (_LIMEXP // 2) - 1
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
            abserr = abs(result - res3la[3]) + abs(result - res3la[2]) + abs(result - res3la[1])
            res3la[1], res3la[2], res3la[3] = res3la[2], res3la[3], result
    return n, result, max(abserr, 5.0 * _EPMACH * abs(result)), nres


def quad(f, a: float, b: float, epsabs: float, epsrel: float, limit: int):
    """Integral of f over the finite interval [a, b] by QUADPACK's dqagse.

    Returns (result, abserr, ier). ier is 0 on success; otherwise 1: `limit`
    subintervals were not enough, 2: roundoff stopped the requested accuracy,
    3: the integrand is too irregular at some point, 4: the extrapolation
    table did not converge, 5: the integral is divergent or converges too
    slowly, 6: invalid tolerances or limit.
    """
    if limit < 1 or (epsabs <= 0.0 and epsrel < max(50.0 * _EPMACH, 0.5e-28)):
        return 0.0, 0.0, 6
    ier = ierro = 0
    result, abserr, defabs, resabs = _qk21(f, a, b)
    dres = abs(result)
    errbnd = max(epsabs, epsrel * dres)
    if abserr <= 100.0 * _EPMACH * defabs and abserr > errbnd:
        ier = 2
    if limit == 1:
        ier = 1
    if ier != 0 or (abserr <= errbnd and abserr != resabs) or abserr == 0.0:
        return result, abserr, ier

    alist, blist = [0.0, a] + [0.0] * (limit - 1), [0.0, b] + [0.0] * (limit - 1)
    rlist, elist = [0.0, result] + [0.0] * (limit - 1), [0.0, abserr] + [0.0] * (limit - 1)
    iord = [0, 1] + [0] * (limit - 1)
    rlist2, res3la = [0.0, result] + [0.0] * (_LIMEXP + 1), [0.0] * 4
    errmax, maxerr, area, errsum, abserr = abserr, 1, result, abserr, _OFLOW
    nrmax, nres, numrl2, ktmin = 1, 0, 2, 0
    extrap = noext = False
    iroff1 = iroff2 = iroff3 = 0
    ksgn = 1 if dres >= (1.0 - 50.0 * _EPMACH) * defabs else -1
    small = erlarg = ertest = correc = 0.0
    summed = False
    for last in range(2, limit + 1):
        # bisect the interval with the nrmax-th largest error estimate
        a1 = alist[maxerr]
        b1 = 0.5 * (alist[maxerr] + blist[maxerr])
        a2 = b1
        b2 = blist[maxerr]
        erlast = errmax
        area1, error1, _, defab1 = _qk21(f, a1, b1)
        area2, error2, _, defab2 = _qk21(f, a2, b2)
        area12 = area1 + area2
        erro12 = error1 + error2
        errsum = errsum + erro12 - errmax
        area = area + area12 - rlist[maxerr]
        if not (defab1 == error1 or defab2 == error2):
            if not (abs(rlist[maxerr] - area12) > 0.1e-04 * abs(area12) or erro12 < 0.99 * errmax):
                if extrap:
                    iroff2 += 1
                else:
                    iroff1 += 1
            if last > 10 and erro12 > errmax:
                iroff3 += 1
        rlist[maxerr] = area1
        rlist[last] = area2
        errbnd = max(epsabs, epsrel * abs(area))
        if iroff1 + iroff2 >= 10 or iroff3 >= 20:
            ier = 2
        if iroff2 >= 5:
            ierro = 3
        if last == limit:
            ier = 1
        if max(abs(a1), abs(b2)) <= (1.0 + 100.0 * _EPMACH) * (abs(a2) + 1000.0 * _UFLOW):
            ier = 4
        if not error2 > error1:
            alist[last] = a2
            blist[maxerr] = b1
            blist[last] = b2
            elist[maxerr] = error1
            elist[last] = error2
        else:
            alist[maxerr] = a2
            alist[last] = a1
            blist[last] = b1
            rlist[maxerr] = area2
            rlist[last] = area1
            elist[maxerr] = error2
            elist[last] = error1
        maxerr, errmax, nrmax = _qpsrt(limit, last, maxerr, elist, iord, nrmax)
        if errsum <= errbnd:
            summed = True
            break
        if ier != 0:
            break
        if last == 2:
            small = abs(b - a) * 0.375
            erlarg = errsum
            ertest = errbnd
            rlist2[2] = area
            continue
        if noext:
            continue
        erlarg = erlarg - erlast
        if abs(b1 - a1) > small:
            erlarg = erlarg + erro12
        if not extrap:
            # extrapolate only once the next bisection is of a smallest interval
            if abs(blist[maxerr] - alist[maxerr]) > small:
                continue
            extrap = True
            nrmax = 2
        if not (ierro == 3 or erlarg <= ertest):
            # bisect the larger intervals first while they still carry error
            jupbnd = last if last <= 2 + limit // 2 else limit + 3 - last
            large = False
            for _ in range(nrmax, jupbnd + 1):
                maxerr = iord[nrmax]
                errmax = elist[maxerr]
                if abs(blist[maxerr] - alist[maxerr]) > small:
                    large = True
                    break
                nrmax += 1
            if large:
                continue
        numrl2 += 1
        rlist2[numrl2] = area
        numrl2, reseps, abseps, nres = _qelg(numrl2, rlist2, res3la, nres)
        ktmin += 1
        if ktmin > 5 and abserr < 0.1e-02 * errsum:
            ier = 5
        if not abseps >= abserr:
            ktmin = 0
            abserr = abseps
            result = reseps
            correc = erlarg
            ertest = max(epsabs, epsrel * abs(reseps))
            if abserr <= ertest:
                break
        if numrl2 == 1:
            noext = True
        if ier == 5:
            break
        maxerr = iord[1]
        errmax = elist[maxerr]
        nrmax = 1
        extrap = False
        small = small * 0.5
        erlarg = errsum

    # label 100: keep the extrapolated result unless the plain sum is better
    if not summed and abserr != _OFLOW:
        test_divergence = True
        if ier + ierro != 0:
            if ierro == 3:
                abserr = abserr + correc
            if ier == 0:
                ier = 3
            if result != 0.0 and area != 0.0:
                summed = abserr / abs(result) > errsum / abs(area)
            else:
                summed = abserr > errsum
                test_divergence = area != 0.0
        if not summed and test_divergence:
            if not (ksgn == -1 and max(abs(result), abs(area)) <= defabs * 0.1e-01):
                # area == 0 stands for the reference's infinite or NaN ratio
                ratio = result / area if area != 0.0 else 0.0
                if 0.1e-01 > ratio or ratio > 0.1e03 or errsum > abs(area):
                    ier = 6
    else:
        summed = True
    if summed:  # label 115, in the reference's order
        result = 0.0
        for k in range(1, last + 1):
            result = result + rlist[k]
        abserr = errsum
    if ier > 2:
        ier -= 1
    return result, abserr, ier
