"""QUADPACK's QAGS in Python floats: adaptive Gauss-Kronrod with extrapolation.

A port of dqagse (Piessens, de Doncker-Kapenga, Ueberhuber and Kahaner,
*QUADPACK*, Springer 1983) with its helpers dqk21 (the 21-point
Gauss-Kronrod rule), dqpsrt (the descending error list) and dqelg (Wynn's
epsilon algorithm). It keeps the Fortran's operation order and constants,
so it returns the doubles `scipy.integrate.quad` returns for a finite
interval (tests/test_quadpack.py checks that against scipy).
"""

from __future__ import annotations

import sys

_EPMACH = sys.float_info.epsilon
_UFLOW = sys.float_info.min
_OFLOW = sys.float_info.max
# the tolerances and the subinterval limit of every integral
_EPSABS = _EPSREL = 1e-12
_LIMIT = 200

# The Kronrod nodes and weights: _XGK[1::2] are the 10-point Gauss nodes,
# whose weights are _WG, _XGK[0:10:2] the added Kronrod nodes, _XGK[10] the centre.
_XGK = (0.995657163025808080735527280689003, 0.973906528517171720077964012084452,
        0.930157491355708226001207180059508, 0.865063366688984510732096688423493,
        0.780817726586416897063717578345042, 0.679409568299024406234327365114874,
        0.562757134668604683339000099272694, 0.433395394129247190799265943165784,
        0.294392862701460198131126603103866, 0.148874338981631210884826001129720, 0.0)
_WGK = (0.011694638867371874278064396062192, 0.032558162307964727478818972459390,
        0.054755896574351996031381300244580, 0.075039674810919952767043140916190,
        0.093125454583697605535065465083366, 0.109387158802297641899210590325805,
        0.123491976262065851077208634041212, 0.134709217311473325928054001771707,
        0.142775938577060080797094273138717, 0.147739104901338491374841515972068,
        0.149445554002916905664936468389821)
_WG = (0.066671344308688137593568809893332, 0.149451349150580593145776339657697,
       0.219086362515982043995534934228163, 0.269266719309996355091226921569469,
       0.295524224714752870173892994651338)


def _qk21(f, a, b):
    """dqk21: (result, abserr, resabs, resasc) of the 21-point rule on [a, b]."""
    centr, hlgth = 0.5 * (a + b), 0.5 * (b - a)
    dhlgth = abs(hlgth)
    fc = f(centr)
    resg, resk = 0.0, _WGK[10] * fc
    resabs = abs(resk)
    fv1, fv2 = [0.0] * 10, [0.0] * 10
    for j in (1, 3, 5, 7, 9, 0, 2, 4, 6, 8):  # the Gauss nodes first, as dqk21 sums
        absc = hlgth * _XGK[j]
        fv1[j] = fval1 = f(centr - absc)
        fv2[j] = fval2 = f(centr + absc)
        fsum = fval1 + fval2
        if j % 2:
            resg = resg + _WG[j // 2] * fsum
        resk = resk + _WGK[j] * fsum
        resabs = resabs + _WGK[j] * (abs(fval1) + abs(fval2))
    reskh = resk * 0.5
    resasc = _WGK[10] * abs(fc - reskh)
    for j in range(10):
        resasc = resasc + _WGK[j] * (abs(fv1[j] - reskh) + abs(fv2[j] - reskh))
    result, resabs, resasc = resk * hlgth, resabs * dhlgth, resasc * dhlgth
    abserr = abs((resk - resg) * hlgth)
    if resasc != 0.0 and abserr != 0.0:
        abserr = resasc * min(1.0, (200.0 * abserr / resasc) ** 1.5)
    if resabs > _UFLOW / (50.0 * _EPMACH):
        abserr = max((_EPMACH * 50.0) * resabs, abserr)
    return result, abserr, resabs, resasc


def _qpsrt(last, maxerr, elist, iord, nrmax):
    """dqpsrt: keep iord's first entries (indices into elist) in descending
    elist order after interval maxerr was split into maxerr and last - 1,
    last being the interval count; return the next (maxerr, errmax, nrmax)."""
    if last <= 2:
        iord[0], iord[1] = 0, 1
    else:
        errmax = elist[maxerr]
        while nrmax > 1 and errmax > elist[iord[nrmax - 2]]:
            iord[nrmax - 1] = iord[nrmax - 2]
            nrmax -= 1
        jupbn = _LIMIT + 3 - last if last > _LIMIT // 2 + 2 else last
        errmin = elist[last - 1]
        jbnd = jupbn - 1
        i = nrmax + 1
        while i <= jbnd and errmax < elist[iord[i - 1]]:
            iord[i - 2] = iord[i - 1]
            i += 1
        if i > jbnd:
            iord[jbnd - 1] = maxerr
            iord[jupbn - 1] = last - 1
        else:
            iord[i - 2] = maxerr
            k = jbnd
            while k >= i and errmin >= elist[iord[k - 1]]:
                iord[k] = iord[k - 1]
                k -= 1
            iord[k] = last - 1
    maxerr = iord[nrmax - 1]
    return maxerr, elist[maxerr], nrmax


def _qelg(n, epstab, res3la, nres):
    """dqelg: Wynn's epsilon step on epstab[:n] (0-based), which it
    rewrites; return (n, result, abserr, nres)."""
    nres += 1
    abserr, result = _OFLOW, epstab[n - 1]
    if n >= 3:
        limexp = 50
        epstab[n + 1], epstab[n - 1] = epstab[n - 1], _OFLOW
        newelm = (n - 1) // 2
        num = k1 = n
        for i in range(1, newelm + 1):
            e0, e1, e2 = epstab[k1 - 3], epstab[k1 - 2], epstab[k1 + 1]
            e1abs = abs(e1)
            delta2, delta3 = e2 - e1, e1 - e0
            err2, err3 = abs(delta2), abs(delta3)
            tol2, tol3 = max(abs(e2), e1abs) * _EPMACH, max(e1abs, abs(e0)) * _EPMACH
            if err2 <= tol2 and err3 <= tol3:
                # e0, e1 and e2 agree to machine accuracy: converged
                return n, e2, max(err2 + err3, 5.0 * _EPMACH * abs(e2)), nres
            e3, epstab[k1 - 1] = epstab[k1 - 1], e1
            delta1 = e1 - e3
            err1, tol1 = abs(delta1), max(e1abs, abs(e3)) * _EPMACH
            if err1 <= tol1 or err2 <= tol2 or err3 <= tol3:
                n = i + i - 1
                break
            ss = 1.0 / delta1 + 1.0 / delta2 - 1.0 / delta3
            if not abs(ss * e1) > 1e-4:
                n = i + i - 1  # irregular behaviour: drop the rest of the table
                break
            epstab[k1 - 1] = res = e1 + 1.0 / ss
            k1 -= 2
            error = err2 + abs(res - e2) + err3
            if error <= abserr:
                abserr, result = error, res
        if n == limexp:
            n = 2 * (limexp // 2) - 1
        ib = 1 if num % 2 else 2
        for _ in range(newelm + 1):
            epstab[ib - 1] = epstab[ib + 1]
            ib += 2
        if num != n:
            epstab[:n] = epstab[num - n:num]
        if nres < 4:
            res3la[nres - 1] = result
            abserr = _OFLOW
        else:
            abserr = abs(result - res3la[2]) + abs(result - res3la[1]) + abs(result - res3la[0])
            res3la[0], res3la[1], res3la[2] = res3la[1], res3la[2], result
    return n, result, max(abserr, 5.0 * _EPMACH * abs(result)), nres


def qags(f, a: float, b: float):
    """(result, abserr, ier) of dqagse for the integral of f over [a, b], at
    epsabs = epsrel = 1e-12 and at most 200 subintervals.

    ier is QUADPACK's: 0 where the estimate meets max(epsabs, epsrel |result|),
    else why not (1 the limit of subintervals, 2 round-off, 3 bad integrand
    behaviour, 4 no convergence, 5 divergence). As `scipy.integrate.quad`
    does, b < a integrates over [b, a] and negates.
    """
    if b < a:
        result, abserr, ier = qags(f, b, a)
        return -result, abserr, ier
    result, abserr, defabs, resabs = _qk21(f, a, b)
    dres = abs(result)
    errbnd = max(_EPSABS, _EPSREL * dres)
    ier = 0
    if abserr <= 100.0 * _EPMACH * defabs and abserr > errbnd:
        ier = 2
    if ier != 0 or (abserr <= errbnd and abserr != resabs) or abserr == 0.0:
        return result, abserr, ier

    alist, blist, rlist, elist = [a] * _LIMIT, [b] * _LIMIT, [result] * _LIMIT, [abserr] * _LIMIT
    iord = [0] * _LIMIT
    rlist2 = [result] + [0.0] * 51  # the epsilon table: dqelg's limexp + 2 entries
    res3la = [0.0] * 3
    maxerr, errmax, area, errsum, abserr = 0, abserr, result, abserr, _OFLOW
    nrmax, nres, numrl2, ktmin = 1, 0, 2, 0
    extrap = noext = False
    iroff1 = iroff2 = iroff3 = ierro = 0
    small = erlarg = ertest = correc = 0.0
    ksgn = 1 if dres >= (1.0 - 50.0 * _EPMACH) * defabs else -1

    summed = False  # whether the result is the sum over the subintervals
    for last in range(2, _LIMIT + 1):
        # bisect the subinterval with the nrmax-th largest error estimate
        a1, b2 = alist[maxerr], blist[maxerr]
        a2 = b1 = 0.5 * (a1 + b2)
        erlast = errmax
        area1, error1, _, defab1 = _qk21(f, a1, b1)
        area2, error2, _, defab2 = _qk21(f, a2, b2)
        area12 = area1 + area2
        erro12 = error1 + error2
        errsum = errsum + erro12 - errmax
        area = area + area12 - rlist[maxerr]
        if defab1 != error1 and defab2 != error2:
            if abs(rlist[maxerr] - area12) <= 1e-5 * abs(area12) and erro12 >= 0.99 * errmax:
                if extrap:
                    iroff2 += 1
                else:
                    iroff1 += 1
            if last > 10 and erro12 > errmax:
                iroff3 += 1
        rlist[maxerr] = area1
        rlist[last - 1] = area2
        errbnd = max(_EPSABS, _EPSREL * abs(area))
        if iroff1 + iroff2 >= 10 or iroff3 >= 20:
            ier = 2
        if iroff2 >= 5:
            ierro = 3
        if last == _LIMIT:
            ier = 1
        if max(abs(a1), abs(b2)) <= (1.0 + 100.0 * _EPMACH) * (abs(a2) + 1000.0 * _UFLOW):
            ier = 4
        # append the new intervals, the larger error at maxerr
        if error2 > error1:
            alist[maxerr], alist[last - 1], blist[last - 1] = a2, a1, b1
            rlist[maxerr], rlist[last - 1] = area2, area1
            elist[maxerr], elist[last - 1] = error2, error1
        else:
            alist[last - 1], blist[maxerr], blist[last - 1] = a2, b1, b2
            elist[maxerr], elist[last - 1] = error1, error2
        maxerr, errmax, nrmax = _qpsrt(last, maxerr, elist, iord, nrmax)
        if errsum <= errbnd:
            summed = True
            break
        if ier != 0:
            break
        if last == 2:
            small, erlarg, ertest, rlist2[1] = abs(b - a) * 0.375, errsum, errbnd, area
            continue
        if noext:
            continue
        erlarg = erlarg - erlast
        if abs(b1 - a1) > small:
            erlarg = erlarg + erro12
        if not extrap:
            # extrapolate only once the interval to bisect next is the smallest
            if abs(blist[maxerr] - alist[maxerr]) > small:
                continue
            extrap = True
            nrmax = 2
        if ierro != 3 and erlarg > ertest:
            # the smallest interval has the largest error: bisect the larger
            # intervals first, while the subdivision limit allows
            jupbnd = _LIMIT + 3 - last if last > 2 + _LIMIT // 2 else last
            larger = False
            for _ in range(nrmax, jupbnd + 1):
                maxerr = iord[nrmax - 1]
                errmax = elist[maxerr]
                if abs(blist[maxerr] - alist[maxerr]) > small:
                    larger = True
                    break
                nrmax += 1
            if larger:
                continue
        numrl2 += 1
        rlist2[numrl2 - 1] = area
        numrl2, reseps, abseps, nres = _qelg(numrl2, rlist2, res3la, nres)
        ktmin += 1
        if ktmin > 5 and abserr < 1e-3 * errsum:
            ier = 5
        if abseps < abserr:
            ktmin, abserr, result, correc = 0, abseps, reseps, erlarg
            ertest = max(_EPSABS, _EPSREL * abs(reseps))
            if abserr <= ertest:
                break
        # prepare the bisection of the smallest interval
        if numrl2 == 1:
            noext = True
        if ier == 5:
            break
        maxerr = iord[0]
        errmax, nrmax, extrap, small, erlarg = elist[maxerr], 1, False, small * 0.5, errsum

    summed = summed or abserr == _OFLOW  # no extrapolation took
    if not summed and ier + ierro != 0:
        if ierro == 3:
            abserr = abserr + correc
        if ier == 0:
            ier = 3
        if result != 0.0 and area != 0.0:
            summed = abserr / abs(result) > errsum / abs(area)
        elif abserr > errsum:
            summed = True
        elif area == 0.0:
            return result, abserr, ier - 1 if ier > 2 else ier
    if summed:
        result = 0.0
        for k in range(last):
            result = result + rlist[k]
        abserr = errsum
    elif not (ksgn == -1 and max(abs(result), abs(area)) <= defabs * 0.01):
        if 0.01 > result / area or result / area > 100.0 or errsum > abs(area):
            ier = 6
    return result, abserr, ier - 1 if ier > 2 else ier
