"""Double-double (106-bit significand) kernels for ill-conditioned shifts.

Estimating the distances from a far point to tightly clustered roots requires
the shifted polynomial's coefficients to more bits than a float64 holds: the
coefficient-basis condition number of those roots grows like
``(2*shift)**n / prod(root gaps)``, and a plain double shift already loses the
distances at unit scale.  These kernels run the Taylor shift and the Graeffe
squaring steps with error-free-transformation double-double arithmetic (Dekker
splitting, Knuth two-sum), combined with the same per-coefficient exponent
field the plain engine uses.

Cancellation is measured per output coefficient; a coefficient that cancels
more than ``CANCEL_LIMIT`` bits below its largest contributing term is zeroed
(dropped from the hull) rather than trusted, and the caller sees the step
flagged when an anchor coefficient (constant or leading) is lost.

The error-free transformations are scalar sequences run in plain Python.
Callers look ``taylor_shift_dd``, ``mantexp_dd`` and ``graeffe_step_me_dd`` up
on the module at call time, so a wrapper installed on the module (for tracing)
sees every call.
"""

import math

import numpy as np

_SPLITTER = 134217729.0  # 2**27 + 1
CANCEL_LIMIT = 90.0  # bits of cancellation beyond which a coefficient is unreliable
_SHIFT_CUTOFF = 240  # terms this many bits below the max cannot move a 106-bit sum


def _two_sum(a, b):
    s = a + b
    bb = s - a
    return s, (a - (s - bb)) + (b - bb)


def _quick_two_sum(a, b):
    s = a + b
    return s, b - (s - a)


def _two_prod(a, b):
    p = a * b
    t = _SPLITTER * a
    ahi = t - (t - a)
    alo = a - ahi
    t = _SPLITTER * b
    bhi = t - (t - b)
    blo = b - bhi
    return p, ((ahi * bhi - p) + ahi * blo + alo * bhi) + alo * blo


def _dd_add(ah, al, bh, bl):
    sh, sl = _two_sum(ah, bh)
    sl = sl + (al + bl)
    return _quick_two_sum(sh, sl)


def _dd_mul(ah, al, bh, bl):
    ph, pl = _two_prod(ah, bh)
    pl = pl + (ah * bl + al * bh)
    return _quick_two_sum(ph, pl)


def _cdd_mul(arh, arl, aih, ail, brh, brl, bih, bil):
    # (ar + i*ai)(br + i*bi): four real double-double products
    t1h, t1l = _dd_mul(arh, arl, brh, brl)
    t2h, t2l = _dd_mul(aih, ail, bih, bil)
    reh, rel = _dd_add(t1h, t1l, -t2h, -t2l)
    t3h, t3l = _dd_mul(arh, arl, bih, bil)
    t4h, t4l = _dd_mul(aih, ail, brh, brl)
    imh, iml = _dd_add(t3h, t3l, t4h, t4l)
    return reh, rel, imh, iml


def taylor_shift_dd(cre, cim, zre, zim):
    """Synthetic-division Taylor shift with double-double coefficients."""
    n = len(cre) - 1
    rh = cre.copy()
    rl = np.zeros(n + 1)
    ih = cim.copy()
    il = np.zeros(n + 1)
    for k in range(n):
        for j in range(n - 1, k - 1, -1):
            prh, prl, pih, pil = _cdd_mul(
                zre, 0.0, zim, 0.0, rh[j + 1], rl[j + 1], ih[j + 1], il[j + 1]
            )
            rh[j], rl[j] = _dd_add(rh[j], rl[j], prh, prl)
            ih[j], il[j] = _dd_add(ih[j], il[j], pih, pil)
    return rh, rl, ih, il


def mantexp_dd(rh, rl, ih, il):
    """Normalize each coefficient to |hi| in [1, 2) times 2**e."""
    n = len(rh)
    e = np.zeros(n, dtype=np.int64)
    orh = np.zeros(n)
    orl = np.zeros(n)
    oih = np.zeros(n)
    oil = np.zeros(n)
    for i in range(n):
        a = math.hypot(rh[i], ih[i])
        if a == 0.0:
            continue
        _, ex = math.frexp(a)
        s = -(ex - 1)
        orh[i] = math.ldexp(rh[i], s)
        orl[i] = math.ldexp(rl[i], s)
        oih[i] = math.ldexp(ih[i], s)
        oil[i] = math.ldexp(il[i], s)
        e[i] = ex - 1
    return orh, orl, oih, oil, e


def graeffe_step_me_dd(rh, rl, ih, il, e):
    """One root-squaring step on double-double mantissas with shared exponents.

    Returns the new representation plus the worst per-coefficient cancellation
    (bits between the largest contributing term and the surviving sum) and a
    flag telling whether an anchor coefficient (constant or leading) vanished.
    """
    n = len(rh) - 1
    ne = n // 2 + 1
    no = (n + 1) // 2
    orh = np.zeros(n + 1)
    orl = np.zeros(n + 1)
    oih = np.zeros(n + 1)
    oil = np.zeros(n + 1)
    oe = np.zeros(n + 1, dtype=np.int64)
    neg = n % 2 == 1
    worst_cancel = 0.0
    anchor_lost = False
    nonzero = [rh[i] != 0.0 or ih[i] != 0.0 for i in range(n + 1)]
    for j in range(n + 1):
        # even-even products add, odd-odd products subtract; pairs with a
        # zero factor are skipped
        jj = j - 1
        ev = range(max(0, j - ne + 1), min(j, ne - 1) + 1)
        od = range(max(0, jj - no + 1), min(jj, no - 1) + 1)
        pairs = [(2 * a, 2 * (j - a), 1.0) for a in ev]
        pairs += [(2 * a + 1, 2 * (jj - a) + 1, -1.0) for a in od]
        pairs = [(ia, ib, sg) for ia, ib, sg in pairs if nonzero[ia] and nonzero[ib]]
        if not pairs:
            continue
        emax = max(e[ia] + e[ib] for ia, ib, _ in pairs)

        acc_rh = 0.0
        acc_rl = 0.0
        acc_ih = 0.0
        acc_il = 0.0
        peak = 0.0
        for ia, ib, sg in pairs:
            sh = int((e[ia] + e[ib]) - emax)
            if sh > -_SHIFT_CUTOFF:
                trh, trl, tih, til = _cdd_mul(
                    rh[ia], rl[ia], ih[ia], il[ia], rh[ib], rl[ib], ih[ib], il[ib]
                )
                trh = math.ldexp(trh, sh)
                trl = math.ldexp(trl, sh)
                tih = math.ldexp(tih, sh)
                til = math.ldexp(til, sh)
                m = math.hypot(trh, tih)
                if m > peak:
                    peak = m
                acc_rh, acc_rl = _dd_add(acc_rh, acc_rl, sg * trh, sg * trl)
                acc_ih, acc_il = _dd_add(acc_ih, acc_il, sg * tih, sg * til)
        if neg:
            acc_rh, acc_rl, acc_ih, acc_il = -acc_rh, -acc_rl, -acc_ih, -acc_il
        amag = math.hypot(acc_rh, acc_ih)
        if peak > 0.0 and amag > 0.0:
            cancel = math.log2(peak / amag)
            if cancel > CANCEL_LIMIT:
                amag = 0.0  # unreliable: below the double-double noise floor
            elif cancel > worst_cancel:
                worst_cancel = cancel
        if amag == 0.0:
            if j == 0 or j == n:
                anchor_lost = True
            continue
        _, f = math.frexp(amag)
        s = -(f - 1)
        orh[j] = math.ldexp(acc_rh, s)
        orl[j] = math.ldexp(acc_rl, s)
        oih[j] = math.ldexp(acc_ih, s)
        oil[j] = math.ldexp(acc_il, s)
        oe[j] = emax + f - 1
    return orh, orl, oih, oil, oe, worst_cancel, anchor_lost


def warmup():
    """Run every kernel once on tiny inputs (imports and first-call set-up)."""
    c = np.array([-1.0, 0.0, 1.0])
    z = np.zeros(3)
    rh, rl, ih, il = taylor_shift_dd(c, z, 1.0, 0.0)
    rh, rl, ih, il, e = mantexp_dd(rh, rl, ih, il)
    graeffe_step_me_dd(rh, rl, ih, il, e)
