"""Phase-first location — read exactly sparse spectra off a shifted fold.

For an exactly sparse spectrum the engine
(:func:`~repro.core.batch.run_stack_pipeline`) locates coefficients the
way *Nearly Optimal Sparse Fourier Transform* (Hassanieh et al., the
paper's reference [3]) does, before any voting, on the plan's phase plan
(:attr:`~repro.core.plan.SfftPlan.phase`: ``min(B, max(16k, 512))``
buckets, the voting plan's permutations and tolerance; sFFT 3.0 needs
only ``O(k)`` buckets for exactly sparse spectra).  :class:`PhaseStack`
takes that plan; every loop, filter and gather below is its.  Rounds run
in lockstep over the stack, one plan loop per round:

* **fold** — loop ``r``'s samples ``x[(i*sigma_r + tau_r) mod n]`` are
  gathered once (``PlanWorkspace.window``) and folded as usual into
  ``U_r`` (``PlanWorkspace.fold``); a signal that still decodes also
  folds them one position on into ``V_r``
  (``PlanWorkspace.fold_shifted``), ``w + 1`` reads in all.  The shift
  multiplies the coefficient at permuted position ``p = sigma_r*f mod n``
  by ``e^{2 pi i p/n}``, and the filter response cancels in ``V/U``;
* **screen** (:meth:`PhaseStack.screen`, loop 0) — each signal's plain
  loop-0 fold is transformed and screened first; only a signal that
  passes folds loop 0 shifted, from the samples already gathered;
* **peel** (:meth:`PhaseStack.peel`, :meth:`PhaseStack.peel_shifted`) —
  the coefficients found in earlier loops are subtracted from ``U`` and
  ``V``, in their own bucket and both neighbours (the filter's
  transition band reaches one bucket out; past it the response is below
  the tolerance);
* **certify** — a signal is located once at least ``k`` coefficients
  are found, their values solved, and the *next* loop's buckets, with
  them peeled, all lie below the floor: a fresh permutation re-hashes
  every coefficient, so a missing or a wrong one would show there.  A
  certificate round reads ``U`` alone (``w`` samples); only a failed
  certificate gathers the loop again to fold ``V`` and decode on;
* **cutoff** (:meth:`PhaseStack.cutoff`) — the live buckets are those
  above the floor, the analogue of voting's top-``m`` selection;
* **decode** (:meth:`PhaseStack.decode`) — a live bucket ``m`` holds a
  single coefficient when ``|U| == |V|``; then
  ``p = round(angle(V/U) * n/2pi)`` must lie near an integer, hash back
  to ``m`` and sit in the passband, and ``f = sigma_r^-1 * p``;
* **solve** (:meth:`PhaseStack.solve`, before the loop that may
  certify) — each value is solved from the bucket it was decoded in,
  with every found coefficient's exact ``filt.freq`` contribution
  removed (a Jacobi iteration on the ``K x K`` coupling, built once per
  certificate attempt, usually once per signal).  For exactly sparse
  input that bucket model is exact, so the values carry rounding error
  only.  Decoded values are not: decoding cannot see a transition-band
  neighbour's share of a bucket, since the shift barely turns its phase.
  When the phase plan has fewer buckets than the voting plan (so it
  reads fewer samples), the solve then takes one more step: each value
  moves by the mean of its own bucket's residual estimates over every
  loop consumed so far, which averages the rounding error of those reads
  down.

A signal goes to voting when loop 0 fails the screen (more than
:data:`SCREEN_LIVE` live buckets per coefficient: noise lights every
bucket), when no loop of the plan certifies it, or as soon as one of
three exit rules says it is not exactly sparse, so that a signal the
route cannot certify costs at most two solves:

* its solve does not converge;
* it holds more than :data:`FOUND_CAP` times ``k`` found coefficients
  after a decode round (noise above the floor decodes as spurious
  coefficients, each of which widens the solve);
* its certificate fails for the :data:`CERTIFICATE_FAILS`-th time (one
  failure is allowed, so a ``(k+1)``-sparse draw still certifies on the
  next loop).

Loop 0 decoding nothing is no reason: with few buckets all coefficients
can collide in one loop.  Voting runs on the voting plan from scratch,
except that when the phase plan *is* the voting plan a signal's loop-0
plain fold is handed over, so voting sees the rows it would have binned
itself and returns the same bits.  The order of the folds changes what
is read, never a result: every signal takes the same loops and returns
the same bits as with both folds made in every round.

Every threshold is :data:`SLACK` times the plan's filter tolerance, the
stop-band leakage each coefficient puts into every other bucket.  All
state is flat arrays over the stack keyed by ``s*n + f``, and every
operation is elementwise or per signal, so a signal's result does not
depend on the stack it runs in.
"""

from __future__ import annotations

import numpy as np

__all__ = ["PhaseStack"]

#: Floor and singleton tolerance, in multiples of the filter tolerance.
SLACK = 100.0
#: Loop-0 screen: at most this many live buckets per coefficient (each
#: coefficient lights its own bucket and, through the transition band,
#: at most one neighbour).
SCREEN_LIVE = 3
#: Exit: more than this many found coefficients per ``k``.
FOUND_CAP = 2
#: Exit: this many failed certificates.
CERTIFICATE_FAILS = 2
#: A decoded position must lie this close to an integer.
_FRACTION = 0.25
#: Passband floor of ``|filt.freq|`` at a decoded offset.
_PASSBAND = 0.5
#: Solve convergence: last update relative to the largest value.
_SOLVE_TOL = 1e-14
#: A coefficient's own bucket and both neighbours.
_NEAR = np.array([-1, 0, 1])


def _turn(m: np.ndarray, n: int) -> np.ndarray:
    """``e^{2 pi i m/n}`` of exactly reduced integers ``0 <= m < n``."""
    return np.exp((2j * np.pi / n) * m)


class PhaseStack:
    """Phase-location state of an ``S``-signal stack.

    ``plan`` is the phase plan; ``refine`` asks :meth:`solve` to fit
    every consumed loop (see :meth:`_solve`), which pays when the phase
    plan has fewer buckets than the voting plan.  Found coefficients are
    flat arrays sorted by ``key = s*n + f``, with the loop each was
    decoded in.  ``urows[s, r]`` keeps signal ``s``'s bucket FFT of loop
    ``r``, ``rounds[s]`` how many loops it consumed, ``solved[s]``
    whether its values are solved, and ``live[s]`` its live-bucket count
    per decode round.
    """

    def __init__(self, plan, S: int, *, refine: bool = False):
        self.plan = plan
        self.refine = refine
        params = plan.params
        self.n, self.B, self.k = params.n, params.B, params.k
        self.freq = plan.filt.freq
        self.sigma = np.array([q.sigma for q in plan.permutations])
        self.tau = np.array([q.tau for q in plan.permutations])
        self.tol = SLACK * params.tolerance
        self.floor = np.zeros(S)
        self.keys = np.empty(0, dtype=np.int64)
        self.vals = np.empty(0, dtype=np.complex128)
        self.loops = np.empty(0, dtype=np.int64)
        self.count = np.zeros(S, dtype=np.int64)
        self.urows = None  # (S, L, B), allocated once a signal passes
        self.rounds = np.zeros(S, dtype=np.int64)
        self.solved = np.zeros(S, dtype=bool)
        self.live: list[list[int]] = [[] for _ in range(S)]

    # -- one round ------------------------------------------------------

    def screen(self, s: int, u: np.ndarray) -> bool:
        """Set signal ``s``'s floor from its loop-0 buckets ``u`` and say
        whether it passes the screen: at most :data:`SCREEN_LIVE` live
        buckets per coefficient."""
        mags = np.abs(u)
        floor = self.tol * mags.max()
        self.floor[s] = floor
        return np.count_nonzero(mags > floor) <= SCREEN_LIVE * self.k

    def solve(self, signals: np.ndarray) -> None:
        """Solve the values of ``signals`` (each with at least ``k``
        found) before the loop that may certify them; ``solved`` marks
        those whose solve converged."""
        n = self.n
        for s in signals.tolist():
            lo, hi = self.keys.searchsorted([s * n, (s + 1) * n]).tolist()
            x = self._solve(s, lo, hi)
            self.solved[s] = x is not None
            if x is not None:
                self.vals[lo:hi] = x

    def peel(self, running: np.ndarray, r: int, U: np.ndarray):
        """Take loop ``r``'s plain bucket FFTs ``U`` (``(A, B)``, one row
        per signal in ``running``, ascending) and return them with the
        found coefficients peeled, which signals this loop certifies, and
        the peel's spread for :meth:`peel_shifted` (``None`` when there
        is nothing to peel)."""
        n, B = self.n, self.B
        if self.urows is None:
            self.urows = np.empty((self.count.size, self.plan.loops, B),
                                  dtype=np.complex128)
        self.urows[running, r] = U
        self.rounds[running] = r + 1
        done = np.zeros(running.size, dtype=bool)
        if not self.keys.size:
            return U, done, None
        sig = self.keys // n
        member = np.zeros(self.count.size, dtype=bool)
        member[running] = True
        mine = member[sig].nonzero()[0]
        if not mine.size:
            return U, done, None
        idx, w, p = self._spread(mine, r)
        idx += running.searchsorted(sig[mine])[:, None] * B
        c = w * self.vals[mine, None]
        du = np.zeros(U.size, dtype=np.complex128)
        np.add.at(du, idx, c)
        U = U - du.reshape(U.shape)
        done = self.solved[running] \
            & (np.abs(U).max(axis=1) <= self.floor[running])
        return U, done, (idx, c, p)

    def peel_shifted(self, V: np.ndarray, spread) -> np.ndarray:
        """Peel the shifted bucket FFTs ``V`` (rows as in :meth:`peel`)
        with the spread :meth:`peel` returned."""
        if spread is None:
            return V
        idx, c, p = spread
        dv = np.zeros(V.size, dtype=np.complex128)
        np.add.at(dv, idx, c * _turn(p, self.n)[:, None])
        return V - dv.reshape(V.shape)

    def cutoff(self, running: np.ndarray, U: np.ndarray, stop: np.ndarray):
        """Live buckets of the signals still decoding (those ``stop`` does
        not mark), as flat indices into ``U``, with ``|U|`` flat."""
        mags = np.abs(U)
        live = mags > self.floor[running][:, None]
        live[stop] = False
        counts = live.sum(axis=1)
        for s, c, d in zip(running.tolist(), counts.tolist(), stop.tolist()):
            if not d:
                self.live[s].append(c)
        return live.ravel().nonzero()[0], mags.ravel()

    def decode(self, running: np.ndarray, r: int, U: np.ndarray,
               V: np.ndarray, flat: np.ndarray, mags: np.ndarray):
        """Read singletons off the live buckets ``flat`` and merge them."""
        n, B = self.n, self.B
        nb = n // B
        perm = self.plan.permutations[r]
        a, b, mag = U.take(flat), V.take(flat), mags.take(flat)
        m = flat & (B - 1)
        q = b / a
        t = np.arctan2(q.imag, q.real) * (n / (2 * np.pi))
        p = np.rint(t)
        ok = (np.abs(mag - np.abs(b)) <= self.tol * mag) \
            & (np.abs(t - p) <= _FRACTION)
        p = p.astype(np.int64) & (n - 1)
        h = (p + nb // 2) // nb
        g = self.freq.take((h * nb - p) & (n - 1))
        ok &= ((h & (B - 1)) == m) & (np.abs(g) >= _PASSBAND)
        pos = flat[ok] // B
        f = p[ok] * perm.sigma_inv & (n - 1)
        val = n * a[ok] / (g[ok] * _turn(f * perm.tau & (n - 1), n))
        self._merge(running[pos] * n + f, val, r)
        self.solved[running] = False

    # -- helpers --------------------------------------------------------

    def _spread(self, entries: np.ndarray, r: int):
        """Where found ``entries`` land in loop ``r``'s buckets: each
        one's own bucket and both neighbours ``(E, 3)``, its response
        there per unit value ``(E, 3)``, and its permuted position."""
        n, B = self.n, self.B
        nb = n // B
        perm = self.plan.permutations[r]
        f = self.keys[entries] & (n - 1)
        p = f * perm.sigma & (n - 1)
        d = (p + nb // 2) % nb - nb // 2   # offset from the bucket centre
        g = self.freq.take((_NEAR * nb - d[:, None]) & (n - 1))
        g *= (_turn(f * perm.tau & (n - 1), n) / n)[:, None]
        return (((p - d) // nb)[:, None] + _NEAR) & (B - 1), g, p

    def _merge(self, keys, vals, r) -> None:
        """Add decoded ``(keys, vals)``: a coefficient found again is
        corrected (a wrong decode peeled back out cancels), and values
        peeled down to below the floor are dropped."""
        if self.keys.size:
            at = self.keys.searchsorted(keys)
            old = self.keys[np.minimum(at, self.keys.size - 1)] == keys
            self.vals[at[old]] += vals[old]
            new = ~old
            keys = np.concatenate([self.keys, keys[new]])
            vals = np.concatenate([self.vals, vals[new]])
            loops = np.concatenate([self.loops, np.full(int(new.sum()), r)])
        else:
            loops = np.full(keys.size, r)
        order = keys.argsort()
        order = order[np.abs(vals[order])
                      > self.floor[keys[order] // self.n] * self.n]
        self.keys, self.vals = keys[order], vals[order]
        self.loops = loops[order]
        self.count = np.bincount(self.keys // self.n,
                                 minlength=self.count.size)

    def _equations(self, s: int, lo: int, hi: int, loops: np.ndarray):
        """Signal ``s``'s (entries ``lo:hi``) equations: row ``i`` of loop
        ``loops[..., i]`` is the bucket entry ``i`` hashes to in that
        loop.  ``loops`` is ``(K,)`` (one loop per entry) or ``(Q, 1)``
        (every entry in each of ``Q`` loops).  Returns the filter response
        of every found coefficient in those buckets ``(..., K, K)``, the
        coefficients' twiddles ``e^{2 pi i f tau_q/n}/n`` per loop ``q``
        up to the last one named (a response times its coefficient's
        twiddle is its exact coupling) and the buckets' values
        ``(..., K)``."""
        n, nb, B = self.n, self.n // self.B, self.B
        F = self.keys[lo:hi] - s * n
        Q = int(loops.max()) + 1
        p = F * self.sigma[:Q, None] & (n - 1)
        m = ((p[loops, np.arange(F.size)] + nb // 2) // nb) & (B - 1)
        idx = m[..., None] * nb - p[loops]
        idx &= n - 1
        twiddle = _turn(F * self.tau[:Q, None] & (n - 1), n) / n
        return self.freq.take(idx), twiddle, self.urows[s, loops, m]

    def _solve(self, s: int, lo: int, hi: int) -> np.ndarray | None:
        """Values of signal ``s`` (entries ``lo:hi``) with every found
        coefficient's exact contribution removed; ``None`` if the
        iteration does not converge (a NaN or an overflow never does, and
        goes to voting, which rejects it).

        A Jacobi iteration solves one equation per coefficient, its bucket
        in the loop it was decoded in.  With :attr:`refine`, once the
        signal has consumed more than one loop, one more step then moves
        each value by the mean of its own bucket's residual estimates over
        every consumed loop, which averages the rounding error of those
        reads down."""
        Q, decoded = int(self.rounds[s]), self.loops[lo:hi]
        own = np.arange(decoded.size)
        refine = self.refine and Q > 1
        G, twiddle, u = self._equations(
            s, lo, hi, np.arange(Q)[:, None] if refine else decoded)
        A, ud = (G[decoded, own], u[decoded, own]) if refine else (G, u)
        A = A * twiddle[decoded]
        d = A[own, own]
        x = self.vals[lo:hi].copy()
        scale = float(np.abs(x).max())
        for _ in range(2 * Q + 8):
            # einsum, not A @ x: a multithreaded BLAS gemv overcommits
            # the cores when the executor's workers solve at once.
            dx = (ud - np.einsum("ij,j->i", A, x)) / d
            x += dx
            if np.abs(dx).max() <= _SOLVE_TOL * scale:
                break
        else:
            return None
        if refine:
            r = u - np.einsum("qij,qj->qi", G, twiddle * x)
            x += (r / (G.diagonal(axis1=1, axis2=2) * twiddle)).mean(axis=0)
        return x

    # -- results --------------------------------------------------------

    def located(self, s: int):
        """Signal ``s``'s solved ``(freqs, values, votes)``.  ``votes``
        counts the loops that confirmed each frequency: the one it was
        decoded in and every later loop it was peeled from."""
        n = self.n
        lo, hi = self.keys.searchsorted([s * n, (s + 1) * n]).tolist()
        return (self.keys[lo:hi] - s * n, self.vals[lo:hi],
                self.rounds[s] - self.loops[lo:hi])
