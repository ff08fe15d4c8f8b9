"""Note-activation recovery: non-negative least squares per analysis frame.

Minimizes phi(a) = ||D a - f||^2 / 2 over a >= 0 for every frame f. With
G = D^T D and h = D^T f its gradient is g = G a - h. The solver is FISTA
(Beck & Teboulle 2009): a projected-gradient step of size gamma =
STEP_SCALE / L (L the largest eigenvalue of G) from a point extrapolated along
the last move, with adaptive restart (O'Donoghue & Candes 2015). A step that
would raise the objective is rejected: the frame keeps its activations and
drops its momentum, so its next step is a plain projected-gradient step and
the objective never goes up. phi is quadratic, so the test reads the
objective change phi(z) - phi(x) = (z - x).(g_z + g_x) / 2. Unlike a
difference of two residuals this does not cancel near the optimum.

The step is longer than the textbook 1/L, and the momentum is bounded
(Liang, Luo & Schoenlieb, SIAM J. Sci. Comput. 2022). For a projected step
z = max(y - gamma g_y, 0) from any point y, L bounds the curvature of phi, so
phi(z) <= phi(y) + g_y.(z - y) + (L/2) ||z - y||^2, and z is the nearest
point of the orthant to y - gamma g_y, so g_y.(z - y) <= -||z - y||^2 / gamma.
Together: phi(z) <= phi(y) - (1/gamma - L/2) ||z - y||^2, a strict fall for
every gamma < 2/L; at STEP_SCALE = 1.5 it is (L/6) ||z - y||^2. So a plain
step (y = x) still lowers phi unless z == x, and a plain step that the test
rejects still means a fall below float32's resolution: the rejection test,
the monotone residual and the plain-step stop below keep their meaning, with
no fallback step. The momentum sequence is FISTA-Mod's with (p, q, r) =
(1, 1, 4 MOMENTUM): t' = 1/2 + sqrt(1/4 + MOMENTUM t^2). With MOMENTUM = 3/4,
t rises to 4 and the momentum (t - 1) / t' to 3/4, where FISTA's (MOMENTUM = 1)
rises to 1. Frame-iterations over the three seed-11 perfbench tracks (1,202
frames), relative to 68,757 for (1.0, 1), by (gamma L, MOMENTUM):

    (1.0, 1) 1.000    (1.5, 1) 0.815    (1.5, 0.75) 0.721
    (1.5, 0.8125) 0.738    (1.3, 0.8125) 0.765
    (1.7, 0.75) 0.835    (1.9, 0.75) 1.228 (3 frames reach max_iter)

The momentum bound alone gains little: (1.0, 0.75) gives 0.975. The pair
loses at very low SNR. On the 171 frames of the test suite's acceptance
sequence it takes 8,318 frame-iterations at 10 dB, where the 1/L step with
FISTA's sequence took 11,220, but 16,025 at 0 dB, where that took 13,468;
(1.5, 1) and (1.5, 0.8125) take 14,342 and 14,623 there. The turn lies
between 5 dB (11,086 against 12,248) and 3 dB (13,201 against 12,969); at
3 dB one frame runs out its 500 iterations, still at a KKT residual of 0.074
against a stop of 0.040, where no frame took more than 114 before.

Every array is WORK_DTYPE (float32): the frames, D, G, the iterates and the
momentum; L is a Python float, so no float64 scalar promotes them. A gradient
then carries a rounding error of a few eps * max|h| in each coordinate (eps =
2^-23), and the change can read zero or less for a step that raises phi a
little. So a step is kept only when 2 (phi(z) - phi(x)) reads below
-ROUNDING_MARGIN * eps * max|h| * ||z - x||. Over 101,342 kept steps of random
and synthetic-track frames, the float32 change missed a float64 one by 0.39
of that unit in the median and 7.3 at most. Without the margin (with the
plain-step stop below), a frame that a property test drew rose by 1.1e-9 in
residual: a step that raised 2 phi by 2.6e-7, about one unit, read as a fall. Taking that dot product in float64
kept the rise, as the error sits in the float32 gradients. Near the optimum
a plain projected step (no momentum, t == 1) falls inside the margin too.
Rejecting it leaves x, v and t as they were, so the same step would come
again at every iteration: the frame stops there, with the activations it
would hold at max_iter. So tight tolerances end at float32's resolution
rather than at max_iter.

A frame stops when its KKT natural residual max|min(a, g)| falls to
``tol * max|h|``, which does not change when the frame is scaled, when its
plain step is rejected, or after ``max_iter`` steps. D is invertible, so
h == 0 exactly when f == 0; such a frame is solved by a == 0 and never takes
a step. Each step costs one product with G: the forward step a - gamma g is
affine in a, so the forward step from the extrapolated point is the same
combination of the carried forward steps of the last two iterates.

Frames are independent, so the loop updates all frames that have not stopped
yet as one numpy batch, and a frame leaves the batch at the iteration where its
own stopping test fires. Both matrix products, h = D^T f and G z, are GEMMs of
one fixed shape: FRAME_BLOCK rows at a time, a short last block padded with
zero rows (``_block_product``). For G z on 688 rows the block sgemm takes
0.086-0.091 us a row, against 0.31-0.33 us for the stacked float32
matrix-vector products it replaces and 0.16 us for the float64 block GEMM it
replaced (one BLAS thread). A GEMM over the whole batch is as fast, but its
shape changes with the batch, and BLAS picks its kernel path by shape. In
float64, a row's result moved by up to 2.7e-15 as the batch size changed. In
float32, only a one-row batch differed, by one ulp: numpy sends it to gemv.
With a single shape every call takes one path, and a row's result depended
neither on its position in the block nor on the other rows in it. In float32
that held at every block size from 1 to 128: 200 trials at each multiple of 4
and 20 at each other size, with one BLAS thread and with two (OpenBLAS
0.3.31, 2-core x86 host). In float64 it held at the multiples of 4 only; at
the other sizes the last (size mod 4) rows went through BLAS's edge kernel
and could differ. FRAME_BLOCK = 64 is a multiple of the usual row unrolls,
4, 8 and 16. So a frame's activations are bit for bit the same alone and in
any batch, in any order. A second path for small batches, such as one
matrix-vector product per frame, would break that. The rest of the arithmetic
is per frame; the restart test is a stack of dot products.

The measurements below were taken in float64, before the solver moved to
float32, and were not repeated.

Two alternatives were measured and dropped (2-core x86 host, numpy 2.4, one
BLAS thread). D is lower-triangular with 8 non-zeros a column, but applying it
as 16 shifted axpys took 2.6-3.1 us a row, against 0.66-0.95 us for the
stacked matvec with G that preceded the block GEMM. A warm start from
max(D^-1 f, 0) saved only 6-13% of the iterations on synthetic tracks, too
little for a second start path.

Two more were bit-identical but gave no gain that shows (same host, stacked
matvec, two runs of nine solves of the 688 frames of a 64 s, 10 dB track).
Preallocated work buffers, swapped between iterations and compacted in place as
frames stop, in place of the fresh (n, 73) arrays each iteration makes: minimum
91-118 ms, median 95-120 ms, against 94-121 and 120-149 ms for this loop,
inside the host's drift. Splitting the frames between two threads: every
frame's arithmetic is its own, so the result is the same, but numpy releases
the GIL only inside each call, and the per-iteration Python work of the two
halves does not overlap. It took 1.4-2.3 times as long at 100 frames, was
faster or slower by run at 300, and 6-41% faster at 600 and 688 frames.

With the block GEMM in place, a batch kept in whole FRAME_BLOCKs was measured
too: stopped frames stay in their rows and are masked out, G z is one stacked
matmul over the (blocks, FRAME_BLOCK, notes) view, and the arrays are
compacted only when a whole block has stopped. It is bit-identical, but the
frames that have stopped keep costing a full iteration each, which outweighs
the copies it saves: minimum 64.3-64.8 ms, median 74.8-76.1 ms, against
50.6-51.2 and 56.9-61.0 ms for this loop (two runs of nine solves of the 688
frames of a 64 s, 10 dB track; 2-core x86 host, numpy 2.4, OpenBLAS 0.3.31,
one BLAS thread).
"""

from __future__ import annotations

import numpy as np

from .dictionary import NoteDictionary
from .spectral import FRAME_BLOCK, WORK_DTYPE

DEFAULT_TOL = 1e-4
DEFAULT_MAX_ITER = 500
# a step must lower 2 phi by this many eps * max|h| * ||z - x|| (see above)
ROUNDING_MARGIN = 10.0
# the step is STEP_SCALE / L, below the 2 / L that keeps a step a descent
STEP_SCALE = 1.5
# FISTA-Mod's momentum sequence t' = 1/2 + sqrt(1/4 + MOMENTUM t^2)
MOMENTUM = 0.75


def _block_product(a: np.ndarray, m: np.ndarray) -> np.ndarray:
    """``a @ m`` as one (FRAME_BLOCK, k) x (k, n) GEMM per FRAME_BLOCK rows of ``a``.

    The whole blocks go through one stacked matmul over the (blocks,
    FRAME_BLOCK, k) view; the last block, when short, is padded with zero
    rows. So every BLAS call has the same shape and a row's result does not
    depend on the batch.
    """
    out = np.empty((len(a), m.shape[1]), a.dtype)
    whole = len(a) - len(a) % FRAME_BLOCK
    np.matmul(
        a[:whole].reshape(-1, FRAME_BLOCK, a.shape[1]),
        m,
        out=out[:whole].reshape(-1, FRAME_BLOCK, m.shape[1]),
    )
    if whole < len(a):
        padded = np.zeros((FRAME_BLOCK, a.shape[1]), a.dtype)
        padded[: len(a) - whole] = a[whole:]
        out[whole:] = (padded @ m)[: len(a) - whole]
    return out


def nnls_activations_batch(
    frames: np.ndarray,
    dictionary: NoteDictionary,
    tol: float = DEFAULT_TOL,
    max_iter: int = DEFAULT_MAX_ITER,
    iterates: list[np.ndarray] | None = None,
) -> np.ndarray:
    """Activations (n_frames, notes) approximately minimizing ||D a - f||, a >= 0.

    ``iterates``, when given, receives the activations before the first step
    and after every step; it needs a batch of one frame.
    """
    frames = np.ascontiguousarray(frames, dtype=WORK_DTYPE)
    h = _block_product(frames, dictionary.profiles)
    out = np.zeros_like(h)
    if iterates is not None:
        if len(frames) != 1:
            raise ValueError("iterates needs a batch of one frame")
        iterates.append(out[0].copy())
    scale = np.abs(h).max(axis=1)
    rows = np.flatnonzero(scale)
    h = h[rows]
    stop = tol * scale[rows]
    slack = (ROUNDING_MARGIN * float(np.finfo(WORK_DTYPE).eps)) * scale[rows]
    gram, step = dictionary.gram(), STEP_SCALE / dictionary.step_bound()
    x = np.zeros_like(h)  # the iterate
    gx = -h  # its gradient G x - h
    v = h * step  # its forward step x - step gx
    w = v.copy()  # the forward step from the extrapolated point
    t = np.ones(len(rows), WORK_DTYPE)  # FISTA's momentum sequence
    for _ in range(max_iter):
        if not len(rows):
            break
        z = np.maximum(w, 0.0)  # the projected step from the extrapolated point
        g = _block_product(z, gram)  # gram is exactly symmetric, so row i is G z_i
        g -= h  # the gradient G z - h
        kkt = np.minimum(z, g)  # the natural residual
        np.abs(kkt, out=kkt)
        # reject when 2 (phi(z) - phi(x)) > -slack ||z - x||; w and vz serve as
        # scratch here, as a fresh array costs more than a pass over one
        vz = g + gx
        np.subtract(z, x, out=w)
        change = np.vecdot(w, vz)
        change += slack * np.sqrt(np.vecdot(w, w))
        rejected = np.flatnonzero(change > 0.0)
        np.multiply(g, step, out=vz)
        np.subtract(z, vz, out=vz)  # z's forward step
        t_next = 0.5 + np.sqrt(0.25 + MOMENTUM * t * t)
        # the forward step from z + beta (z - x) is vz + beta (vz - v)
        np.subtract(vz, v, out=w)
        w *= ((t - 1.0) / t_next)[:, None]
        w += vz
        stopped = (kkt <= stop[:, None]).all(axis=1)
        if len(rejected):  # keep x, drop the momentum: a plain projected step is next
            z[rejected] = x[rejected]
            g[rejected] = gx[rejected]
            vz[rejected] = w[rejected] = v[rejected]
            # a rejected plain step (t == 1) would repeat exactly: x is as close
            # as float32 gets, so the frame stops there
            stopped[rejected] = t[rejected] == 1.0
            t_next[rejected] = 1.0
        x, gx, v, t = z, g, vz, t_next
        if iterates is not None:
            iterates.append(x[0].copy())
        if stopped.any():
            out[rows[stopped]] = x[stopped]
            going = ~stopped
            rows, x, gx, v, w = rows[going], x[going], gx[going], v[going], w[going]
            h, t, stop, slack = h[going], t[going], stop[going], slack[going]
    out[rows] = x  # the frames that used up max_iter
    return out


def nnls_residual_history(
    frame: np.ndarray,
    dictionary: NoteDictionary,
    tol: float = DEFAULT_TOL,
    max_iter: int = DEFAULT_MAX_ITER,
) -> tuple[np.ndarray, list[float]]:
    """Solve one frame recording ||D a - f|| before and after every iteration.

    Runs ``nnls_activations_batch`` on a batch of one, so
    ``len(history) == iterations + 1``; used to check solver properties such
    as the monotone non-increasing residual. The residuals are those of the
    WORK_DTYPE problem the solver sees, computed in float64 so that their own
    rounding neither hides nor fakes a rise.
    """
    frame = np.asarray(frame, dtype=WORK_DTYPE)
    iterates: list[np.ndarray] = []
    activations = nnls_activations_batch(
        frame[None, :], dictionary, tol, max_iter, iterates
    )[0]
    profiles, target = dictionary.profiles.astype(np.float64), frame.astype(np.float64)
    return activations, [float(np.linalg.norm(profiles @ a - target)) for a in iterates]
