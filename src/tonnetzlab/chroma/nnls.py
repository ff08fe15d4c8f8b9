"""Note-activation recovery: non-negative least squares per analysis frame.

Minimizes phi(a) = ||D a - f||^2 / 2 over a >= 0 for every frame f. With
G = D^T D and h = D^T f its gradient is g = G a - h. The solver is FISTA
(Beck & Teboulle 2009): a projected-gradient step of size 1/L (L the largest
eigenvalue of G) from a point extrapolated along the last move, with adaptive
restart (O'Donoghue & Candes 2015). A step that would raise the objective is
rejected: the frame keeps its activations and drops its momentum, so its next
step is a plain projected-gradient step and the objective never goes up. phi
is quadratic, so the test reads the sign of the exact objective change
phi(z) - phi(x) = (z - x).(g_z + g_x) / 2. Unlike a difference of two
residuals this does not cancel near the optimum, so tight tolerances converge.

A frame stops when its KKT natural residual max|min(a, g)| falls to
``tol * max|h|``, which does not change when the frame is scaled, or after
``max_iter`` steps. D is invertible, so h == 0 exactly when f == 0; such a
frame is solved by a == 0 and never takes a step. Each step costs one product
with G: the forward step a - g / L is affine in a, so the forward step from the
extrapolated point is the same combination of the carried forward steps of the
last two iterates.

Frames are independent, so the loop updates all frames that have not stopped
yet as one numpy batch, and a frame leaves the batch at the iteration where its
own stopping test fires. Both matrix products, h = D^T f and G z, are GEMMs of
one fixed shape: FRAME_BLOCK rows at a time, a short last block padded with
zero rows (``_block_product``). For G z on 688 rows, the stacked matrix-vector
products they replace took 0.68-0.74 us a row, the block GEMM 0.24 us.
A GEMM over the whole batch is as fast, but its shape changes with the batch,
BLAS picks its kernel path by shape, and a row's result moved by up to 2.7e-15
as the batch size changed. With a single shape every call takes one path, and
a row's result depended neither on its position in the block nor on the other
rows in it. That held in 200 trials at every block size from 8 to 128 that is
a multiple of 4, with one BLAS thread and with two (OpenBLAS 0.3.31, 2-core
x86 host). At the other sizes the last (size mod 4) rows went through BLAS's
edge kernel and could differ; FRAME_BLOCK = 64 is a multiple of the usual row
unrolls, 4, 8 and 16. So a frame's activations are bit for bit the same alone
and in any batch, in any order. A second path for small batches, such as one
matrix-vector product per frame, would break that. The rest of the arithmetic
is per frame; the restart test is a stack of dot products.

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
from .spectral import FRAME_BLOCK

DEFAULT_TOL = 1e-4
DEFAULT_MAX_ITER = 500


def _block_product(a: np.ndarray, m: np.ndarray) -> np.ndarray:
    """``a @ m`` as one (FRAME_BLOCK, k) x (k, n) GEMM per FRAME_BLOCK rows of ``a``.

    The last block, when short, is padded with zero rows, so every BLAS call
    has the same shape and a row's result does not depend on the batch.
    """
    out = np.empty((len(a), m.shape[1]))
    whole = len(a) - len(a) % FRAME_BLOCK
    for start in range(0, whole, FRAME_BLOCK):
        block = slice(start, start + FRAME_BLOCK)
        np.matmul(a[block], m, out=out[block])
    if whole < len(a):
        padded = np.zeros((FRAME_BLOCK, a.shape[1]))
        padded[: len(a) - whole] = a[whole:]
        out[whole:] = (padded @ m)[: len(a) - whole]
    return out


def _rowwise_dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Dot product of each row of ``a`` with the same row of ``b``."""
    return (a[:, None, :] @ b[:, :, None])[:, 0, 0]


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
    frames = np.ascontiguousarray(frames, dtype=np.float64)
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
    gram, step_bound = dictionary.gram(), dictionary.step_bound()
    x = np.zeros_like(h)  # the iterate
    gx = -h  # its gradient G x - h
    v = h / step_bound  # its forward step x - gx / L
    w = v.copy()  # the forward step from the extrapolated point
    t = np.ones(len(rows))  # FISTA's momentum sequence
    for _ in range(max_iter):
        if not len(rows):
            break
        z = np.maximum(w, 0.0)  # the projected step from the extrapolated point
        g = _block_product(z, gram)  # gram is exactly symmetric, so row i is G z_i
        g -= h  # the gradient G z - h
        kkt = np.minimum(z, g)  # the natural residual
        np.abs(kkt, out=kkt)
        # reject when 2 (phi(z) - phi(x)) > 0; w and vz serve as scratch here,
        # as a fresh array costs more than a pass over one
        vz = g + gx
        rejected = np.flatnonzero(_rowwise_dot(np.subtract(z, x, out=w), vz) > 0.0)
        np.divide(g, step_bound, out=vz)
        np.subtract(z, vz, out=vz)  # z's forward step
        t_next = 0.5 + np.sqrt(0.25 + t * t)
        # the forward step from z + beta (z - x) is vz + beta (vz - v)
        np.subtract(vz, v, out=w)
        w *= ((t - 1.0) / t_next)[:, None]
        w += vz
        stopped = kkt.max(axis=1) <= stop
        if len(rejected):  # keep x, drop the momentum: a plain projected step is next
            z[rejected] = x[rejected]
            g[rejected] = gx[rejected]
            vz[rejected] = w[rejected] = v[rejected]
            t_next[rejected] = 1.0
            stopped[rejected] = False
        x, gx, v, t = z, g, vz, t_next
        if iterates is not None:
            iterates.append(x[0].copy())
        if stopped.any():
            out[rows[stopped]] = x[stopped]
            going = ~stopped
            rows, x, gx, v, w = rows[going], x[going], gx[going], v[going], w[going]
            h, t, stop = h[going], t[going], stop[going]
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
    as the monotone non-increasing residual.
    """
    frame = np.asarray(frame, dtype=np.float64)
    iterates: list[np.ndarray] = []
    activations = nnls_activations_batch(
        frame[None, :], dictionary, tol, max_iter, iterates
    )[0]
    profiles = dictionary.profiles
    return activations, [float(np.linalg.norm(profiles @ a - frame)) for a in iterates]
