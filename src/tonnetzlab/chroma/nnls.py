"""Note-activation recovery: non-negative least squares per analysis frame.

Minimizes ||D a - f||_2 over a >= 0 for every frame f, given the Gram matrix
G = D^T D, the correlations h = D^T f and ||f||^2 per frame. The solver is
FISTA (Beck & Teboulle 2009): a projected-gradient step of size 1/L (L the
largest eigenvalue of G) from a point extrapolated along the last move, with
adaptive restart (O'Donoghue & Candes 2015). A step that would raise the
residual is rejected: the frame keeps its activations and drops its momentum,
so its next step is a plain projected-gradient step and the residual never
goes up. The residual is evaluated as sqrt(a.G.a - 2 a.h + ||f||^2), so the
loop never needs the dictionary itself.

A frame stops when its KKT natural residual max|min(a, G a - h)| falls to
``tol * max|h|``, which does not change when the frame is scaled, or after
``max_iter`` steps. Each step costs one product with G: the forward step
a - (G a - h) / L is affine in a, so the forward step from the extrapolated
point is the same combination of the carried forward steps of the last two
iterates.

Frames are independent, so the loop updates all frames that have not stopped
yet as one numpy batch. A frame leaves the batch at the iteration where its
own stopping test fires, and zero-energy frames never enter it, so each frame
takes exactly the steps it would take alone. The arithmetic stays per frame
too: G.a is a stack of matrix-vector products, and a.G.a and a.h are stacks
of dot products. One matrix product over the batch (a @ G) would be faster
but rounds differently, by about 1e-13, and would tie a frame's result to the
batch it is solved in. As it is, ``nnls_batch`` gives every row bit for bit
the result it gives that row alone, in any batch and any order.
"""

from __future__ import annotations

import numpy as np

from .dictionary import NoteDictionary

DEFAULT_TOL = 1e-4
DEFAULT_MAX_ITER = 500


def _rowwise_dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Dot product of each row of ``a`` with the same row of ``b``."""
    return (a[:, None, :] @ b[:, :, None])[:, 0, 0]


def nnls_batch(
    gram: np.ndarray,
    targets: np.ndarray,
    target_sq_norms: np.ndarray,
    step_bound: float,
    tol: float = DEFAULT_TOL,
    max_iter: int = DEFAULT_MAX_ITER,
    residual_history: list[float] | None = None,
) -> np.ndarray:
    """Solve NNLS for every row of ``targets`` (the h of each frame).

    Returns the activations, one row per target. ``residual_history``, when
    given, receives the residual before the first step and after every step;
    it needs a batch of one row.
    """
    out = np.zeros_like(targets)
    r = np.sqrt(np.maximum(target_sq_norms, 0.0))
    if residual_history is not None:
        if len(targets) != 1:
            raise ValueError("residual_history needs a batch of one row")
        residual_history.append(float(r[0]))
    rows = np.flatnonzero(r != 0.0)
    h = targets[rows]
    f2 = target_sq_norms[rows]
    r = r[rows]
    stop = tol * np.abs(h).max(axis=1)
    x = np.zeros_like(h)  # the iterate
    v = h / step_bound  # its forward step x - (G x - h) / L
    w = v.copy()  # the forward step from the extrapolated point
    t = np.ones(len(rows))  # FISTA's momentum sequence
    for _ in range(max_iter):
        if not len(rows):
            break
        z = np.maximum(w, 0.0)  # the projected step from the extrapolated point
        g = (gram @ z[:, :, None])[:, :, 0]
        g -= h  # the gradient G z - h
        rz = np.sqrt(np.maximum(_rowwise_dot(z, g - h) + f2, 0.0))
        kkt = np.minimum(z, g)  # the natural residual
        np.abs(kkt, out=kkt)
        g /= step_bound
        np.subtract(z, g, out=g)  # z's forward step
        t_next = 0.5 + np.sqrt(0.25 + t * t)
        # the forward step from z + beta (z - x) is g + beta (g - v)
        np.subtract(g, v, out=w)
        w *= ((t - 1.0) / t_next)[:, None]
        w += g
        stopped = kkt.max(axis=1) <= stop
        rejected = np.flatnonzero(rz > r)
        if len(rejected):  # keep x, drop the momentum: a plain projected step is next
            z[rejected] = x[rejected]
            g[rejected] = w[rejected] = v[rejected]
            t_next[rejected] = 1.0
            stopped[rejected] = False
        x, v, t, r = z, g, t_next, np.minimum(r, rz)
        if residual_history is not None:
            residual_history.append(float(r[0]))
        if stopped.any():
            out[rows[stopped]] = x[stopped]
            going = ~stopped
            rows, x, v, w, h = rows[going], x[going], v[going], w[going], h[going]
            f2, r, t, stop = f2[going], r[going], t[going], stop[going]
    out[rows] = x  # the frames that used up max_iter
    return out


def nnls_activations_batch(
    frames: np.ndarray,
    dictionary: NoteDictionary,
    tol: float = DEFAULT_TOL,
    max_iter: int = DEFAULT_MAX_ITER,
) -> np.ndarray:
    """Activations (n_frames, notes) approximately minimizing ||D a - f||, a >= 0.

    The correlations h come from one matrix product over all ``frames``, whose
    rounding can depend on how many frames it holds; the solve itself cannot.
    """
    frames = np.ascontiguousarray(frames, dtype=np.float64)
    targets = frames @ dictionary.profiles
    sq_norms = np.sum(frames * frames, axis=1)
    return nnls_batch(
        dictionary.gram(), targets, sq_norms, dictionary.step_bound(), tol, max_iter
    )


def nnls_activations(
    frame: np.ndarray,
    dictionary: NoteDictionary,
    tol: float = DEFAULT_TOL,
    max_iter: int = DEFAULT_MAX_ITER,
) -> np.ndarray:
    """Single-frame convenience wrapper."""
    return nnls_activations_batch(frame[None, :], dictionary, tol, max_iter)[0]


def nnls_residual_history(
    frame: np.ndarray,
    dictionary: NoteDictionary,
    tol: float = DEFAULT_TOL,
    max_iter: int = DEFAULT_MAX_ITER,
) -> tuple[np.ndarray, list[float]]:
    """Solve one frame recording ||D a - f|| before and after every iteration.

    Runs the same loop as ``nnls_activations_batch``, on a batch of one, so
    ``len(history) == iterations + 1``; used to check solver properties such
    as the monotone non-increasing residual.
    """
    frame = np.asarray(frame, dtype=np.float64)
    history: list[float] = []
    activations = nnls_batch(
        dictionary.gram(),
        (frame @ dictionary.profiles)[None, :],
        np.array([float(frame @ frame)]),
        dictionary.step_bound(),
        tol,
        max_iter,
        residual_history=history,
    )[0]
    return activations, history
