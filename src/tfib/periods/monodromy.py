"""Monodromy of a period frame by continuous branch tracking.

Kernel angles are unwrapped along the whole loop at once: the increments
between successive loop samples are reduced to (-pi, pi] and summed, and
the loop is refined until every increment stays below pi/8.  After the
loop the transported frame is expressed in the original frame at the
base point and the matrix snapped to integers.  The returned matrix acts
on cycle-coordinate columns, i.e. it is the transpose of the row relation
between transported and original covector rows -- the convention that
sends the focus-focus frame's anticlockwise unit loop to [[1, 0], [1, 1]].
"""

from __future__ import annotations

import math

import numpy as np

from .. import zlat
from .frames import PeriodFrame

MAX_ANGLE_STEP = math.pi / 8.0
#: loop samples of the first tracking pass; doubled on each refinement
N_STEPS = 256
MAX_REFINEMENTS = 8
#: largest distance of the transported matrix from the integers
SNAP_TOLERANCE = 1e-3


def monodromy_from_frame(frame: PeriodFrame, loop):
    """Integer monodromy matrix of the frame transported along ``loop``.

    ``loop`` maps parameters in [0, 1] to base points with
    loop(0) = loop(1) (the tracker appends the closing point).  Tracking
    starts at ``N_STEPS`` samples and doubles them up to
    ``MAX_REFINEMENTS`` times; if the angle steps still exceed
    ``MAX_ANGLE_STEP``, the loop meets (or grazes) the discriminant and a
    ``ValueError`` is raised, as it is when the transported matrix fails
    to snap to integers within ``SNAP_TOLERANCE``.
    """
    steps = N_STEPS
    for _ in range(MAX_REFINEMENTS):
        t = np.linspace(0.0, 1.0, steps + 1)
        pts = np.atleast_2d(np.asarray(loop(t), dtype=float))
        if not np.allclose(pts[0], pts[-1], atol=1e-12):
            raise ValueError("loop is not closed")
        # unwrapped[i][j] holds the continuous kernel angles of form i at
        # pts[j]: the first principal angles plus the reduced increments
        unwrapped = []
        worst = 0.0
        for form in frame.forms:
            raw = form.angles(pts)
            delta = np.diff(raw, axis=0)
            delta -= 2.0 * math.pi * np.round(delta / (2.0 * math.pi))
            worst = max(worst, float(np.max(np.abs(delta), initial=0.0)))
            unwrapped.append(np.cumsum(np.concatenate([raw[:1], delta]), axis=0))
        if worst <= MAX_ANGLE_STEP:
            break
        steps *= 2
    else:
        raise ValueError(
            "angle tracking failed to meet the step bound: "
            "the loop meets the discriminant"
        )

    # The transported frame differs from the original by constant kernel
    # windings, so F_final(b) = M F_init(b) at every loop point; solving
    # over several probe points keeps the system nondegenerate even where
    # a single frame matrix drops rank (e.g. log|b| = 0 on a unit loop).
    # The (probes, forms, d) matrices are laid side by side as (forms,
    # probes * d).
    probes = [int(steps * frac) for frac in (0.0, 0.29, 0.55, 0.81)]
    f_init = frame.matrix_at(pts[probes], [u[probes] for u in unwrapped])
    f_final = frame.matrix_at(pts[probes],
                              [u[probes] + (u[-1] - u[0]) for u in unwrapped])
    f_init = np.concatenate(f_init, axis=1)
    f_final = np.concatenate(f_final, axis=1)
    rows = np.linalg.lstsq(f_init.T, f_final.T, rcond=None)[0].T
    snapped = np.rint(rows)
    defect = float(np.max(np.abs(rows - snapped)))
    if defect > SNAP_TOLERANCE:
        raise ValueError(
            f"transported frame is not integral (defect {defect:.2e}); "
            "branch tracking failed or the loop meets the discriminant"
        )
    return zlat.mat(snapped.T.astype(int).tolist())
