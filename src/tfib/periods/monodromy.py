"""Monodromy of a period frame by continuous branch tracking.

Kernel angles are unwrapped along the loop with step control (refine until
every increment stays below pi/8); after the loop the transported frame is
expressed in the original frame at the base point and the matrix snapped
to integers.  The returned matrix acts on cycle-coordinate columns, i.e.
it is the transpose of the row relation between transported and original
covector rows -- the convention that sends the focus-focus frame's
anticlockwise unit loop to [[1, 0], [1, 1]].
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


def _track_angles(form, loop_points):
    """Unwrapped angle history along the loop (and max step) for one form.

    Returns (history, worst): history[j] lists the continuous kernel
    angles at loop_points[j].
    """
    if not form.kernels:
        return [[] for _ in loop_points], 0.0
    angles = [k.principal_angle(loop_points[0]) for k in form.kernels]
    history = [list(angles)]
    worst = 0.0
    for b in loop_points[1:]:
        for i, k in enumerate(form.kernels):
            raw = k.principal_angle(b)
            delta = raw - angles[i]
            delta -= 2.0 * math.pi * round(delta / (2.0 * math.pi))
            worst = max(worst, abs(delta))
            angles[i] = angles[i] + delta
        history.append(list(angles))
    return history, worst


def monodromy_from_frame(frame: PeriodFrame, loop):
    """Integer monodromy matrix of the frame transported along ``loop``.

    ``loop`` maps parameters in [0, 1] to base points with
    loop(0) = loop(1) (the tracker appends the closing point).  Tracking
    starts at ``N_STEPS`` samples and doubles them up to
    ``MAX_REFINEMENTS`` times.  Raises if the transported matrix fails to
    snap to integers within ``SNAP_TOLERANCE``.
    """
    steps = N_STEPS
    for _ in range(MAX_REFINEMENTS):
        t = np.linspace(0.0, 1.0, steps + 1)
        pts = np.atleast_2d(np.asarray(loop(t), dtype=float))
        if not np.allclose(pts[0], pts[-1], atol=1e-12):
            raise ValueError("loop is not closed")
        histories = []
        worst = 0.0
        for form in frame.forms:
            history, step_size = _track_angles(form, pts)
            histories.append(history)
            worst = max(worst, step_size)
        if worst <= MAX_ANGLE_STEP:
            break
        steps *= 2
    else:
        raise RuntimeError("angle tracking failed to meet the step bound")

    # The transported frame differs from the original by constant kernel
    # windings, so F_final(b) = M F_init(b) at every loop point; solving
    # over several probe points keeps the system nondegenerate even where
    # a single frame matrix drops rank (e.g. log|b| = 0 on a unit loop).
    probes = [int(steps * frac) for frac in (0.0, 0.29, 0.55, 0.81)]
    init_blocks = []
    final_blocks = []
    for j in probes:
        angle_init = [histories[i][j] for i in range(len(frame.forms))]
        angle_final = [
            [a + (histories[i][-1][k] - histories[i][0][k])
             for k, a in enumerate(histories[i][j])]
            for i in range(len(frame.forms))
        ]
        init_blocks.append(frame.matrix_at(pts[j], angle_table=angle_init))
        final_blocks.append(frame.matrix_at(pts[j], angle_table=angle_final))
    f_init = np.concatenate(init_blocks, axis=1)
    f_final = np.concatenate(final_blocks, axis=1)
    rows = np.linalg.lstsq(f_init.T, f_final.T, rcond=None)[0].T
    snapped = np.rint(rows)
    defect = float(np.max(np.abs(rows - snapped)))
    if defect > SNAP_TOLERANCE:
        raise ValueError(
            f"transported frame is not integral (defect {defect:.2e}); "
            "branch tracking failed or the loop meets the discriminant"
        )
    return zlat.mat(snapped.T.astype(int).tolist())
