"""``sweep`` — raster-scan frame processing (ODSA-style regular access).

Not one of the paper's six Table III applications: this model captures
the *sweep/scan* access pattern of the disk-scheduling related work
(Dash et al., ODSA) — long, perfectly regular compute phases between
sparse, strided frame I/O.  It is the pattern the paper's
software-directed scheme is *best* at: every access statically
resolvable, deep inter-I/O idle windows that let disks spin down fully.

Per frame each process reads its two input stripe blocks, crunches them
through a long run of fixed-cost compute slots, and checkpoints one
output block.  All subscripts affine, all costs constant ⇒ polyhedral
path.

It registers like any workload (``repro run --app sweep``) but is *not*
added to the figure grids — the paper's figures stay the paper's.
"""

from __future__ import annotations

from ..ir.affine import var
from ..ir.program import Compute, FileDecl, Loop, Program, Read, Write
from .base import WorkloadInfo, register, scaled

__all__ = ["build"]

BLOCK_BYTES = 64 * 1024
FRAMES = 8
PHASE_SLOTS = 480          # compute slots between frame I/O bursts
PHASE_COST = 0.5           # seconds per slot -> 4-minute phases at scale 1


def build(n_processes: int = 32, scale: float = 1.0) -> Program:
    """Build the sweep program.

    ``scale`` shrinks the per-frame compute phase (the frame count stays
    put so the I/O structure — and the idle-period population — keeps
    its shape).
    """
    frames = scaled(FRAMES, scale, minimum=2)
    phase_slots = scaled(PHASE_SLOTS, scale, minimum=8)
    p = var("p")
    f = var("f")

    files = {
        "scan": FileDecl("scan", 2 * frames * n_processes, BLOCK_BYTES),
        "out": FileDecl("out", frames * n_processes, BLOCK_BYTES),
    }

    body = [
        Loop("f", 0, frames - 1, body=[
            # Two strided input blocks for this process's tile.
            Read("scan", (f * n_processes + p) * 2),
            Read("scan", (f * n_processes + p) * 2 + 1),
            # The raster crunch: one long certified I/O-free phase.
            Loop("k", 0, phase_slots - 1, body=[
                Compute(PHASE_COST),
            ]),
            # Frame checkpoint.
            Write("out", f * n_processes + p),
        ]),
    ]
    return Program("sweep", n_processes, files, body)


register(
    WorkloadInfo(
        name="sweep",
        description="Raster-scan sweep: strided frame reads, long "
        "constant-cost compute phases, checkpoint writes — the "
        "regular pattern the compiler scheme schedules best",
        build=build,
        affine=True,
    )
)
