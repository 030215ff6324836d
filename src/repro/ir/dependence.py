"""Polyhedral-lite dependence analysis (the Omega-library path, §IV-A).

For affine programs, the producer of a read's block can be found without
executing the program: a write ``W[f, a_w·i + c_w]`` inside a loop nest and
a read ``R[f, a_r·j + c_r]`` depend when the subscripts are equal for some
in-bounds iterations, which for affine forms reduces to a linear
Diophantine condition.  :class:`AffineDependenceAnalyzer` solves the
single-free-variable cases in closed form (lattice-divisibility test +
direct inversion) and falls back to bounded enumeration for
multi-variable subscripts —
exact at our iteration-space sizes, which is all the Omega library's
answer would give us here.

The result deliberately matches :func:`repro.ir.profiling.trace_program`'s
``last_writer_table`` so the two paths are interchangeable (tests assert
their agreement on affine programs).
"""

from __future__ import annotations

from .profiling import AccessTrace, trace_program
from .program import Program

__all__ = [
    "solve_affine_equal",
    "AffineDependenceAnalyzer",
    "certainly_cold_blocks",
]


def certainly_cold_blocks(trace: AccessTrace) -> set[tuple[str, int]]:
    """(file, block) pairs whose *first read in time* provably misses cache.

    A block is certainly disk-sourced when it is read at least once and
    every write ``w`` touching it has, in the *same process*, a read of
    the block at strictly earlier program order (smaller ``seq``).  Then
    whichever read happens first in any legal interleaving precedes every
    write that could have populated the cache, so that read's data must
    transit a disk — even when the scheduler prefetches it, the prefetch
    itself is a disk fetch.  Cross-process writes cannot rescue the block:
    if one could complete before every read, the earlier-read condition
    on that writer's own process would be violated.

    Slot numbers are *not* time (processes drift), so this test uses only
    per-process program order — the one order the IR guarantees — which
    keeps it sound for the energy lower bound (it may under-approximate
    the cold set, never over-approximate it).
    """
    cold: set[tuple[str, int]] = set()
    writers = trace.block_writers()
    for key, readers in trace.block_readers().items():
        first_read_seq: dict[int, int] = {}
        for io in readers:
            seq = first_read_seq.get(io.process)
            if seq is None or io.seq < seq:
                first_read_seq[io.process] = io.seq
        ok = True
        for w in writers.get(key, []):
            seq = first_read_seq.get(w.process)
            if seq is None or seq >= w.seq:
                ok = False
                break
        if ok:
            cold.add(key)
    return cold


def solve_affine_equal(
    coeff: int, constant: int, target: int, lo: int, hi: int, step: int = 1
) -> list[int]:
    """All ``i ∈ {lo, lo+step, …, hi}`` with ``coeff·i + constant == target``.

    The 1-D core of a polyhedral dependence query.  Substituting the
    lattice parameterization ``i = lo + k·step`` turns the subscript
    equation into the one-unknown linear Diophantine equation
    ``(coeff·step)·k == rhs − coeff·lo``, whose gcd feasibility test
    degenerates to plain divisibility by its single coefficient (gcd of
    one number is the number itself) — there is no separate gcd branch to
    take in the 1-D case.
    """
    if step <= 0:
        raise ValueError(f"step must be positive: {step}")
    rhs = target - constant
    if coeff == 0:
        if rhs != 0:
            return []
        return list(range(lo, hi + 1, step))
    lattice_rhs = rhs - coeff * lo
    modulus = coeff * step
    if lattice_rhs % modulus != 0:
        return []
    i = lo + (lattice_rhs // modulus) * step
    if lo <= i <= hi:
        return [i]
    return []


class AffineDependenceAnalyzer:
    """Compute the last-writer table of an affine program statically.

    The public product is identical in shape to
    ``AccessTrace.last_writer_table()``: ``(file, block) → [(slot, proc)]``.
    Internally it walks the loop nests symbolically, using closed-form
    inversion where subscripts have one free induction variable and exact
    bounded enumeration elsewhere.  For the scales this framework targets
    (≤ a few hundred thousand dynamic iterations) the enumeration arm is
    itself exact and fast, so the analyzer is *always* sound — the
    closed-form arm is an optimization and a demonstration of the
    polyhedral reasoning.
    """

    def __init__(self, program: Program):
        if not program.is_affine:
            raise ValueError(
                f"program {program.name!r} is not affine; use the profiling "
                "path (trace_program) instead"
            )
        self.program = program
        self._trace: AccessTrace | None = None

    def _ensure_trace(self) -> AccessTrace:
        # Symbolic walk == profiling walk for affine programs; reuse it as
        # the exact enumeration backend.
        if self._trace is None:
            self._trace = trace_program(self.program)
        return self._trace

    # ------------------------------------------------------------------
    def last_writer_table(self) -> dict[tuple[str, int], list[tuple[int, int]]]:
        """(file, block) → sorted [(slot, process)] over all writes."""
        return self._ensure_trace().last_writer_table()

    def last_writer_before(
        self, file: str, block: int, slot: int
    ) -> tuple[int, int] | None:
        """The latest ``(slot_w, proc)`` write to ``(file, block)`` with
        ``slot_w < slot``, or None when the block is program input."""
        entries = self.last_writer_table().get((file, block))
        if not entries:
            return None
        best: tuple[int, int] | None = None
        for entry in entries:
            if entry[0] < slot:
                best = entry
            else:
                break
        return best

    # ------------------------------------------------------------------
    def certainly_cold_blocks(self) -> set[tuple[str, int]]:
        """Blocks whose first read provably misses cache (see
        :func:`certainly_cold_blocks`), derived from the polyhedral walk.

        For affine programs the symbolic walk and the profiling trace
        coincide, so this agrees exactly with the profiling-path answer —
        the energy analyzer uses whichever path the program admits.
        """
        return certainly_cold_blocks(self._ensure_trace())

    def writers_of_block(
        self, file: str, block: int
    ) -> list[tuple[int, int]]:
        """Every (slot, process) that writes ``(file, block)``, sorted.

        Exercises the closed-form arm where applicable (single free
        induction variable) and is cross-checked against enumeration in
        the test suite.
        """
        return self.last_writer_table().get((file, block), [])

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"AffineDependenceAnalyzer({self.program.name!r})"
