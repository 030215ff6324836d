"""Session driver: wires clients, scheduler threads, storage and network
into one simulator and runs a program trace to completion.

This is the top-level simulation entry point the experiment harness uses.
A :class:`Session` owns everything needed for one run: the simulator, the
storage stack (with one power policy instance per drive), the network, the
per-process clients, and — when the compiler scheme is on — the global
buffer plus one scheduler thread per client.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

from ..core.compiler import CompileResult
from ..core.table import ScheduleBook
from ..disk.specs import DiskSpec
from ..faults.injector import FaultInjector
from ..faults.plan import FaultPlan
from ..ir.profiling import AccessTrace
from ..net.network import Network
from ..obs.base import NULL_OBS, Observability
from ..power.policy import PowerPolicy
from ..sim.engine import Simulator
from ..storage.filesystem import ParallelFileSystem
from .buffer import GlobalBuffer
from .client import ClientProcess
from .clock import LocalClocks
from .mpi_io import MPIIO
from .reorder import StragglerAwareReorderer
from .scheduler_thread import SchedulerThread

__all__ = ["SessionConfig", "SessionResult", "Session"]


@dataclass(frozen=True)
class SessionConfig:
    """Shape of the simulated platform (Table II defaults)."""

    n_ionodes: int = 8
    stripe_size: int = 64 * 1024
    cache_bytes: int = 64 * 1024 * 1024
    disks_per_node: int = 1
    raid_level: int = 0
    prefetch_depth: int = 2
    destage_delay: float = 0.5
    network_latency: float = 0.0001
    network_bandwidth_bps: float = 1e9
    buffer_capacity_blocks: int = 512
    scheduler_min_lead: int = 2
    scheduler_batch_slots: int = 8
    #: Straggler-aware client-side reordering of each scheduler issue
    #: window (see :mod:`repro.runtime.reorder`).  Only meaningful with
    #: the scheme on — without scheduler threads there is nothing to
    #: reorder.
    reorder: bool = False


@dataclass
class SessionResult:
    """Outcome of one run."""

    execution_time: float
    drives: list
    pfs: ParallelFileSystem
    network: Network
    mpi_io: MPIIO
    clients: list[ClientProcess]
    scheduler_threads: list[SchedulerThread]
    buffer: Optional[GlobalBuffer]
    sim: Optional[Simulator] = None
    #: The run's fault injector (``None`` on fault-free runs); carries
    #: the fault counters ``repro.obs`` exports as ``faults.*``.
    faults: Optional[FaultInjector] = None

    @property
    def client_finish_times(self) -> list[float]:
        return [c.stats.finish_time for c in self.clients]


class Session:
    """One complete simulation run of a traced program."""

    def __init__(
        self,
        trace: AccessTrace,
        disk_spec: DiskSpec,
        policy_factory: Optional[Callable[[], PowerPolicy]],
        config: SessionConfig = SessionConfig(),
        compile_result: Optional[CompileResult] = None,
        obs: Optional[Observability] = None,
        faults: Optional[FaultPlan] = None,
    ):
        """``compile_result`` turns the software scheme on: its schedule
        book drives one scheduler thread per client.  ``obs`` attaches an
        observability context (tracer and/or metrics registry); the
        default is the shared null context — zero instrumentation cost.
        ``faults`` injects the given fault plan; an empty (or absent)
        plan builds no injector at all, so the run is structurally
        bit-identical to a fault-free one.
        """
        self.trace = trace
        self.config = config
        self.obs = obs if obs is not None else NULL_OBS
        self.fault_plan = faults
        self.faults: Optional[FaultInjector] = None
        if faults is not None and faults.events:
            self.faults = FaultInjector(faults)
        self.sim = Simulator(obs=self.obs)
        self.obs.tracer.bind_clock(self.sim)
        self.pfs = ParallelFileSystem.build(
            self.sim,
            n_nodes=config.n_ionodes,
            stripe_size=config.stripe_size,
            disk_spec=disk_spec,
            cache_bytes=config.cache_bytes,
            policy_factory=policy_factory,
            disks_per_node=config.disks_per_node,
            raid_level=config.raid_level,
            prefetch_depth=config.prefetch_depth,
            destage_delay=config.destage_delay,
            faults=self.faults,
        )
        # Register program files on the striped FS.
        for decl in trace.program.files.values():
            self.pfs.create_file(decl.name, decl.size_bytes)
        self.network = Network(
            self.sim,
            config.n_ionodes,
            latency=config.network_latency,
            bandwidth_bps=config.network_bandwidth_bps,
            faults=self.faults,
        )
        if self.obs.metrics is not None:
            # Per-link queue-delay histograms are the one metric that must
            # be sampled per transfer; wire them only when a registry is
            # attached so the untracked hot path stays a None check.
            from ..obs.collect import LINK_DELAY_BOUNDS_S

            for i, link in enumerate(self.network.links):
                link.delay_hist = self.obs.metrics.histogram(
                    f"net.link{i}.queue_delay_s", LINK_DELAY_BOUNDS_S
                )
        block_bytes = {
            name: decl.block_bytes for name, decl in trace.program.files.items()
        }
        self.mpi_io = MPIIO(self.sim, self.pfs, self.network, block_bytes)
        self.clocks = LocalClocks(self.sim, trace.program.n_processes)
        self.compile_result = compile_result
        self.buffer: Optional[GlobalBuffer] = None
        self.scheduler_threads: list[SchedulerThread] = []
        self.clients: list[ClientProcess] = []
        # One shared straggler map across every scheduler thread: the
        # simulator is single-threaded, so sharing stays deterministic.
        self.reorderer: Optional[StragglerAwareReorderer] = None
        if config.reorder and compile_result is not None:
            self.reorderer = StragglerAwareReorderer(config.n_ionodes)
        self._build_actors()

    # ------------------------------------------------------------------
    def _build_actors(self) -> None:
        book: Optional[ScheduleBook] = None
        accesses_by_proc_seq: dict[int, dict[int, object]] = {}
        if self.compile_result is not None:
            book = self.compile_result.book
            self.buffer = GlobalBuffer(
                self.sim, self.config.buffer_capacity_blocks
            )
            # Map (process, trace seq) -> DataAccess for client lookups.
            # determine_slacks emits accesses in (process, seq-of-read)
            # order; recover seq from the trace read order per process.
            per_proc_reads: dict[int, list] = {}
            for proc_trace in self.trace.processes:
                per_proc_reads[proc_trace.process] = [
                    io for io in proc_trace.ios if not io.is_write
                ]
            cursor = {p: 0 for p in per_proc_reads}
            for access in self.compile_result.accesses:
                reads = per_proc_reads[access.process]
                io = reads[cursor[access.process]]
                cursor[access.process] += 1
                accesses_by_proc_seq.setdefault(access.process, {})[io.seq] = access

        for proc_trace in self.trace.processes:
            pid = proc_trace.process
            client = ClientProcess(
                self.sim,
                pid,
                proc_trace,
                self.mpi_io,
                self.clocks,
                buffer=self.buffer,
                accesses_by_seq=accesses_by_proc_seq.get(pid, {}),
            )
            self.clients.append(client)
            self.sim.process(client.run(), name=f"client{pid}")
            if book is not None:
                thread = SchedulerThread(
                    self.sim,
                    pid,
                    book.table_for(pid),
                    self.mpi_io,
                    self.clocks,
                    self.buffer,
                    min_lead=self.config.scheduler_min_lead,
                    batch_slots=self.config.scheduler_batch_slots,
                    fetch_timeout=(
                        self.faults.fetch_timeout
                        if self.faults is not None
                        else None
                    ),
                    fetch_retries=(
                        self.faults.fetch_retries
                        if self.faults is not None
                        else 0
                    ),
                    fault_counters=(
                        self.faults.counters
                        if self.faults is not None
                        else None
                    ),
                    reorder=self.reorderer,
                )
                self.scheduler_threads.append(thread)
                self.sim.process(thread.run(), name=f"sched{pid}")

    # ------------------------------------------------------------------
    def run(self, max_events: int = 50_000_000) -> SessionResult:
        """Run to quiescence and return the measured result.

        Execution time is the latest client completion; drive timelines
        are finalized at full drain (metrics clip to the execution window
        as needed).
        """
        self.sim.run(max_events=max_events)
        finish_times = [c.stats.finish_time for c in self.clients]
        if any(t < 0 for t in finish_times):
            raise RuntimeError(
                "simulation drained before all clients finished — "
                "likely a lost completion signal or an event-budget hit"
            )
        execution_time = max(finish_times)
        self.pfs.finalize(self.sim.now)
        return SessionResult(
            execution_time=execution_time,
            drives=self.pfs.all_drives(),
            pfs=self.pfs,
            network=self.network,
            mpi_io=self.mpi_io,
            clients=self.clients,
            scheduler_threads=self.scheduler_threads,
            buffer=self.buffer,
            sim=self.sim,
            faults=self.faults,
        )
