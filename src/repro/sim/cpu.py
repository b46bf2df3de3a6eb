"""Serial CPU model with service-time accounting.

Each simulated node owns one :class:`Cpu`.  Work (unmarshalling a
message, verifying a signature, signing, marshalling) is *submitted* as a
service time; the CPU executes submissions in order, so a burst of
arrivals queues up exactly like a single-threaded Java server of the
paper's era.  This queueing is what produces the saturation knees of
Figures 4 and 5.

Run queue
---------
The FIFO is literal: :attr:`Cpu.run_queue` holds the heap entries of
deliveries whose service starts behind a busy CPU (``repro.net.network``
appends them).  Only the queue's head waits on the simulator's heap
(:meth:`Cpu.push_head`), with :meth:`Cpu._release` in its callback slot;
``_release`` fires the head's handler and pushes the successor.
Every entry keeps the ``(time, seq)`` key it got on arrival, and the
queue's times strictly increase, so each head is on the heap before its
slot is reached and events fire exactly as if every completion had been
pushed at once, while the heap stays as deep as what can fire next
rather than as the backlog.

Overload inflation
------------------
Real runtimes degrade under overload (garbage collection, context
switches, socket buffer churn).  The paper's measured throughput *drops*
past saturation rather than plateauing, so the model supports a mild
load-dependent inflation: a task that starts ``lag`` seconds after it was
submitted costs ``service * (1 + overload_gamma * lag)``.  With the
default ``overload_gamma = 0`` the CPU is an ideal FIFO server; the
calibration profile sets a small positive value and documents why.
"""

from __future__ import annotations

from collections import deque
from heapq import heappush
from typing import Any

from repro.errors import SimulationError
from repro.sim.kernel import Simulator


class Cpu:
    """A single serial processor attached to a simulator clock.

    >>> sim = Simulator()
    >>> cpu = Cpu(sim)
    >>> cpu.submit(0.010)
    0.01
    >>> cpu.submit(0.005)   # queues behind the first task
    0.015
    """

    def __init__(
        self,
        sim: Simulator,
        name: str = "cpu",
        overload_gamma: float = 0.0,
    ) -> None:
        if overload_gamma < 0:
            raise SimulationError("overload_gamma must be >= 0")
        self.sim = sim
        self.name = name
        self.overload_gamma = overload_gamma
        self.busy_until = 0.0
        self.total_busy = 0.0
        self.tasks_run = 0
        #: Queued completions ``[time, seq, on_message, (sender,
        #: payload)]``.  The head, ``run_queue[0]``, is on the heap as
        #: ``[time, seq, release, (sender, payload), on_message]``.
        self.run_queue: deque[list[Any]] = deque()
        #: ``_release`` bound once: it is the callback of every head.
        self.release = self._release

    @property
    def backlog(self) -> float:
        """Seconds of queued work ahead of a task submitted right now."""
        return max(0.0, self.busy_until - self.sim.now)

    def submit(self, service: float) -> float:
        """Queue ``service`` seconds of work; return its completion time.

        The task starts when all previously submitted work finishes (or
        immediately if the CPU is idle) and runs for the — possibly
        inflated — service time.
        """
        if service < 0:
            raise SimulationError(f"negative service time {service}")
        start = max(self.sim.now, self.busy_until)
        lag = start - self.sim.now
        effective = service * (1.0 + self.overload_gamma * lag)
        completion = start + effective
        self.busy_until = completion
        self.total_busy += effective
        self.tasks_run += 1
        return completion

    def push_head(self) -> None:
        """Put ``run_queue[0]`` on the heap as the queue's head: its
        handler moves to a fifth slot and ``release`` takes its place."""
        head = self.run_queue[0]
        head.append(head[2])
        head[2] = self.release
        heappush(self.sim._queue._heap, head)

    def _release(self, sender: str, payload: Any) -> None:
        """Fire the run queue's head and put its successor on the heap."""
        queue = self.run_queue
        handler = queue.popleft()[4]
        if queue:
            self.push_head()
        handler(sender, payload)
