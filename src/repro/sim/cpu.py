"""Serial CPU model with service-time accounting.

Each simulated node owns one :class:`Cpu`.  Work (unmarshalling a
message, verifying a signature, signing, marshalling) is *submitted* as a
service time; the CPU executes submissions in order, so a burst of
arrivals queues up exactly like a single-threaded Java server of the
paper's era.  This queueing is what produces the saturation knees of
Figures 4 and 5.

Run queue
---------
The FIFO is literal: :attr:`Cpu.run_queue` holds the deliveries whose
service starts behind a busy CPU (``repro.net.network`` appends them),
as plain fields, five per completion, back to back in one ``deque``:
``time, seq, actor, sender, payload``.  A queued completion is just its
arguments, with no list, bound method or tuple of its own for the
garbage collector to walk.  Only the queue's head waits on the
simulator's heap, as ``[time, seq, release, ()]``; :meth:`Cpu._release`
pops the head's fields, pushes the successor and calls
``actor.on_message(sender, payload)``, looked up at that moment.
Every completion keeps the ``(time, seq)`` key it got on arrival, and
the queue's times strictly increase, so each head is on the heap before
its slot is reached and events fire exactly as if every completion had
been pushed at once, while the heap stays as deep as what can fire next
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
        #: Queued completions as flat fields, five each: ``time, seq,
        #: actor, sender, payload``.  The head's ``time, seq`` are on
        #: the heap as ``[time, seq, release, ()]``.
        self.run_queue: deque[Any] = deque()
        #: ``_release`` bound once: it is the callback of every head.
        self.release = self._release

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
        return completion

    def _release(self) -> None:
        """Fire the run queue's head and put its successor on the heap."""
        queue = self.run_queue
        pop = queue.popleft
        pop()
        pop()
        actor = pop()
        sender = pop()
        payload = pop()
        if queue:
            heappush(self.sim._queue._heap, [queue[0], queue[1], self.release, ()])
        actor.on_message(sender, payload)
