"""Unit tests for the CPU queueing model."""

import pytest

from repro.errors import SimulationError
from repro.sim.cpu import Cpu
from repro.sim.kernel import Simulator


def test_idle_cpu_completes_after_service():
    sim = Simulator()
    cpu = Cpu(sim)
    assert cpu.submit(0.010) == pytest.approx(0.010)


def test_tasks_queue_fifo():
    sim = Simulator()
    cpu = Cpu(sim)
    cpu.submit(0.010)
    assert cpu.submit(0.005) == pytest.approx(0.015)
    assert cpu.submit(0.001) == pytest.approx(0.016)


def test_queue_drains_as_clock_advances():
    sim = Simulator()
    cpu = Cpu(sim)
    cpu.submit(0.010)
    sim.schedule(1.0, lambda: None)
    sim.run()
    # CPU idle again: a new task completes `service` after now.
    assert cpu.submit(0.002) == pytest.approx(1.002)


def test_backlog_reports_queued_work():
    sim = Simulator()
    cpu = Cpu(sim)
    cpu.submit(0.020)
    assert cpu.busy_until - sim.now == pytest.approx(0.020)


def test_zero_service_is_free():
    sim = Simulator()
    cpu = Cpu(sim)
    assert cpu.submit(0.0) == 0.0


def test_negative_service_rejected():
    sim = Simulator()
    with pytest.raises(SimulationError):
        Cpu(sim).submit(-1.0)


def test_negative_gamma_rejected():
    sim = Simulator()
    with pytest.raises(SimulationError):
        Cpu(sim, overload_gamma=-0.1)


def test_overload_inflation_penalises_queued_tasks():
    sim = Simulator()
    ideal = Cpu(sim, overload_gamma=0.0)
    loaded = Cpu(sim, overload_gamma=1.0)
    for cpu in (ideal, loaded):
        cpu.submit(0.100)  # creates 100 ms of lag for the next task
    t_ideal = ideal.submit(0.010)
    t_loaded = loaded.submit(0.010)
    assert t_loaded > t_ideal
    # lag = 0.1, effective = 0.010 * (1 + 1.0*0.1) = 0.011
    assert t_loaded == pytest.approx(0.111)


def test_total_busy_accumulates():
    sim = Simulator()
    cpu = Cpu(sim)
    cpu.submit(0.010)
    cpu.submit(0.020)
    assert cpu.busy_until == pytest.approx(0.030)
