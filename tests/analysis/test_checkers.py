"""Fixture tests: each invariant checker fires on a minimal bad
snippet and stays quiet on the idiomatic fix.

Every fixture goes through :func:`repro.analysis.engine.lint_sources`
— the same pipeline the CLI runs — so these tests pin the reporting
surface (code, path, line) alongside the detection logic.
"""

from __future__ import annotations

from repro.analysis.engine import lint_sources


def actives(report, code):
    return [f for f in report.active() if f.code == code]


def lint_one(relpath, text, **kwargs):
    return lint_sources([(relpath, text)], **kwargs)


# ----------------------------------------------------------------------
# RPR001 — determinism
# ----------------------------------------------------------------------
def test_rpr001_wall_clock_in_sim_fires():
    report = lint_one(
        "repro/sim/thing.py",
        "import time\n\n\ndef f():\n    return time.time()\n",
    )
    (finding,) = actives(report, "RPR001")
    assert finding.path == "repro/sim/thing.py"
    assert finding.line == 5
    assert "time.time" in finding.message


def test_rpr001_resolves_from_imports():
    report = lint_one(
        "repro/core/thing.py",
        "from time import monotonic\n\n\ndef f():\n    return monotonic()\n",
    )
    assert len(actives(report, "RPR001")) == 1


def test_rpr001_entropy_and_unseeded_random_fire():
    report = lint_one(
        "repro/protocols/thing.py",
        "import os\nimport random\n\n\ndef f():\n"
        "    token = os.urandom(8)\n"
        "    rng = random.Random()\n"
        "    return token, rng, random.randint(0, 9)\n",
    )
    found = actives(report, "RPR001")
    assert len(found) == 3
    messages = " | ".join(f.message for f in found)
    assert "os.urandom" in messages
    assert "unseeded random.Random" in messages
    assert "random.randint" in messages


def test_rpr001_seeded_random_is_fine():
    report = lint_one(
        "repro/sim/rngish.py",
        "import random\n\n\ndef f(seed):\n    return random.Random(seed)\n",
    )
    assert actives(report, "RPR001") == []


def test_rpr001_harness_tier_flags_clock_only():
    clock = "import time\n\n\ndef f():\n    return time.perf_counter()\n"
    report = lint_one("repro/harness/timing.py", clock)
    (finding,) = actives(report, "RPR001")
    assert "repro.harness.telemetry" in finding.message
    # ...but ambient entropy is only a deterministic-zone rule.
    report = lint_one(
        "repro/harness/artifacts.py",
        "import uuid\n\n\ndef f():\n    return uuid.uuid4()\n",
    )
    assert actives(report, "RPR001") == []


def test_rpr001_telemetry_module_is_the_sanctioned_boundary():
    clock = "import time\n\n\ndef wall():\n    return time.time()\n"
    assert actives(lint_one("repro/harness/telemetry.py", clock), "RPR001") == []
    # Out-of-scope layers (plots, net) never see the rule at all.
    assert actives(lint_one("repro/net/clockish.py", clock), "RPR001") == []


# ----------------------------------------------------------------------
# RPR002 — registry dispatch
# ----------------------------------------------------------------------
def test_rpr002_string_dispatch_fires_outside_protocols():
    body = 'def f(protocol):\n    if protocol == "sc":\n        return 1\n'
    report = lint_one("repro/harness/driver.py", body)
    (finding,) = actives(report, "RPR002")
    assert finding.line == 2
    assert "registry" in finding.message
    # The protocol package itself may dispatch on its own names.
    assert actives(lint_one("repro/protocols/core.py", body), "RPR002") == []


def test_rpr002_membership_and_prefix_dispatch_fire():
    report = lint_one(
        "repro/harness/driver.py",
        'def f(spec):\n'
        '    a = spec.protocol in ("sc", "bft")\n'
        '    b = spec.order_protocol.startswith("sc")\n'
        '    return a, b\n',
    )
    assert len(actives(report, "RPR002")) == 2


def test_rpr002_nonprotocol_compares_are_fine():
    report = lint_one(
        "repro/harness/driver.py",
        'def f(scheme, protocol, known):\n'
        '    if scheme == "md5-rsa1024" and protocol in known:\n'
        '        return True\n',
    )
    assert actives(report, "RPR002") == []


def test_rpr002_plugin_class_import_fires_outside_owner():
    bad = "from repro.harness.probes.paper import OrderLatencyProbe\n"
    report = lint_one("repro/harness/runnerish.py", bad)
    (finding,) = actives(report, "RPR002")
    assert "OrderLatencyProbe" in finding.message
    # Inside the owning package the import is the registration site.
    assert actives(lint_one("repro/harness/probes/facade.py", bad), "RPR002") == []
    # Lowercase (function/module) imports are not plugin classes.
    ok = "from repro.protocols.sc import quorum_size\n"
    assert actives(lint_one("repro/harness/runnerish.py", ok), "RPR002") == []


# ----------------------------------------------------------------------
# RPR003 — trace-kind consistency (whole-tree; needs the anchors)
# ----------------------------------------------------------------------
ANCHORS = [
    ("repro/sim/trace.py", "class Tracer:\n    pass\n"),
    ("repro/harness/probes/base.py", "class Probe:\n    pass\n"),
]

SCALE_PROBE = (
    "repro/harness/probes/scaleish.py",
    'class HotProbe:\n'
    '    name = "hot"\n'
    '    kinds = frozenset({"hot_kind"})\n'
    '    scale_only = True\n',
)


def test_rpr003_probe_kind_without_emitter_fires():
    report = lint_sources(ANCHORS + [(
        "repro/harness/probes/lonely.py",
        'class LonelyProbe:\n    kinds = frozenset({"no_such_kind"})\n',
    )])
    (finding,) = actives(report, "RPR003")
    assert finding.line == 1  # anchored at the class statement
    assert "no_such_kind" in finding.message


def test_rpr003_unguarded_scale_only_emit_fires():
    emitter = (
        "repro/core/emitter.py",
        'def issue(self):\n    self.trace("hot_kind", x=self.big())\n',
    )
    report = lint_sources(ANCHORS + [SCALE_PROBE, emitter])
    (finding,) = actives(report, "RPR003")
    assert finding.path == "repro/core/emitter.py"
    assert "wants" in finding.message


def test_rpr003_guarded_emit_is_fine():
    emitter = (
        "repro/core/emitter.py",
        'def issue(self):\n'
        '    if self.sim.trace.wants("hot_kind"):\n'
        '        self.trace("hot_kind", x=self.big())\n',
    )
    assert actives(lint_sources(ANCHORS + [SCALE_PROBE, emitter]), "RPR003") == []


def test_rpr003_kind_shared_with_always_on_probe_needs_no_guard():
    paper_probe = (
        "repro/harness/probes/paperish.py",
        'class AlwaysProbe:\n    kinds = frozenset({"hot_kind"})\n',
    )
    emitter = (
        "repro/core/emitter.py",
        'def issue(self):\n    self.trace("hot_kind", x=1)\n',
    )
    report = lint_sources(ANCHORS + [SCALE_PROBE, paper_probe, emitter])
    assert actives(report, "RPR003") == []


def test_rpr003_partial_runs_stay_silent():
    # Without the anchor files the cross-file checks would lie, so the
    # checker declines to run (single-file CLI invocations stay usable).
    report = lint_sources([(
        "repro/harness/probes/lonely.py",
        'class LonelyProbe:\n    kinds = frozenset({"no_such_kind"})\n',
    )])
    assert actives(report, "RPR003") == []


# ----------------------------------------------------------------------
# RPR004 — wire safety
# ----------------------------------------------------------------------
def test_rpr004_pickle_loads_outside_framing_fires():
    bad = "import pickle\n\n\ndef f(blob):\n    return pickle.loads(blob)\n"
    for relpath in ("repro/harness/journal.py", "tests/net/test_x.py"):
        (finding,) = actives(lint_one(relpath, bad), "RPR004")
        assert "framing" in finding.message
    # Out-of-tree paths (scripts/) are not patrolled.
    assert actives(lint_one("scripts/tool.py", bad), "RPR004") == []


def test_rpr004_unrolling_a_many_frame_by_hand_is_flagged():
    # The tempting way to "unroll" a coalesced frame in the transport:
    # ship the inner frames as bytes and loads() each one.
    tempting = (
        "import pickle\n\n\n"
        "class LiveTransport:\n"
        "    def _dispatch_frame(self, frame, writer=None):\n"
        "        if frame[0] == 'many':\n"
        "            for blob in frame[1]:\n"
        "                self._dispatch_one(pickle.loads(blob), writer)\n"
    )
    (finding,) = actives(lint_one("repro/live/transport.py", tempting), "RPR004")
    assert "'many'" in finding.message and "read_frame" in finding.message


def test_rpr004_framing_must_bound_before_unpickling():
    bounded = (
        "import pickle\n"
        "MAX_FRAME_BYTES = 1 << 20\n\n\n"
        "def read_frame(sock):\n"
        "    n = peek_len(sock)\n"
        "    if n > MAX_FRAME_BYTES:\n"
        "        raise ValueError(n)\n"
        "    return pickle.loads(recv_exact(sock, n))\n"
    )
    assert actives(lint_one("repro/net/framing.py", bounded), "RPR004") == []

    unbounded = (
        "import pickle\n\n\n"
        "def read_frame(sock):\n"
        "    n = peek_len(sock)\n"
        "    return pickle.loads(recv_exact(sock, n))\n"
    )
    found = actives(lint_one("repro/net/framing.py", unbounded), "RPR004")
    # Both the unpickle and the raw variable-length read are flagged.
    assert len(found) == 2


def test_rpr004_fixed_size_reads_need_no_bound():
    text = (
        "def read_header(sock):\n"
        "    return recv_exact(sock, 4)\n"
    )
    assert actives(lint_one("repro/net/framing.py", text), "RPR004") == []


# ----------------------------------------------------------------------
# RPR005 — async hygiene
# ----------------------------------------------------------------------
def test_rpr005_blocking_calls_in_async_def_fire():
    report = lint_one(
        "repro/live/replicaish.py",
        "import time\n\n\n"
        "async def run(self):\n"
        "    time.sleep(0.1)\n"
        "    payload = recv_msg(self.sock)\n"
        "    with open('x') as fh:\n"
        "        fh.read()\n",
    )
    found = actives(report, "RPR005")
    assert len(found) == 3
    messages = " | ".join(f.message for f in found)
    assert "asyncio.sleep" in messages
    assert "read_frame" in messages
    assert "to_thread" in messages


def test_rpr005_sync_defs_and_other_layers_are_fine():
    blocking = "import time\n\n\ndef run(self):\n    time.sleep(0.1)\n"
    assert actives(lint_one("repro/live/util.py", blocking), "RPR005") == []
    async_blocking = (
        "import time\n\n\nasync def run(self):\n    time.sleep(0.1)\n"
    )
    assert actives(lint_one("repro/net/util.py", async_blocking), "RPR005") == []


def test_rpr005_nested_sync_def_resets_the_context():
    report = lint_one(
        "repro/live/replicaish.py",
        "import asyncio\nimport time\n\n\n"
        "async def run(self):\n"
        "    def render():\n"
        "        time.sleep(0.0)\n"
        "        return 1\n"
        "    await asyncio.to_thread(render)\n",
    )
    assert actives(report, "RPR005") == []
