"""The live population load path: virtual-client reply routing and the
seeded-stream identity between the simulator and ``repro load
--population`` (unit level here; ``test_population_e2e.py`` drives a
real loopback cluster)."""

import json

import pytest

from repro.core.replies import Reply
from repro.core.requests import ClientRequest
from repro.errors import ConfigError
from repro.live.client import LoadClient, load_population
from repro.live.transport import LiveTransport


class FakeWriter:
    def __init__(self):
        self.closed = False

    def is_closing(self):
        return self.closed

    def close(self):
        self.closed = True


class Recorder:
    def __init__(self, name):
        self.name = name
        self.seen = []

    def on_message(self, sender, payload):
        self.seen.append((sender, payload))


def _reply(client, req_id=1):
    return Reply(replier="p1", client=client, req_id=req_id, seq=req_id,
                 result_digest=b"\xaa" * 16)


# ----------------------------------------------------------------------
# catch_all: replies to unhosted virtual ids reach the driver
# ----------------------------------------------------------------------
def test_unhosted_dest_falls_through_to_catch_all():
    transport = LiveTransport("driver")
    sink = Recorder("driver")
    transport.attach(sink)
    transport.host("driver")
    transport.catch_all = sink
    transport._dispatch_frame(("msg", "p1", "c42", _reply("c42")))
    assert sink.seen == [("p1", _reply("c42"))]


def test_unhosted_dest_without_catch_all_is_dropped():
    transport = LiveTransport("driver")
    sink = Recorder("driver")
    transport.attach(sink)
    transport.host("driver")
    transport._dispatch_frame(("msg", "p1", "c42", _reply("c42")))
    assert sink.seen == []


# ----------------------------------------------------------------------
# Replica side: virtual client ids become routes on the connection
# the request arrived on, and die with it
# ----------------------------------------------------------------------
def test_replica_learns_alias_route_from_client_request():
    transport = LiveTransport("p1")
    replica = Recorder("p1")
    transport.attach(replica)
    transport.host("p1")
    writer = FakeWriter()
    request = ClientRequest(client="c42", req_id=1)
    transport._dispatch_frame(("msg", "driver", "p1", request), writer)
    assert replica.seen == [("driver", request)]
    assert transport._routes["c42"] is writer
    # The hello name itself never becomes an alias of itself, and a
    # second request from the same id keeps the original route.
    transport._dispatch_frame(
        ("msg", "driver", "p1", ClientRequest(client="c42", req_id=2)),
        FakeWriter(),
    )
    assert transport._routes["c42"] is writer


def test_alias_route_does_not_shadow_known_addresses():
    transport = LiveTransport(
        "p1", addresses={"p2": ("127.0.0.1", 1)}
    )
    replica = Recorder("p1")
    transport.attach(replica)
    transport.host("p1")
    writer = FakeWriter()
    transport._dispatch_frame(
        ("msg", "p2", "p1", ClientRequest(client="p2", req_id=1)), writer
    )
    assert "p2" not in transport._routes


# ----------------------------------------------------------------------
# LoadClient: f+1 matching replies per (client, req_id), whatever
# virtual id the request carried
# ----------------------------------------------------------------------
def test_population_client_tracks_per_virtual_id():
    client = LoadClient("driver", f=1)
    client.issue_times[1] = 0.0   # issued as c7
    client.issue_times[2] = 0.0   # issued as c9
    for replier in ("p1", "p2"):
        reply = Reply(replier=replier, client="c7", req_id=1, seq=1,
                      result_digest=b"\xbb" * 16)
        client.on_message(replier, reply)
    assert len(client.latencies) == 1        # c7 committed (f+1 = 2)
    assert 1 not in client.issue_times       # matched state deleted
    assert 2 in client.issue_times           # still pending
    # A late third reply, or one for a request never issued, is ignored.
    client.on_message("p3", Reply(replier="p3", client="c7", req_id=1, seq=1,
                                  result_digest=b"\xbb" * 16))
    client.on_message("p1", _reply("c5", req_id=99))
    assert len(client.latencies) == 1


# ----------------------------------------------------------------------
# Population file loading
# ----------------------------------------------------------------------
def test_load_population_bare_block_and_scenario_spec(tmp_path):
    block = {"clients": 500, "id_distribution": "zipf", "zipf_s": 1.2}
    bare = tmp_path / "pop.json"
    bare.write_text(json.dumps(block))
    assert load_population(bare).clients == 500

    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({"name": "x", "population": block}))
    assert load_population(spec).zipf_s == 1.2

    toml = tmp_path / "pop.toml"
    toml.write_text('clients = 77\n[[classes]]\nname = "a"\n')
    assert load_population(toml).clients == 77


def test_load_population_rejects_missing_and_unknown(tmp_path):
    with pytest.raises(ConfigError, match="not found"):
        load_population(tmp_path / "absent.json")
    other = tmp_path / "pop.yaml"
    other.write_text("clients: 5")
    with pytest.raises(ConfigError, match="file type"):
        load_population(other)
    bad = tmp_path / "bad.json"
    bad.write_text('{"clients": 5, "clinets": 6}')
    with pytest.raises(ConfigError, match="unknown key"):
        load_population(bad)
