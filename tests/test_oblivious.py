"""Oblivious-proxy attribution tests (paper Section 6).

An oblivious proxy must let DCC attribute and police queries without
revealing client identities upstream.  DCC's fairness only requires
identity *consistency*, so a salted one-way token suffices.
"""

from repro.dcc.mopifq import MopiFq, MopiFqConfig
from repro.dnscore.edns import ClientAttribution, OptionCode, opaque_client_token
from repro.dnscore.rdata import RCode
from repro.server.forwarder import Forwarder, ForwarderConfig

from tests.conftest import RESOLVER_ADDR, build_topology

FWD_ADDR = "10.0.2.1"


class TestOpaqueTokens:
    def test_stable(self):
        assert opaque_client_token("10.1.0.1", "salt") == opaque_client_token("10.1.0.1", "salt")

    def test_distinct_clients_distinct_tokens(self):
        tokens = {opaque_client_token(f"10.1.0.{i}", "salt") for i in range(50)}
        assert len(tokens) == 50

    def test_salt_changes_mapping(self):
        assert opaque_client_token("10.1.0.1", "a") != opaque_client_token("10.1.0.1", "b")

    def test_not_trivially_invertible(self):
        token = opaque_client_token("10.1.0.1", "salt")
        assert "10.1.0.1" not in token
        assert token.startswith("anon-")

    def test_token_length(self):
        assert len(opaque_client_token("x", "s", length=8)) == len("anon-") + 8


class TestObliviousForwarder:
    def _forwarder(self, topo, salt):
        forwarder = Forwarder(FWD_ADDR, ForwarderConfig(
            upstreams=[RESOLVER_ADDR], oblivious_salt=salt
        ))
        topo.net.attach(forwarder)
        return forwarder

    def test_upstream_never_sees_real_client(self):
        topo = build_topology()
        forwarder = self._forwarder(topo, salt="secret")
        seen_attributions = []
        original = forwarder.raw_send_query

        def spy(query, upstream):
            option = query.find_edns(OptionCode.CLIENT_ATTRIBUTION)
            if option is not None:
                seen_attributions.append(ClientAttribution.decode(option).client)
            original(query, upstream)

        forwarder.raw_send_query = spy
        query = topo.client.query(FWD_ADDR, "priv.wc.target-domain.")
        topo.sim.run(until=3.0)
        assert topo.client.response_to(query).rcode == RCode.NOERROR
        assert seen_attributions
        assert all(a.startswith("anon-") for a in seen_attributions)
        assert all(topo.client.address not in a for a in seen_attributions)

    def test_resolution_unaffected(self):
        topo = build_topology()
        self._forwarder(topo, salt="secret")
        query = topo.client.query(FWD_ADDR, "ok.wc.target-domain.")
        topo.sim.run(until=3.0)
        assert topo.client.response_to(query).rcode == RCode.NOERROR

    def test_fairness_holds_over_tokens(self):
        """MOPI-FQ never needed real identities: scheduling over opaque
        tokens yields the same per-client fairness."""
        fq = MopiFq(MopiFqConfig(max_poq_depth=100))
        fq.set_channel_capacity("d", 1e6)
        clients = [f"10.1.0.{i}" for i in range(3)]
        tokens = [opaque_client_token(c, "salt") for c in clients]
        for round_no in range(5):
            for token in tokens:
                fq.enqueue(token, "d", None, round_no * 0.001)
        order = []
        while True:
            item = fq.dequeue(1.0)
            if item is None:
                break
            order.append(item.source)
        # Strict round-robin across the three anonymous sources.
        for i in range(0, 15, 3):
            assert set(order[i:i + 3]) == set(tokens)
