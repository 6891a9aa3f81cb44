package netem

import (
	"testing"

	"bullet/internal/sim"
	"bullet/internal/topology"
)

// checkDrained asserts the run-end invariants of a run whose traffic
// has drained: every in-flight record is back in an arena, every engine
// queue is empty, and no handoff is parked. In-flight records are
// summed over shards because a handed-off packet retires into the arena
// of the shard that delivered it, so one shard's Live can go negative
// while another's stays positive.
func checkDrained(t *testing.T, net *Network) {
	t.Helper()
	live := 0
	for i := range net.ctxs {
		live += net.ctxs[i].pool.Live()
	}
	if live != 0 {
		t.Errorf("%d in-flight records not retired after the run drained", live)
	}
	if p := net.eng.Pending(); p != 0 {
		t.Errorf("global engine: %d events pending", p)
	}
	for i, e := range net.engines {
		if p := e.Pending(); p != 0 {
			t.Errorf("shard %d engine: %d events pending", i, p)
		}
	}
	if net.pendingHandoffs() {
		t.Error("cross-shard handoffs still parked")
	}
}

func TestRunEndDrained(t *testing.T) {
	for _, shards := range []int{1, 2} {
		_, net := driveTraffic(t, shards, nil)
		if net.Stats().DeliveredPackets == 0 {
			t.Fatalf("shards=%d: nothing delivered", shards)
		}
		checkDrained(t, net)
	}
}

// TestRunEndDrainedUnderChurnAndFailures adds node churn (a client's
// handler unregistered and re-registered, so packets arriving in
// between are discarded) and link failures (an access link failed and
// restored, a client partitioned and healed) to runTraffic's mesh.
// Packets dropped to each cause must still retire their records.
func TestRunEndDrainedUnderChurnAndFailures(t *testing.T) {
	dyn := func(eng *sim.Engine, net *Network, g *topology.Graph, dl *deliveryLog) {
		c := g.Clients
		eng.At(150*sim.Millisecond, func() { net.Unregister(c[2]) })
		eng.At(450*sim.Millisecond, func() { dl.attach(net, c[2]) })
		eng.At(200*sim.Millisecond, func() { g.FailLink(g.AccessLink(c[3])) })
		eng.At(600*sim.Millisecond, func() { g.RestoreLink(g.AccessLink(c[3])) })
		eng.At(300*sim.Millisecond, func() { g.Partition([]int{c[4]}) })
		eng.At(700*sim.Millisecond, func() { g.Heal() })
	}
	var serial string
	for _, shards := range []int{1, 2} {
		dl, net := driveTraffic(t, shards, dyn)
		st := net.Stats()
		if st.LinkDownDrops == 0 || st.ReroutedPackets == 0 {
			t.Fatalf("shards=%d: failures dropped %d and rerouted %d packets, want both > 0",
				shards, st.LinkDownDrops, st.ReroutedPackets)
		}
		checkDrained(t, net)
		if log := dl.flatten(); shards == 1 {
			serial = log
		} else if log != serial {
			t.Errorf("shards=%d: delivery transcript differs from serial", shards)
		}
	}
}
