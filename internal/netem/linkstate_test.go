package netem

import (
	"testing"
	"unsafe"

	"bullet/internal/scenario"
	"bullet/internal/sim"
	"bullet/internal/topology"
)

// TestLinkCopiesFollowMutators drives every Graph mutator from a
// scenario action mid-run and checks that the emulator's per-direction
// copies of link state follow it. The topology is lineTopo at
// 8,000 Kbps (a 1,000-byte packet serializes in 1 ms per hop); the
// action mutates the t1-s1 link (or cuts c1 off) at 12 ms, and c0 sends
// a probe from its own scheduler at 13 ms. With 2 shards the probe is
// sent and forwarded by shard goroutines, so only the runner's
// re-copy after the global phase can make it see the change. Each
// mutator must advance the link-state version, the probe must arrive
// (or drop) as the new state dictates, and after the run every copy
// must equal its link. A serial run refreshes its copies lazily, at the
// first hop after the version moves, and a probe to c1 that the
// mutation made unroutable never hops; so a second probe, to router t0,
// is forwarded after every mutation.
func TestLinkCopiesFollowMutators(t *testing.T) {
	const mid = 3 // t1-s1
	cases := []struct {
		name   string
		before func(g *topology.Graph, c1 int) // state to start from
		act    func(c1 int) scenario.Action
		at     sim.Time // probe delivery time; 0: never delivered
		lost   uint64   // random-loss drops expected
	}{
		// Unmutated, the probe leaves c0 at 13 ms and reaches c1 at
		// 13 + 5×1 (serialization) + 7+5+2+3+1 (propagation) = 36 ms.
		{name: "SetBandwidth", act: func(int) scenario.Action { return scenario.SetBandwidth(mid, 800) },
			at: 45 * sim.Millisecond}, // 10 ms on t1-s1
		{name: "ScaleBandwidth", act: func(int) scenario.Action { return scenario.ScaleBandwidth(mid, 0.5) },
			at: 37 * sim.Millisecond}, // 2 ms on t1-s1
		{name: "SetLatency", act: func(int) scenario.Action { return scenario.SetLatency(mid, 10*sim.Millisecond) },
			at: 43 * sim.Millisecond},
		{name: "SetLoss", act: func(int) scenario.Action { return scenario.SetLoss(mid, 1) },
			lost: 1},
		{name: "FailLink", act: func(int) scenario.Action { return scenario.FailLink(mid) }},
		{name: "RestoreLink", before: func(g *topology.Graph, _ int) { g.FailLink(mid) },
			act: func(int) scenario.Action { return scenario.RestoreLink(mid) }, at: 36 * sim.Millisecond},
		{name: "Partition", act: func(c1 int) scenario.Action { return scenario.Partition(c1) }},
		{name: "Heal", before: func(g *topology.Graph, c1 int) { g.Partition([]int{c1}) },
			act: func(int) scenario.Action { return scenario.Heal() }, at: 36 * sim.Millisecond},
	}
	for _, tc := range cases {
		for _, shards := range []int{1, 2} {
			g, c0, c1, t0 := lineTopo(t, 8000)
			if tc.before != nil {
				tc.before(g, c1)
			}
			eng := sim.NewEngine(3)
			net := New(eng, g, topology.NewRouter(g), Config{})
			if shards > 1 {
				if got := net.EnableShards(shards); got != shards {
					t.Fatalf("EnableShards(%d) = %d", shards, got)
				}
				if net.ShardOf(c0) == net.ShardOf(c1) {
					t.Fatal("c0 and c1 landed on the same shard")
				}
			}
			var deliveredAt sim.Time
			net.Register(c1, func(Packet) { deliveredAt = net.SchedulerFor(c1).Now() })
			act := tc.act(c1)
			bumped := false
			scenario.New().At(12*sim.Millisecond, scenario.Func(func(env *scenario.Env) {
				v := env.G.Version()
				act(env)
				bumped = env.G.Version() > v
			})).Install(&scenario.Env{Eng: eng, G: g})
			net.SchedulerFor(c0).Schedule(13*sim.Millisecond, func() {
				net.Send(Packet{Kind: Data, Seq: 1, Size: 1000, From: c0, To: c1})
				net.Send(Packet{Kind: Data, Seq: 2, Size: 1000, From: c0, To: t0})
			})
			net.Run(sim.Second)

			if !bumped {
				t.Errorf("%s/shards=%d: mutator did not advance the link-state version", tc.name, shards)
			}
			if deliveredAt != tc.at {
				t.Errorf("%s/shards=%d: probe delivered at %v, want %v (0: dropped)", tc.name, shards, deliveredAt, tc.at)
			}
			st := net.Stats()
			if st.RandomLossDrops != tc.lost || st.CongestionDrops != 0 || st.LinkDownDrops != 0 {
				t.Errorf("%s/shards=%d: drops loss/congestion/down %d/%d/%d, want %d/0/0",
					tc.name, shards, st.RandomLossDrops, st.CongestionDrops, st.LinkDownDrops, tc.lost)
			}
			checkLinkCopies(t, net)
		}
	}
}

// checkLinkCopies asserts that every direction's copy of link state
// equals the graph's link.
func checkLinkCopies(t *testing.T, net *Network) {
	t.Helper()
	if net.linkVer != net.g.Version() {
		t.Errorf("copies at link-state version %d, graph at %d", net.linkVer, net.g.Version())
	}
	for i := range net.g.Links {
		l := &net.g.Links[i]
		for dir, to := range []int{l.B, l.A} {
			d := &net.dirs[2*i+dir]
			if d.rate != l.Bytes || d.delay != l.Delay || d.loss != l.Loss || d.down != l.Down || int(d.to) != to {
				t.Errorf("link %d dir %d: copy {rate %v delay %v loss %v down %v to %d}, link {%v %v %v %v %d}",
					i, dir, d.rate, d.delay, d.loss, d.down, d.to, l.Bytes, l.Delay, l.Loss, l.Down, to)
			}
		}
	}
}

// TestForwardingLayout pins the memory layout the hop relies on: a
// direction record fits in 64 bytes, the hop event is the inflight's
// first field (hopEvent converts one pointer into the other), and the
// fields every hop reads share the first 64 bytes with it.
func TestForwardingLayout(t *testing.T) {
	if sz := unsafe.Sizeof(dirState{}); sz > 64 {
		t.Errorf("dirState is %d bytes, want <= 64", sz)
	}
	var f inflight
	if off := unsafe.Offsetof(f.ev); off != 0 {
		t.Errorf("inflight.ev at offset %d, want 0", off)
	}
	if end := unsafe.Offsetof(f.epoch) + unsafe.Sizeof(f.epoch); end > 64 {
		t.Errorf("hop-hot inflight fields end at byte %d, want <= 64", end)
	}
}
