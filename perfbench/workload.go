package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"runtime"
	"time"

	"bullet"
)

// spec is one benchmark workload: the worlds it builds, the protocol it
// deploys, and the virtual-time schedule it runs. Every input is
// generated from the seed handed to build.
type spec struct {
	Name     string
	Nodes    int // physical topology size
	Clients  int // overlay participants
	Shards   int // 0 = serial
	Protocol string
	Degree   int // random-tree fan-out bound

	Start  bullet.Time     // the source starts streaming
	Stream bullet.Duration // and streams for this long
	Until  bullet.Time     // the run ends here
	Step   bullet.Duration // World.Run advances in steps of this length

	// Churn crashes every ChurnEvery'th non-root participant (in
	// ascending id order), one every ChurnGap from ChurnAt, and
	// restarts each DownFor later. ChurnEvery 0 keeps the network static.
	ChurnEvery int
	ChurnAt    bullet.Time
	ChurnGap   bullet.Duration
	DownFor    bullet.Duration
}

const (
	protoBullet   = "bullet"
	protoStreamer = "streamer"
	rateKbps      = 600
)

// workloads are the benchmark's workloads, in the order BENCHMARK.json
// lists them; README.md gives the reason for each.
var workloads = []spec{
	{
		Name:  "mesh-medium",
		Nodes: 5000, Clients: 150, Protocol: protoBullet, Degree: 6,
		Start: 10 * bullet.Second, Stream: 40 * bullet.Second, Until: 50 * bullet.Second,
		Step: 250 * bullet.Millisecond,
	},
	{
		Name:  "stream-mega",
		Nodes: 100000, Clients: 10000, Protocol: protoStreamer, Degree: 10,
		Start: 1 * bullet.Second, Stream: 3 * bullet.Second, Until: 4 * bullet.Second,
		Step: 20 * bullet.Millisecond,
	},
	{
		Name:  "churn-sharded",
		Nodes: 5000, Clients: 150, Shards: 2, Protocol: protoBullet, Degree: 6,
		Start: 10 * bullet.Second, Stream: 40 * bullet.Second, Until: 50 * bullet.Second,
		Step:       250 * bullet.Millisecond,
		ChurnEvery: 5, ChurnAt: 20 * bullet.Second, ChurnGap: 500 * bullet.Millisecond, DownFor: 10 * bullet.Second,
	},
}

// worldsPerSeed is the number of distinct worlds a benchmark seed stands
// for; reps cycle through them. Run time depends on the generated
// topology as well as on the host: on churn-sharded, how evenly the
// partitioner can split a topology over two shards moves run_s by up to
// a factor of two from one topology to the next. A median over many
// worlds describes the workload; one world describes a topology.
const worldsPerSeed = 16

// worldSeed is the WorldConfig.Seed of world i of a benchmark seed.
func worldSeed(seed int64, i int) int64 { return seed*1000 + int64(i) }

func workloadByName(name string) (spec, bool) {
	for _, s := range workloads {
		if s.Name == name {
			return s, true
		}
	}
	return spec{}, false
}

func workloadNames() []string {
	names := make([]string, len(workloads))
	for i, s := range workloads {
		names[i] = s.Name
	}
	return names
}

// instance is a built workload, ready to run.
type instance struct {
	spec  spec
	world *bullet.World
	dep   bullet.Deployment
}

// build sets the workload up through the public API, recording one
// span per call under parent.
func build(s spec, seed int64, tr *tracer, parent int) (*instance, error) {
	var w *bullet.World
	err := tr.do("topology.world", parent, func() (err error) {
		w, err = bullet.NewWorld(bullet.WorldConfig{
			TotalNodes: s.Nodes, Clients: s.Clients, Seed: seed, Shards: s.Shards,
		})
		return err
	})
	if err != nil {
		return nil, fmt.Errorf("NewWorld: %w", err)
	}
	var tree *bullet.Tree
	err = tr.do("overlay.tree", parent, func() (err error) {
		tree, err = w.RandomTree(s.Degree)
		return err
	})
	if err != nil {
		return nil, fmt.Errorf("RandomTree: %w", err)
	}
	proto, err := s.protocol()
	if err != nil {
		return nil, err
	}
	var dep bullet.Deployment
	err = tr.do(deploySpan(s.Protocol), parent, func() (err error) {
		dep, err = w.Deploy(proto, tree)
		return err
	})
	if err != nil {
		return nil, fmt.Errorf("Deploy: %w", err)
	}
	_ = tr.do("scenario.install", parent, func() error {
		w.Scenario(s.schedule(tree))
		return nil
	})
	return &instance{spec: s, world: w, dep: dep}, nil
}

// deploySpan names the Deploy span after the deployed protocol's
// module.
func deploySpan(protocol string) string {
	if protocol == protoStreamer {
		return "streamer.deploy"
	}
	return "core.deploy"
}

func (s spec) protocol() (bullet.Protocol, error) {
	switch s.Protocol {
	case protoBullet:
		cfg := bullet.DefaultConfig(rateKbps)
		cfg.Start = s.Start
		cfg.Duration = s.Stream
		peers := min(max(s.Clients/10, 4), 10)
		cfg.MaxSenders, cfg.MaxReceivers = peers, peers
		return bullet.BulletProtocol{Config: cfg}, nil
	case protoStreamer:
		return bullet.StreamerProtocol{Config: bullet.StreamConfig{
			RateKbps: rateKbps, PacketSize: 1500, Start: s.Start, Duration: s.Stream,
		}}, nil
	}
	return nil, fmt.Errorf("unknown protocol %q", s.Protocol)
}

// schedule is the workload's scenario: empty for a static network,
// else the staggered crash wave over the tree's non-root participants.
func (s spec) schedule(tree *bullet.Tree) *bullet.Scenario {
	sc := bullet.NewScenario()
	if s.ChurnEvery <= 0 {
		return sc
	}
	var victims []int
	i := 0
	for _, p := range tree.Participants {
		if p == tree.Root {
			continue
		}
		if i%s.ChurnEvery == 0 {
			victims = append(victims, p)
		}
		i++
	}
	return sc.Churn(s.ChurnAt, s.ChurnGap, s.DownFor, victims...)
}

// stepSample is the host time of one World.Run step.
type stepSample struct {
	dur       time.Duration
	streaming bool // the step lies inside the streaming phase
}

// run advances the world to the workload's end in fixed virtual-time
// steps, one span per step under parent, and samples HeapInuse at every
// step boundary. It returns the step samples and the peak HeapInuse.
func (in *instance) run(tr *tracer, parent int) ([]stepSample, uint64) {
	s := in.spec
	steps := make([]stepSample, 0, int((s.Until-in.world.Now())/s.Step)+1)
	var ms runtime.MemStats
	var peak uint64
	streamEnd := s.Start + s.Stream
	for t := in.world.Now(); t < s.Until; {
		next := min(t+s.Step, s.Until)
		id := tr.begin("sim.step", parent)
		in.world.Run(next)
		d := tr.end(id)
		steps = append(steps, stepSample{dur: d, streaming: t >= s.Start && next <= streamEnd})
		runtime.ReadMemStats(&ms)
		peak = max(peak, ms.HeapInuse)
		t = next
	}
	return steps, peak
}

// counts are the run's deterministic output counters: a change that
// only makes the simulator faster leaves every one of them unchanged.
type counts struct {
	Events             uint64 `json:"sim.events"`
	PacketsDelivered   uint64 `json:"netem.packets_delivered"`
	DataBytesSent      uint64 `json:"netem.data_bytes_sent"`
	DataBytesDelivered uint64 `json:"netem.data_bytes_delivered"`
	ControlBytes       uint64 `json:"netem.control_bytes"`
	DropsCongestion    uint64 `json:"netem.drops_congestion"`
	DropsRandom        uint64 `json:"netem.drops_random"`
	DropsLinkDown      uint64 `json:"netem.drops_linkdown"`
	Rerouted           uint64 `json:"netem.rerouted"`
	UsefulBytes        uint64 `json:"metrics.useful_bytes"`
	RawBytes           uint64 `json:"metrics.raw_bytes"`
	DuplicateBytes     uint64 `json:"metrics.duplicate_bytes"`
	MemberEpochs       uint64 `json:"core.member_epochs"` // membership changes (crashes, restarts)
}

// byName returns the counts keyed by their metric names.
func (c counts) byName() map[string]uint64 {
	b, _ := json.Marshal(c) // a struct of integers always marshals
	var m map[string]uint64
	_ = json.Unmarshal(b, &m)
	return m
}

// output is what a finished run produced: its counters and a digest of
// the collector series, the netem stats and the event count.
type output struct {
	Digest string `json:"digest"`
	Counts counts `json:"counts"`
}

var seriesKinds = []bullet.Kind{bullet.Useful, bullet.Raw, bullet.Parent, bullet.Duplicate}

// result reads the finished run's public counters and digests them.
func (in *instance) result() output {
	st := in.world.Network().Stats()
	col := in.dep.Collector()
	c := counts{
		Events:             in.world.Network().RunLoad().TotalEvents(),
		PacketsDelivered:   st.DeliveredPackets,
		DataBytesSent:      st.DataBytesSent,
		DataBytesDelivered: st.DataBytesDelivered,
		ControlBytes:       st.ControlBytes,
		DropsCongestion:    st.CongestionDrops,
		DropsRandom:        st.RandomLossDrops,
		DropsLinkDown:      st.LinkDownDrops,
		Rerouted:           st.ReroutedPackets,
		UsefulBytes:        col.Total(bullet.Useful),
		RawBytes:           col.Total(bullet.Raw),
		DuplicateBytes:     col.Total(bullet.Duplicate),
		MemberEpochs:       uint64(in.dep.MemberEpoch()),
	}
	h := sha256.New()
	put := func(v uint64) {
		var b [8]byte
		binary.LittleEndian.PutUint64(b[:], v)
		h.Write(b[:])
	}
	for _, k := range seriesKinds {
		pts := col.Series(k)
		put(uint64(len(pts)))
		for _, p := range pts {
			put(math.Float64bits(p.T))
			put(math.Float64bits(p.Kbps))
			put(math.Float64bits(p.Std))
		}
	}
	for _, v := range []uint64{st.DataBytesSent, st.DataBytesDelivered, st.ControlBytes,
		st.CongestionDrops, st.RandomLossDrops, st.LinkDownDrops, st.ReroutedPackets,
		st.DeliveredPackets, c.Events} {
		put(v)
	}
	return output{Digest: hex.EncodeToString(h.Sum(nil)[:16]), Counts: c}
}

// check returns the first invariant the workload's output breaks, or
// nil.
func (s spec) check(o output) error {
	c := o.Counts
	switch {
	case s.ChurnEvery > 0 && c.MemberEpochs == 0:
		return fmt.Errorf("invariant: the churn schedule changed no membership")
	case c.Events == 0:
		return fmt.Errorf("invariant: no events executed")
	case c.UsefulBytes == 0:
		return fmt.Errorf("invariant: no useful bytes delivered")
	case c.UsefulBytes > c.RawBytes:
		return fmt.Errorf("invariant: useful bytes %d > raw bytes %d", c.UsefulBytes, c.RawBytes)
	case c.DataBytesDelivered > c.DataBytesSent:
		return fmt.Errorf("invariant: delivered bytes %d > sent bytes %d", c.DataBytesDelivered, c.DataBytesSent)
	}
	return nil
}
