package sim

import "math/rand"

// Scheduler is the scheduling surface protocol code runs against. In a
// serial run every node shares one *Engine; in a sharded run each node
// holds the engine of its topology shard, so node-local timers and
// clock reads stay on the shard that executes the node's events. All
// shard engines of a run are constructed with the same master seed, so
// RNG(id) yields the identical stream regardless of which engine
// serves it — adding sharding never perturbs a single draw.
//
// Code holding a Scheduler must only ever schedule work for its own
// node (or read its clock): cross-node communication goes through the
// emulator, never through another node's scheduler.
type Scheduler interface {
	Now() Time
	Seed() int64
	RNG(id int64) *rand.Rand
	At(t Time, fn func()) Timer
	After(d Duration, fn func()) Timer
	Schedule(t Time, fn func())
	ScheduleAfter(d Duration, fn func())
	Post(t Time, ev *Event, fn func(*Event))
}

var _ Scheduler = (*Engine)(nil)
