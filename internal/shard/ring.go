// Package shard partitions the object space across k independent
// broadcast channels (DESIGN.md §12). A seeded hashring places objects
// on shards with balance and minimal movement; each shard runs the full
// paper machinery — its own server, broadcast program and control
// columns over the local object ids — and a coordinator commits a
// cross-shard update transaction in one shot: the paper's
// update-consistency check over every involved shard's projection, then
// the installs, all under those shards' locks (server.SubmitAcross).
// Multi-shard read-only transactions validate per shard with
// the usual Theorem 1/2 read-conditions plus a cross-shard
// cycle-alignment check so the union of per-shard snapshots admits one
// serialization point.
package shard

import (
	"fmt"
	"sort"
)

// DefaultVnodes is the virtual-node count per shard when NewRing is
// given 0. More vnodes buy tighter balance at O(k·vnodes) ring memory.
const DefaultVnodes = 256

// ringPoint is one virtual node on the ring.
type ringPoint struct {
	hash  uint64
	shard int
}

// Ring is a deterministic hashring over k shards: every placement is a
// pure function of (seed, shards, vnodes), byte-identical across runs,
// machines and GOMAXPROCS. Shard i's points depend only on (seed, i,
// vnode index), so growing or shrinking the fleet by one shard moves
// only the keys that land on the added/removed shard — the
// minimal-movement property classic consistent hashing promises.
type Ring struct {
	seed   int64
	shards int
	vnodes int
	points []ringPoint // sorted by (hash, shard)
}

// splitmix64 is the same finalization faultair uses for seed-pure
// decisions: fold each value into the state and scramble.
func splitmix64(seed int64, vals ...uint64) uint64 {
	x := uint64(seed) ^ 0x9e3779b97f4a7c15
	for _, v := range vals {
		x += v
		x ^= x >> 30
		x *= 0xbf58476d1ce4e5b9
		x ^= x >> 27
		x *= 0x94d049bb133111eb
		x ^= x >> 31
	}
	return x
}

// Point-placement and key-placement draws are salted apart.
const (
	saltPoint = 0x70 // ring vnode positions
	saltKey   = 0x6b // object placements
)

// NewRing builds the ring for k shards. vnodes ≤ 0 selects
// DefaultVnodes.
func NewRing(seed int64, shards, vnodes int) *Ring {
	if shards <= 0 {
		panic(fmt.Sprintf("shard: ring needs at least one shard, got %d", shards))
	}
	if vnodes <= 0 {
		vnodes = DefaultVnodes
	}
	r := &Ring{seed: seed, shards: shards, vnodes: vnodes,
		points: make([]ringPoint, 0, shards*vnodes)}
	for s := 0; s < shards; s++ {
		for v := 0; v < vnodes; v++ {
			r.points = append(r.points, ringPoint{
				hash:  splitmix64(seed, saltPoint, uint64(s), uint64(v)),
				shard: s,
			})
		}
	}
	sort.Slice(r.points, func(i, j int) bool {
		if r.points[i].hash != r.points[j].hash {
			return r.points[i].hash < r.points[j].hash
		}
		return r.points[i].shard < r.points[j].shard // deterministic collision order
	})
	return r
}

// Seed reports the placement seed.
func (r *Ring) Seed() int64 { return r.seed }

// Shards reports the shard count k.
func (r *Ring) Shards() int { return r.shards }

// Vnodes reports the virtual nodes per shard.
func (r *Ring) Vnodes() int { return r.vnodes }

// ShardOf places an object: hash it onto the ring and walk clockwise to
// the first virtual node.
func (r *Ring) ShardOf(obj int) int {
	h := splitmix64(r.seed, saltKey, uint64(obj))
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	if i == len(r.points) {
		i = 0 // wrap past the highest point
	}
	return r.points[i].shard
}

// Mapping freezes the placement of a database of n objects on a ring
// and carries the global↔local id translation: each shard's objects get
// local ids 0..len-1 in ascending global-id order, so at k=1 the local
// space is the global space and the sharded wire image is byte-
// identical to the unsharded one. Small databases can starve a shard
// under any hashring; a deterministic fix-up pass reassigns one object
// at a time from the fullest shard until every shard owns at least one,
// keeping every per-shard server's layout valid.
type Mapping struct {
	ring    *Ring
	shardOf []int
	local   []int   // global id -> local id within its shard
	globals [][]int // shard -> ascending global ids
}

// NewMapping places n objects on the ring.
func NewMapping(r *Ring, n int) *Mapping {
	return newMapping(r, n, func(obj int) int { return obj })
}

// NewPrefixMapping places n objects on the ring by hashing the key
// prefix obj/entity instead of the object id itself: every object of
// one entity — a contiguous run of `entity` ids, the key-prefix
// co-location device of range-sharded stores — lands on the same shard
// at every shard count, so transactions confined to an entity never
// cross shards. entity <= 1 degenerates to NewMapping.
func NewPrefixMapping(r *Ring, n, entity int) *Mapping {
	if entity <= 1 {
		return NewMapping(r, n)
	}
	return newMapping(r, n, func(obj int) int { return obj / entity })
}

func newMapping(r *Ring, n int, key func(obj int) int) *Mapping {
	if n < r.shards {
		panic(fmt.Sprintf("shard: %d objects cannot cover %d shards", n, r.shards))
	}
	m := &Mapping{
		ring:    r,
		shardOf: make([]int, n),
		local:   make([]int, n),
		globals: make([][]int, r.shards),
	}
	counts := make([]int, r.shards)
	for obj := 0; obj < n; obj++ {
		s := r.ShardOf(key(obj))
		m.shardOf[obj] = s
		counts[s]++
	}
	for s := 0; s < r.shards; s++ {
		for counts[s] == 0 {
			// Steal the highest global id from the fullest shard (ties
			// break toward the lowest shard id) — a pure function of the
			// placement, so every participant computes the same fix-up.
			donor, max := -1, 1
			for d, c := range counts {
				if c > max {
					donor, max = d, c
				}
			}
			moved := -1
			for obj := n - 1; obj >= 0; obj-- {
				if m.shardOf[obj] == donor {
					moved = obj
					break
				}
			}
			m.shardOf[moved] = s
			counts[donor]--
			counts[s]++
		}
	}
	for s := range m.globals {
		m.globals[s] = make([]int, 0, counts[s])
	}
	for obj := 0; obj < n; obj++ {
		s := m.shardOf[obj]
		m.local[obj] = len(m.globals[s])
		m.globals[s] = append(m.globals[s], obj)
	}
	return m
}

// Ring returns the ring behind the mapping.
func (m *Mapping) Ring() *Ring { return m.ring }

// N reports the database size.
func (m *Mapping) N() int { return len(m.shardOf) }

// Shards reports the shard count k.
func (m *Mapping) Shards() int { return m.ring.shards }

// ShardOf reports the shard owning a global object id (after fix-up —
// it can differ from Ring.ShardOf for starved shards on tiny databases).
func (m *Mapping) ShardOf(obj int) int { return m.shardOf[obj] }

// Local translates a global object id to its shard-local id.
func (m *Mapping) Local(obj int) int { return m.local[obj] }

// Globals returns shard s's objects as ascending global ids; index by
// local id to translate back. Callers must not mutate the slice.
func (m *Mapping) Globals(s int) []int { return m.globals[s] }

// Size reports how many objects shard s owns.
func (m *Mapping) Size(s int) int { return len(m.globals[s]) }

// Split partitions a set of (global object, payload) pairs by shard:
// it calls emit(shard, global) for each element in input order. It is
// the routing primitive behind the Router's per-shard programs.
func (m *Mapping) Split(objs []int, emit func(shard, obj int)) {
	for _, obj := range objs {
		emit(m.shardOf[obj], obj)
	}
}
