package main

import (
	"bytes"
	"encoding/binary"
	"math/rand"

	"broadcastcc/internal/cmatrix"
	"broadcastcc/internal/protocol"
	"broadcastcc/internal/server"
)

// stamp fills buf with the value the benchmark writes for (obj, seq):
// a 16-byte header repeated to the slot width, so any mix-up of
// objects, versions or slot contents is visible in the bytes.
func stamp(buf []byte, obj int, seq uint64) {
	binary.BigEndian.PutUint64(buf[0:8], uint64(obj))
	binary.BigEndian.PutUint64(buf[8:16], seq)
	for i := 16; i < len(buf); i *= 2 {
		copy(buf[i:], buf[:i])
	}
}

// unstamp checks a value's shape and returns the (obj, seq) it carries.
func unstamp(v []byte, objBytes int) (obj int, seq uint64, ok bool) {
	if len(v) != objBytes || !bytes.Equal(v[16:], v[:len(v)-16]) {
		return 0, 0, false
	}
	return int(binary.BigEndian.Uint64(v[0:8])), binary.BigEndian.Uint64(v[8:16]), true
}

// shadowDepth is how many versions of one object the shadow keeps. A
// read is served from at most CacheCurrency cycles back and versions
// that become visible in the same cycle collapse into one, so the
// largest currency used (8) plus slack is enough; at() reports a miss
// rather than guess if it ever is not.
const shadowDepth = 16

type version struct {
	visible cmatrix.Cycle // first cycle whose broadcast carries this version
	seq     uint64
}

// shadow is the driver's model of the database: which stamped version
// of each object every broadcast cycle must carry, and the cycle of
// each object's last accepted write (what the server's backward
// validation compares reads against).
type shadow struct {
	vers      []version // objects × shadowDepth rings
	head      []int     // newest slot of each ring
	lastWrite []cmatrix.Cycle
}

func newShadow(objects int) *shadow {
	// Slot 0 of every ring starts as the initial value: seq 0, visible
	// from cycle 0. The other slots are older than any cycle asked for.
	s := &shadow{
		vers:      make([]version, objects*shadowDepth),
		head:      make([]int, objects),
		lastWrite: make([]cmatrix.Cycle, objects),
	}
	for i := range s.vers {
		if i%shadowDepth != 0 {
			s.vers[i].visible = -1
		}
	}
	return s
}

// predictReject is the server's backward validation, from the outside:
// an update is rejected iff one of its reads is of an object written in
// a cycle at or after the read's.
func (s *shadow) predictReject(req *protocol.UpdateRequest) bool {
	for _, r := range req.Reads {
		if s.lastWrite[r.Obj] >= r.Cycle {
			return true
		}
	}
	return false
}

// accept records the version an accepted write, committed while cycle
// was on the air, installs: the next cycle's broadcast carries it. (The
// driver moves lastWrite itself, at verdict time, because the next
// verdict of the same cycle depends on it.)
func (s *shadow) accept(obj int, cycle cmatrix.Cycle, seq uint64) {
	ring := s.vers[obj*shadowDepth : (obj+1)*shadowDepth]
	h := s.head[obj]
	if ring[h].visible != cycle+1 {
		h = (h + 1) % shadowDepth
		s.head[obj] = h
	}
	ring[h] = version{visible: cycle + 1, seq: seq}
}

// at returns the version of obj that cycle's broadcast carried.
func (s *shadow) at(obj int, cycle cmatrix.Cycle) (uint64, bool) {
	ring := s.vers[obj*shadowDepth : (obj+1)*shadowDepth]
	h := s.head[obj]
	for k := 0; k < shadowDepth; k++ {
		v := ring[(h-k+shadowDepth)%shadowDepth]
		if v.visible >= 0 && v.visible <= cycle {
			return v.seq, true
		}
	}
	return 0, false
}

// gen produces a workload's update transactions from the seed. The live
// driver and the replay's twin server each own one, so both see the
// same stream. Request and value buffers are reused every cycle: the
// measured allocations are the program's, not the generator's.
type gen struct {
	sp   *spec
	rng  *rand.Rand
	seq  uint64
	perm []int
	reqs []protocol.UpdateRequest
	// seqs[u][w] is the stamp sequence of request u's w-th write.
	seqs [][]uint64
}

func newGen(sp *spec, seed int64) *gen {
	g := &gen{sp: sp, rng: rand.New(rand.NewSource(seed)), perm: make([]int, sp.objects)}
	for i := range g.perm {
		g.perm[i] = i
	}
	g.reqs = make([]protocol.UpdateRequest, sp.updates)
	g.seqs = make([][]uint64, sp.updates)
	for u := range g.reqs {
		g.reqs[u].Reads = make([]protocol.ReadAt, sp.updReads)
		g.reqs[u].Writes = make([]protocol.ObjectWrite, sp.updWrites)
		for w := range g.reqs[u].Writes {
			g.reqs[u].Writes[w].Value = make([]byte, sp.objBytes)
		}
		g.seqs[u] = make([]uint64, sp.updWrites)
	}
	return g
}

// shuffle brings k fresh distinct objects to the front of perm.
func (g *gen) shuffle(k int) {
	for i := 0; i < k; i++ {
		j := i + g.rng.Intn(len(g.perm)-i)
		g.perm[i], g.perm[j] = g.perm[j], g.perm[i]
	}
}

// next fills reqs with the update transactions of the cycle that starts
// while cycle is on the air; every read is stamped with that cycle.
func (g *gen) next(cycle cmatrix.Cycle) {
	sp := g.sp
	per := sp.updReads + sp.updWrites
	if sp.disjoint {
		g.shuffle(per * sp.updates)
	}
	for u := range g.reqs {
		var objs []int
		if sp.disjoint {
			objs = g.perm[u*per : (u+1)*per]
		} else {
			g.shuffle(per)
			objs = g.perm[:per]
		}
		req := &g.reqs[u]
		for r := range req.Reads {
			req.Reads[r] = protocol.ReadAt{Obj: objs[r], Cycle: cycle}
		}
		if sp.conflictEvery > 0 && (u+1)%sp.conflictEvery == 0 {
			// Re-read an object the previous (accepted) update of this
			// cycle wrote: the server must reject.
			req.Reads[0].Obj = g.reqs[u-1].Writes[0].Obj
		}
		for w := range req.Writes {
			g.seq++
			g.seqs[u][w] = g.seq
			req.Writes[w].Obj = objs[sp.updReads+w]
			stamp(req.Writes[w].Value, req.Writes[w].Obj, g.seq)
		}
	}
}

// serverConfig is the workload's server: every stack, twin and probe of
// a run is built from it.
func serverConfig(sp *spec) server.Config {
	return server.Config{
		Objects: sp.objects, ObjectBits: int64(sp.objBytes) * 8, TimestampBits: 8,
		Algorithm: sp.alg, Groups: sp.groups, InitialValues: initialValues(sp),
	}
}

// initialValues stamps every object with seq 0.
func initialValues(sp *spec) [][]byte {
	vals := make([][]byte, sp.objects)
	for i := range vals {
		vals[i] = make([]byte, sp.objBytes)
		stamp(vals[i], i, 0)
	}
	return vals
}
