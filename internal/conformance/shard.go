package conformance

import (
	"bytes"
	"fmt"

	"broadcastcc/internal/cmatrix"
	"broadcastcc/internal/protocol"
	"broadcastcc/internal/server"
	"broadcastcc/internal/shard"
	"broadcastcc/internal/wire"
)

// shardCycle retains one cycle's control snapshots from the sharded
// lockstep run: the reference server's full matrix and each shard's
// local matrix.
type shardCycle struct {
	ref  *cmatrix.Matrix
	mats []*cmatrix.Matrix
}

// runShard drives the workload's commit stream through a
// hashring-partitioned fleet of w.Shards servers in lockstep with a
// single logical reference server, both fed the identical uplink-style
// submissions, and checks the sharded deployment end to end:
//
//   - verdict agreement: every background commit and every client
//     uplink transaction is accepted by the coordinator iff the
//     reference server accepts it (the paper's update-consistency check
//     decomposes per object, so sharding must not change a verdict);
//   - control domination: each shard's C matrix stays entrywise >= the
//     reference matrix projected onto the shard (the conservative
//     ApplyRemote may only over-approximate, never under-approximate),
//     with exact equality on the diagonal at every k and on every entry
//     at k = 1;
//   - state agreement: committed values per shard equal the reference;
//   - wire identity at k = 1: a single-shard fleet must broadcast the
//     byte-identical cycle frame as the unsharded server;
//   - acceptance lattice: the sharded read-only acceptance (per-shard
//     Theorem 1/2 validation plus the cross-shard cycle-alignment
//     check) stays inside the F-Matrix acceptance, and coincides with
//     it exactly at k = 1.
//
// The run is self-contained — it rebuilds its own reference server
// rather than reusing runAir's, because background commits are replayed
// through the uplink path (the rule the per-shard prepare applies) and
// so may be refused where runAir's server-local transactions were not.
func runShard(w *Workload, tr *airTrace) ([]Violation, error) {
	if w.Shards == 0 {
		return nil, nil
	}
	k := w.Shards
	base := server.Config{
		Objects:       w.Objects,
		ObjectBits:    64,
		TimestampBits: 32,
		Algorithm:     protocol.FMatrix,
		Audit:         true,
	}
	ref, err := server.New(base)
	if err != nil {
		return nil, fmt.Errorf("conformance: sharded reference server: %v", err)
	}
	defer ref.Close()
	fleet, err := shard.NewFleet(shard.FleetConfig{
		Base:   base,
		Seed:   w.Seed ^ 0x5eed,
		Shards: k,
	})
	if err != nil {
		return nil, fmt.Errorf("conformance: sharded fleet: %v", err)
	}
	defer fleet.Close()
	m := fleet.Mapping()
	coord := fleet.Coordinator()

	var violations []Violation
	serverVio := func(kind, detail string) {
		violations = append(violations, Violation{Kind: kind, Client: -1, Txn: -1, Detail: detail})
	}

	snaps := make([]shardCycle, w.Cycles+1)
	for c := cmatrix.Cycle(1); c <= w.Cycles; c++ {
		cbRef := ref.StartCycle()
		cbs := fleet.StartCycle()
		sc := shardCycle{ref: cbRef.Matrix, mats: make([]*cmatrix.Matrix, k)}
		for s := 0; s < k; s++ {
			sc.mats[s] = cbs[s].Matrix
		}
		snaps[c] = sc

		// k = 1 is the degenerate deployment: one shard, identity
		// mapping, fast-path commits only. Its broadcast must be
		// byte-identical to the unsharded server's.
		if k == 1 {
			fRef, errR := wire.EncodeCycle(cbRef)
			fSh, errS := wire.EncodeCycle(cbs[0])
			if errR != nil || errS != nil {
				return nil, fmt.Errorf("conformance: encoding cycle %d: ref=%v shard=%v", c, errR, errS)
			}
			if !bytes.Equal(fRef, fSh) {
				serverVio(KindShardWire,
					fmt.Sprintf("cycle %d: single-shard fleet frame differs from the unsharded server's (%d vs %d bytes)", c, len(fSh), len(fRef)))
			}
		}
		for s := 0; s < k; s++ {
			for li, gi := range m.Globals(s) {
				if !bytes.Equal(cbs[s].Values[li], cbRef.Values[gi]) {
					serverVio(KindShardState,
						fmt.Sprintf("cycle %d: shard %d object %d (global %d) holds %q, reference %q",
							c, s, li, gi, cbs[s].Values[li], cbRef.Values[gi]))
				}
				for lj, gj := range m.Globals(s) {
					cs, cr := cbs[s].Matrix.At(li, lj), cbRef.Matrix.At(gi, gj)
					if cs < cr {
						serverVio(KindShardControl,
							fmt.Sprintf("cycle %d: shard %d C(%d,%d) = %d under-approximates the reference C(%d,%d) = %d (unsound)",
								c, s, li, lj, cs, gi, gj, cr))
					} else if cs != cr && (k == 1 || li == lj) {
						where := "on the diagonal"
						if k == 1 {
							where = "at k=1"
						}
						serverVio(KindShardControl,
							fmt.Sprintf("cycle %d: shard %d C(%d,%d) = %d, reference C(%d,%d) = %d (must be exact %s)",
								c, s, li, lj, cs, gi, gj, cr, where))
					}
				}
			}
		}

		// Background commits, replayed as uplink submissions with reads
		// pinned to the current cycle; then client uplink transactions
		// arriving this cycle — the same in-cycle order runAir uses.
		for ci, pc := range w.Commits {
			if pc.At != c {
				continue
			}
			req := protocol.UpdateRequest{}
			for _, obj := range pc.ReadSet {
				req.Reads = append(req.Reads, protocol.ReadAt{Obj: obj, Cycle: c})
			}
			for _, obj := range pc.WriteSet {
				req.Writes = append(req.Writes, protocol.ObjectWrite{Obj: obj, Value: []byte{byte(obj)}})
			}
			errRef, errFleet := ref.SubmitUpdate(req), coord.SubmitUpdate(req)
			if (errRef == nil) != (errFleet == nil) {
				serverVio(KindShardVerdict,
					fmt.Sprintf("commit %d at cycle %d: reference err=%v, coordinator err=%v", ci, c, errRef, errFleet))
			}
		}
		for _, rt := range tr.txns {
			if !rt.update || rt.truncated || len(rt.reads) == 0 || rt.submitAt != c {
				continue
			}
			req := protocol.UpdateRequest{Reads: rt.reads}
			for _, obj := range rt.writes {
				req.Writes = append(req.Writes, protocol.ObjectWrite{Obj: obj, Value: []byte{byte(obj)}})
			}
			errRef, errFleet := ref.SubmitUpdate(req), coord.SubmitUpdate(req)
			if (errRef == nil) != (errFleet == nil) {
				violations = append(violations, Violation{
					Kind: KindShardVerdict, Client: rt.client, Txn: rt.index,
					Detail: fmt.Sprintf("uplink at cycle %d: reference err=%v, coordinator err=%v", c, errRef, errFleet),
				})
			}
		}
	}

	// Read-only acceptance lattice: replay every fresh-read client
	// transaction through the sharded acceptance rule (per-shard
	// validation over local control, alignment across shards) and
	// through the reference F-Matrix validator, over the snapshots this
	// run retained. Cached transactions are skipped — the sharded Router
	// runs cache-free clients.
	for _, rt := range tr.txns {
		if rt.update || rt.truncated || rt.cached || len(rt.reads) == 0 {
			continue
		}
		refAccept := runValidator(&protocol.ConjunctiveValidator{}, rt.reads, func(c cmatrix.Cycle) protocol.Snapshot {
			return w.Defect.validatorSnapshot(snaps[c].ref)
		})
		shardAccept := shardVerdict(m, rt.reads, snaps, w.Defect)
		if shardAccept && !refAccept {
			violations = append(violations, Violation{
				Kind: KindShardBeyondFMatrix, Client: rt.client, Txn: rt.index,
				Detail: fmt.Sprintf("reads %v: sharded acceptance (k=%d) accepts but the F-Matrix rejects", rt.reads, k),
			})
		}
		if k == 1 && shardAccept != refAccept {
			violations = append(violations, Violation{
				Kind: KindShardDiverged, Client: rt.client, Txn: rt.index,
				Detail: fmt.Sprintf("reads %v: single-shard acceptance says %v, F-Matrix says %v", rt.reads, shardAccept, refAccept),
			})
		}
	}
	return violations, nil
}

// shardVerdict is the offline model of the Router's read-only commit:
// each shard's reads run through the paper's Theorem 1/2 validation
// over that shard's local control matrix, and a multi-shard read set
// additionally passes the cycle-alignment check — at c* (the newest
// read cycle), every older read's object must be unwritten since it was
// read, so one serialization point at c* admits all shards' snapshots.
// Defect d reaches the validators' snapshots (DefectLooseRead) and can
// drop the alignment clause (DefectAlignmentSkip).
func shardVerdict(m *shard.Mapping, reads []protocol.ReadAt, snaps []shardCycle, d Defect) bool {
	perShard := map[int][]protocol.ReadAt{}
	cstar := cmatrix.Cycle(0)
	for _, r := range reads {
		s := m.ShardOf(r.Obj)
		perShard[s] = append(perShard[s], protocol.ReadAt{Obj: m.Local(r.Obj), Cycle: r.Cycle})
		cstar = max(cstar, r.Cycle)
	}
	for s, rs := range perShard {
		if !runValidator(&protocol.ConjunctiveValidator{}, rs, func(c cmatrix.Cycle) protocol.Snapshot {
			return d.validatorSnapshot(snaps[c].mats[s])
		}) {
			return false
		}
	}
	if len(perShard) > 1 && d != DefectAlignmentSkip {
		for s, rs := range perShard {
			snap := snaps[cstar].mats[s]
			for _, r := range rs {
				if r.Cycle < cstar && snap.At(r.Obj, r.Obj) >= r.Cycle {
					return false
				}
			}
		}
	}
	return true
}
