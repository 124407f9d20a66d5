package protocol

// ObjectWrite is one write of a client update transaction: the value the
// client wants installed for Obj.
type ObjectWrite struct {
	Obj   int
	Value []byte
}

// UpdateRequest is what a client ships to the server over the low-
// bandwidth uplink when committing an update transaction (Section
// 3.2.1, client functionality): the objects written with their values,
// and the list of reads performed with the cycle numbers in which they
// were performed. Read-only transactions never send one.
type UpdateRequest struct {
	Reads  []ReadAt
	Writes []ObjectWrite
}

// Uplink is the client-to-server channel for update transactions. The
// server validates the request and either commits it (nil) or rejects
// it with an error, in which case the client transaction aborts.
//
// A request is valid for the duration of the call: a netcast uplink
// port decodes each one into memory it reuses for the next, so an
// implementation that keeps any part of it past its return — values,
// Reads, Writes — keeps a copy (CloneWrites). The same holds for
// Participant.PrepareUpdate.
type Uplink interface {
	SubmitUpdate(UpdateRequest) error
}

// CloneWrites copies ws into memory it shares with nothing: one array
// holds every value, each capped at its own length; an empty value is
// nil.
func CloneWrites(ws []ObjectWrite) []ObjectWrite {
	n := 0
	for _, w := range ws {
		n += len(w.Value)
	}
	vals, out := make([]byte, 0, n), make([]ObjectWrite, len(ws))
	for i, w := range ws {
		out[i].Obj = w.Obj
		if len(w.Value) > 0 {
			vals = append(vals, w.Value...)
			out[i].Value = vals[len(vals)-len(w.Value) : len(vals) : len(vals)]
		}
	}
	return out
}

// Participant is one shard as the cross-shard two-shot commit sees it:
// the single-shot submit for transactions local to the shard, plus the
// prepare/decide pair for the others. *server.Server implements it,
// and the coordinator calls it in process.
type Participant interface {
	Uplink
	PrepareUpdate(token uint64, req UpdateRequest, remote bool) error
	DecideUpdate(token uint64, commit bool) error
}
