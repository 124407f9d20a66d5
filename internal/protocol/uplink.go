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
// Reads, Writes — keeps a copy.
type Uplink interface {
	SubmitUpdate(UpdateRequest) error
}
