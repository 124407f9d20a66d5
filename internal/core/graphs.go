package core

import (
	"slices"
	"sort"

	"broadcastcc/internal/graph"
	"broadcastcc/internal/history"
)

// NodeMap translates between transaction ids and the dense node indices
// used by the graph package.
type NodeMap struct {
	ids   []history.TxnID       // index -> id, ascending
	index map[history.TxnID]int // id -> index
}

// newNodeMap builds a NodeMap over the given transaction set.
func newNodeMap(txns map[history.TxnID]bool) *NodeMap {
	ids := make([]history.TxnID, 0, len(txns))
	for t := range txns {
		ids = append(ids, t)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	index := make(map[history.TxnID]int, len(ids))
	for i, t := range ids {
		index[t] = i
	}
	return &NodeMap{ids: ids, index: index}
}

// Len reports the number of transactions mapped.
func (m *NodeMap) Len() int { return len(m.ids) }

// ID returns the transaction id at node index i.
func (m *NodeMap) ID(i int) history.TxnID { return m.ids[i] }

// Index returns the node index of id and whether it is mapped.
func (m *NodeMap) Index(id history.TxnID) (int, bool) {
	i, ok := m.index[id]
	return i, ok
}

// IDs returns the mapped transaction ids in node-index order.
func (m *NodeMap) IDs() []history.TxnID {
	return append([]history.TxnID(nil), m.ids...)
}

// constraints builds the constraint graph of h over the transactions in
// nodes, nil meaning all of h's plus T0 and tFinal; only the node
// transactions' operations count. T0 and tFinal join only when they are
// in nodes, pinned before and after every other node. With conflicts
// the graph is the serialization graph: an arc a -> b for each pair of
// conflicting operations (same object, distinct transactions, at least
// one write) where a's comes first. Without, it is Papadimitriou's
// polygraph: an arc w -> r whenever r reads from w, tFinal reading each
// object from its final writer, and for each reads-from (w, ob, r) and
// each other writer t of ob a bipath with alternatives r -> t or
// t -> w. Objects are walked in first-access order, so the arc lists,
// and with them FindCycle's witness, are the same from call to call.
func constraints(h *history.History, nodes map[history.TxnID]bool, conflicts bool) (*graph.Polygraph, *NodeMap) {
	if nodes == nil {
		nodes = map[history.TxnID]bool{history.T0: true, tFinal: true}
		for _, t := range h.Transactions() {
			nodes[t] = true
		}
	}
	m := newNodeMap(nodes)
	p := graph.NewPolygraph(m.Len())
	arc := func(from, to history.TxnID) {
		if from != to && nodes[from] && nodes[to] {
			p.AddArc(m.index[from], m.index[to])
		}
	}
	var objs []string
	perObject := map[string][]history.Op{}
	writers := map[string][]history.TxnID{} // polygraph only; first-write order
	for i := range h.Len() {
		op := h.At(i)
		if op.Kind != history.OpRead && op.Kind != history.OpWrite || !nodes[op.Txn] {
			continue
		}
		if perObject[op.Obj] == nil {
			objs = append(objs, op.Obj)
		}
		perObject[op.Obj] = append(perObject[op.Obj], op)
		if !conflicts && op.Kind == history.OpWrite && !slices.Contains(writers[op.Obj], op.Txn) {
			writers[op.Obj] = append(writers[op.Obj], op.Txn)
		}
	}
	for _, t := range m.ids {
		arc(history.T0, t)
		arc(t, tFinal)
	}
	if conflicts {
		for _, obj := range objs {
			ops := perObject[obj]
			for i, a := range ops {
				ai := m.index[a.Txn]
				for _, b := range ops[i+1:] {
					if b.Txn != a.Txn && (a.Kind == history.OpWrite || b.Kind == history.OpWrite) {
						p.AddArc(ai, m.index[b.Txn])
					}
				}
			}
		}
		return p, m
	}
	last := map[string]history.TxnID{} // an absent writer is T0
	readFrom := func(r history.TxnID, obj string) {
		w := last[obj]
		arc(w, r)
		for _, other := range writers[obj] {
			if other != w && other != r {
				p.AddBipath(m.index[r], m.index[other], m.index[w])
			}
		}
	}
	for i := range h.Len() {
		switch op := h.At(i); {
		case !nodes[op.Txn]:
		case op.Kind == history.OpWrite:
			last[op.Obj] = op.Txn
		case op.Kind == history.OpRead:
			readFrom(op.Txn, op.Obj)
		}
	}
	if nodes[tFinal] {
		for _, obj := range objs {
			readFrom(tFinal, obj)
		}
	}
	return p, m
}

// SerializationGraph builds S_H(t) per Definition 9: the conflict graph
// of h restricted to LIVE_H(t). The returned NodeMap translates node
// indices back to transaction ids.
func SerializationGraph(h *history.History, t history.TxnID) (*graph.Digraph, *NodeMap) {
	p, m := constraints(h, h.Live(t), true)
	return p.Base(), m
}

// TransactionPolygraph builds P_H(t) per Definition 6: nodes are
// LIVE_H(t); there is an arc w -> r whenever r reads some object from
// w; and for every such reads-from on object ob and every other live
// transaction t that writes ob there is a bipath with alternatives
// r -> t or t -> w.
func TransactionPolygraph(h *history.History, t history.TxnID) (*graph.Polygraph, *NodeMap) {
	return constraints(h, h.Live(t), false)
}
