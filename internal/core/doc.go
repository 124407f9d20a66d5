// Package core implements the paper's correctness criteria and the
// APPROX recognition algorithm — the primary contribution of
// "Efficient Concurrency Control for Broadcast Environments"
// (Shanmugasundaram et al., SIGMOD 1999):
//
//   - conflict serializability of a history via serialization-graph
//     testing (polynomial);
//   - view serializability via Papadimitriou polygraphs (exact,
//     exponential — for small histories, tests and tooling);
//   - update consistency, the paper's correctness criterion: the update
//     sub-history is view serializable and, for every read-only
//     transaction t_R, the transaction polygraph P_H(t_R) over
//     LIVE_H(t_R) is acyclic (Theorem 3). Recognition is NP-complete
//     (Appendix B), so the exact checker is exponential;
//   - APPROX (Section 3.1), the polynomial-time approximation that
//     replaces view serializability with conflict serializability and
//     P_H(t_R) with the serialization graph S_H(t_R): it accepts a
//     proper subset of the update-consistent histories (Theorem 6).
//
// The graph checkers share one constraint builder and one decision, and
// all checkers operate on the committed projection, as the paper does.
package core
