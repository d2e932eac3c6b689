// Package core is the reduction engine: the nine segment-similarity
// policies of the SC'09 study, the per-rank reducer state machine and the
// one rank-parallel engine that drives it (batch or pipelined to a
// writer), the Reduced data model with the rank section grammar of its
// TRR1 and TRR2 containers (byte-level spec in docs/FORMATS.md; the
// container framing is internal/trace's), trace reconstruction, and the
// size and approximation-distance metrics — computable both from a
// reconstruction and directly from the reduced form
// (ApproximationDistanceReduced).
package core
