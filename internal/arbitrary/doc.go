// Package arbitrary implements the arbitrary-order insertion-only edge
// streaming model that Section 1.1 of the paper contrasts with the
// adjacency-list model: each edge appears exactly once, in adversarial
// order, with no locality promise.
//
// Triangles are covered by the model's classics — the Buriol et al.
// edge-plus-vertex sampler (BuriolSampler, one pass) and the two-pass
// wedge-closure estimator (TwoPassWedge) behind the Θ(m^{3/2}/T)
// const-pass bound of Bera–Chakrabarti and McGregor–Vorotnikova–Vu.
// Four-cycles are covered by two three-pass estimators built on a shared
// exact-co-degree closure (pairTracker): ThreePassFourCycle ports
// Vorotnikova's improved 3-pass algorithm (arXiv 2007.13466), and
// NearOptFourCycle ports the Lüderssen–Neumann–Peng near-optimal (1±ε)
// variant (arXiv 2604.00828) with its discovery/estimation sample split.
// Together they are the arbitrary-order column of the complexity landscape:
// experiments can measure what the adjacency-list promise buys, pass for
// pass (see experiments M1 and M3).
//
// The package is deliberately self-contained and minimal: a Stream is just
// an edge sequence that owns its storage (FromGraph shuffles
// deterministically under a seed; FromEdges copies and validates;
// FromAdjacencyStream keeps each edge of an adjacency-list stream at its
// first occurrence, converting each stream once; ReadEdges parses the
// textual form genstream emits), an
// Algorithm is driven by Run —
// or RunContext under cancellation — replaying the stream once per pass in
// identical order, and an Estimator adds the estimate and the
// words-of-state figure charged through the same space meter the rest of
// the repository uses — so its numbers land in the same tables. The public
// facade exposes the model as adjstream.ModelArbitrary.
package arbitrary
