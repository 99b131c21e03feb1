// Package coalesce biases register assignment toward eliminating copies.
// The paper's conclusion (§8) names the interaction between layered
// allocation and coalescing as the main open integration question. Here
// coalescing never changes which values spill; it only steers which
// register each allocated value receives.
//
// MovesFromFunc extracts a function's φ-operand transfers and copy
// instructions at the value level, each weighted by its block frequency.
// BuildAffinity groups copy-related values into affinity classes by
// union-find over the clique structure, with no interference graph
// materialized. A merge is refused when the two classes interfere, and
// under the Conservative policy also when the Briggs criterion fails on
// clique-membership degrees. The tree-scan assigner takes the resulting
// per-value class table as a register preference: a value prefers the
// register its affine partners already hold, when free, and never at the
// cost of an extra spill.
package coalesce

// Policy selects the merge criterion. The zero value is Off so that configs
// which never mention coalescing keep the historical (unbiased) behavior.
type Policy int

const (
	// Off performs no coalescing: assignment is unbiased, byte-identical to
	// the pre-coalescing pipeline.
	Off Policy = iota
	// Aggressive merges every non-interfering copy-related pair (Chaitin).
	Aggressive
	// Conservative applies the Briggs test with R registers.
	Conservative
)

// String returns the canonical policy name ("off", "aggressive",
// "conservative").
func (p Policy) String() string {
	switch p {
	case Off:
		return "off"
	case Aggressive:
		return "aggressive"
	case Conservative:
		return "conservative"
	}
	return "invalid"
}

// Valid reports whether p is one of the defined policies.
func (p Policy) Valid() bool { return p >= Off && p <= Conservative }

// PolicyByName resolves a policy name. The empty string and "off" map to
// Off; "aggressive" and "conservative" (or "briggs") to the two merge
// criteria.
func PolicyByName(name string) (Policy, bool) {
	switch name {
	case "", "off":
		return Off, true
	case "aggressive":
		return Aggressive, true
	case "conservative", "briggs":
		return Conservative, true
	}
	return Off, false
}
