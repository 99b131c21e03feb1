package core

// InterferencePath names the interference representation of the runner's
// last run: "cliques" (the fast path), "ifg" (the explicit graph) or "" (no
// structure was built).
func InterferencePath(r *Runner) string {
	switch {
	case r.cur.cs != nil:
		return "cliques"
	case r.cur.build != nil:
		return "ifg"
	}
	return ""
}

// LoopSrc is the loop function of the package's own tests.
const LoopSrc = loopSrc
