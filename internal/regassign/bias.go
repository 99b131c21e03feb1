package regassign

// Bias is a per-value register preference table for coalescing-biased
// assignment. Values are partitioned into affinity classes (copy-related,
// pairwise non-interfering — built by internal/coalesce without an IFG);
// the first member of a class to be coloured records its register as the
// class hint, and every later member prefers that register when it is free
// at its own definition point. The preference is strictly best-effort: a
// busy (or, constrained, banned/foreign-class) hint falls back to the
// normal lowest-free choice, so a biased assignment allocates exactly the
// values an unbiased one does — bias can never cost a spill.
type Bias struct {
	// ClassOf maps value ID to affinity class, -1 for none.
	ClassOf []int32
	// hint[class] is the register (a RegRef) the class converged on; NoReg
	// until the first member is coloured.
	hint []int32
}

// Reset initializes b over classOf with numClasses classes and no hints
// recorded, reusing its memory.
func (b *Bias) Reset(classOf []int32, numClasses int) {
	b.ClassOf = classOf
	if cap(b.hint) < numClasses {
		b.hint = make([]int32, numClasses)
	}
	b.hint = b.hint[:numClasses]
	for i := range b.hint {
		b.hint[i] = NoReg
	}
}

// classOf returns v's affinity class, -1 when v has none (or the table is
// nil).
func (b *Bias) classOf(v int) int32 {
	if b == nil || v >= len(b.ClassOf) {
		return -1
	}
	return b.ClassOf[v]
}

// hintOf returns the recorded register of class cls, NoReg when unset.
func (b *Bias) hintOf(cls int32) int32 { return b.hint[cls] }

// record stores reg as the hint of cls if the class has none yet (the first
// coloured member wins; later members chase it).
func (b *Bias) record(cls int32, reg int) {
	if cls >= 0 && b.hint[cls] == NoReg {
		b.hint[cls] = int32(reg)
	}
}
