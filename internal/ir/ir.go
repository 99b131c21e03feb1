// Package ir implements the small compiler intermediate representation the
// reproduction allocates registers for: functions of basic blocks holding
// three-address instructions over virtual registers (values), with a control
// flow graph, dominance information, and loop nesting.
//
// Programs may be in strict SSA form (every value has exactly one textual
// definition, and definitions dominate uses) — in that case the interference
// graph is chordal and the layered-optimal allocators apply — or in ordinary
// multi-def form, as produced by the JVM98-style workload generator, in which
// case interference graphs are general and only the heuristic allocators
// apply.
package ir

import (
	"fmt"
	"strconv"
)

// Op is an instruction opcode. The allocator only cares about def/use
// structure, so the opcode set is deliberately small; opcodes still matter
// for printing, validation, and spill-code insertion.
type Op int

const (
	OpConst  Op = iota // v = const k
	OpParam            // v = param i       (function input)
	OpArith            // v = arith a, b    (any two-operand computation)
	OpUnary            // v = unary a
	OpCopy             // v = copy a
	OpPhi              // v = phi [pred: a], [pred: b], ...  (SSA only)
	OpLoad             // v = load a        (memory read through address a)
	OpStore            // store a, b        (no def)
	OpCall             // v = call a, b, ...
	OpBranch           // br target         (no def, no use)
	OpCondBr           // condbr a, then, else
	OpReturn           // ret a | ret
	OpSpill            // spill a           (store of a into spill slot a; inserted)
	OpReload           // v = reload a      (load of spill slot a; inserted)
)

var opNames = map[Op]string{
	OpConst:  "const",
	OpParam:  "param",
	OpArith:  "arith",
	OpUnary:  "unary",
	OpCopy:   "copy",
	OpPhi:    "phi",
	OpLoad:   "load",
	OpStore:  "store",
	OpCall:   "call",
	OpBranch: "br",
	OpCondBr: "condbr",
	OpReturn: "ret",
	OpSpill:  "spill",
	OpReload: "reload",
}

func (o Op) String() string {
	if s, ok := opNames[o]; ok {
		return s
	}
	return fmt.Sprintf("op(%d)", int(o))
}

// HasDef reports whether instructions with this opcode define a value.
func (o Op) HasDef() bool {
	switch o {
	case OpStore, OpBranch, OpCondBr, OpReturn, OpSpill:
		return false
	}
	return true
}

// IsTerminator reports whether the opcode ends a basic block.
func (o Op) IsTerminator() bool {
	return o == OpBranch || o == OpCondBr || o == OpReturn
}

// NoValue marks the absence of a defined value in Instr.Def.
const NoValue = -1

// Class is a machine register class. Values default to ClassGPR; machine
// descriptions (internal/arch) give each class its own capacity, ABI
// registers and caller-saved set. Classes are disjoint: a value of one
// class can never be assigned a register of another.
type Class int8

const (
	// ClassGPR is the general-purpose integer register class.
	ClassGPR Class = iota
	// ClassFP is the floating-point register class.
	ClassFP
	// NumClasses is the number of register classes.
	NumClasses
)

func (c Class) String() string {
	switch c {
	case ClassGPR:
		return "gpr"
	case ClassFP:
		return "fp"
	}
	return fmt.Sprintf("class(%d)", int(c))
}

// Machine registers are identified by a compact RegRef: class × RegStride +
// index. The stride keeps refs small enough for dense register files in
// verification code, and makes ClassGPR refs numerically equal to their
// index — so unconstrained (single-class) allocation keeps its historical
// plain-integer register numbers.
const RegStride = 256

// MakeReg builds the RegRef of register index i in class c.
func MakeReg(c Class, i int) int { return int(c)*RegStride + i }

// RegClassOf returns the class of a RegRef.
func RegClassOf(ref int) Class { return Class(ref / RegStride) }

// RegIndexOf returns the within-class index of a RegRef.
func RegIndexOf(ref int) int { return ref % RegStride }

// RegName renders a RegRef in the textual IR syntax: r<i> for GPRs,
// f<i> for FP registers.
func RegName(ref int) string {
	if RegClassOf(ref) == ClassFP {
		return "f" + strconv.Itoa(RegIndexOf(ref))
	}
	return "r" + strconv.Itoa(RegIndexOf(ref))
}

// ParseRegName parses "r<i>" / "f<i>" into a RegRef.
func ParseRegName(s string) (int, bool) {
	if len(s) < 2 {
		return 0, false
	}
	var c Class
	switch s[0] {
	case 'r':
		c = ClassGPR
	case 'f':
		c = ClassFP
	default:
		return 0, false
	}
	i, err := strconv.Atoi(s[1:])
	if err != nil || i < 0 || i >= RegStride || s[1] == '+' {
		return 0, false
	}
	return MakeReg(c, i), true
}

// Instr is one instruction. Def is a value ID or NoValue. Uses lists value
// IDs; for OpPhi, Uses is parallel to the block's predecessor list. Imm
// carries the constant for OpConst and the index for OpParam.
//
// Spill slots: an OpSpill stores its operand into the slot named by that
// operand's value ID (slot ≡ Uses[0]). An OpReload carries the slot it reads
// in Imm — a value ID that is *not* a use (the reload must not extend the
// spilled value's register live range); Imm < 0 means the slot is unknown,
// which the reference interpreter rejects.
type Instr struct {
	Op   Op
	Def  int
	Uses []int
	Imm  int64
	// Targets holds successor block IDs for OpBranch (1) and OpCondBr (2).
	Targets []int
	// Clobbers lists the machine registers (RegRefs, sorted ascending) an
	// OpCall overwrites — the ABI's caller-saved set at this call site. A
	// value assigned one of these registers and live across the call loses
	// its content; machine-constrained allocation must spill it or place it
	// in a register the call does not clobber. Nil on every other opcode,
	// and ignored entirely by unconstrained (machine-less) allocation.
	Clobbers []int
}

// Block is a basic block: a straight-line instruction sequence ending in a
// terminator. Phis, if any, come first.
type Block struct {
	ID     int
	Name   string
	Instrs []Instr
	Preds  []int
	Succs  []int
	// LoopDepth is the natural-loop nesting depth (0 = not in a loop),
	// filled in by Func.ComputeLoops.
	LoopDepth int
}

// Terminator returns the block's final instruction.
func (b *Block) Terminator() *Instr {
	if len(b.Instrs) == 0 {
		return nil
	}
	t := &b.Instrs[len(b.Instrs)-1]
	if !t.Op.IsTerminator() {
		return nil
	}
	return t
}

// Func is a single function: the unit of register allocation.
type Func struct {
	Name   string
	Blocks []*Block // Blocks[i].ID == i; Blocks[0] is the entry
	// NumValues is one past the largest value ID in use.
	NumValues int
	// ValueName optionally maps value IDs to source-level names (used by
	// the printer and by figure-reproduction tests); missing entries print
	// as v<ID>.
	ValueName map[int]string
	// SSA records whether the function claims strict SSA form; Validate
	// enforces the claim.
	SSA bool
	// ValueClass maps value IDs to register classes; missing entries are
	// ClassGPR. Only machine-constrained allocation consults it.
	ValueClass map[int]Class
	// PreColor maps value IDs to fixed machine registers (RegRefs): ABI
	// values (argument/return registers) that must keep exactly this color
	// for their whole in-register live range. Only machine-constrained
	// allocation consults it; a pre-color's class must match the value's.
	PreColor map[int]int
}

// Entry returns the entry block.
func (f *Func) Entry() *Block { return f.Blocks[0] }

// NameOf returns the printable name of value v.
func (f *Func) NameOf(v int) string {
	if n, ok := f.ValueName[v]; ok {
		return n
	}
	var buf [24]byte
	return string(f.AppendName(buf[:0], v))
}

// AppendName appends the printable name of value v (see NameOf) to dst, so
// a name can be extended without building it twice.
func (f *Func) AppendName(dst []byte, v int) []byte {
	if n, ok := f.ValueName[v]; ok {
		return append(dst, n...)
	}
	return strconv.AppendInt(append(dst, 'v'), int64(v), 10)
}

// ClassOf returns the register class of value v (ClassGPR by default).
func (f *Func) ClassOf(v int) Class {
	if c, ok := f.ValueClass[v]; ok {
		return c
	}
	return ClassGPR
}

// SetClass records the register class of value v. ClassGPR entries are
// canonical by omission, so setting the default removes the annotation.
func (f *Func) SetClass(v int, c Class) {
	if c == ClassGPR {
		delete(f.ValueClass, v)
		return
	}
	if f.ValueClass == nil {
		f.ValueClass = make(map[int]Class)
	}
	f.ValueClass[v] = c
}

// PreColorOf returns value v's fixed machine register (RegRef), if any.
func (f *Func) PreColorOf(v int) (int, bool) {
	ref, ok := f.PreColor[v]
	return ref, ok
}

// SetPreColor pins value v to machine register ref and records the implied
// register class.
func (f *Func) SetPreColor(v, ref int) {
	if f.PreColor == nil {
		f.PreColor = make(map[int]int)
	}
	f.PreColor[v] = ref
	f.SetClass(v, RegClassOf(ref))
}

// Constrained reports whether the function carries any machine-constraint
// annotation — a non-GPR class, a pre-colored value, or a clobbering call.
// Such functions are only meaningful to allocate under a machine
// description; without one the annotations are ignored.
func (f *Func) Constrained() bool {
	if len(f.ValueClass) > 0 || len(f.PreColor) > 0 {
		return true
	}
	for _, b := range f.Blocks {
		for i := range b.Instrs {
			if len(b.Instrs[i].Clobbers) > 0 {
				return true
			}
		}
	}
	return false
}

// NewValue allocates a fresh value ID.
func (f *Func) NewValue() int {
	id := f.NumValues
	f.NumValues++
	return id
}

// AddBlock appends a new empty block with the given name and returns it.
func (f *Func) AddBlock(name string) *Block {
	b := &Block{ID: len(f.Blocks), Name: name}
	f.Blocks = append(f.Blocks, b)
	return b
}

// AddEdge records a CFG edge from block u to block w, updating both the
// successor and predecessor lists. Callers must keep edge insertion order
// consistent with phi operand order.
func (f *Func) AddEdge(u, w int) {
	f.Blocks[u].Succs = append(f.Blocks[u].Succs, w)
	f.Blocks[w].Preds = append(f.Blocks[w].Preds, u)
}

// Defs returns, for each value ID, the list of (block, instruction index)
// sites defining it. In strict SSA each list has length one.
func (f *Func) Defs() [][]DefSite {
	defs := make([][]DefSite, f.NumValues)
	for _, b := range f.Blocks {
		for i, ins := range b.Instrs {
			if ins.Op.HasDef() && ins.Def != NoValue {
				defs[ins.Def] = append(defs[ins.Def], DefSite{Block: b.ID, Index: i})
			}
		}
	}
	return defs
}

// DefSite locates an instruction within a function.
type DefSite struct {
	Block int
	Index int
}

// UseCounts returns, per value, the number of textual uses (phi uses
// included).
func (f *Func) UseCounts() []int {
	counts := make([]int, f.NumValues)
	for _, b := range f.Blocks {
		for _, ins := range b.Instrs {
			for _, u := range ins.Uses {
				counts[u]++
			}
		}
	}
	return counts
}
