package ir

import (
	"fmt"
	"slices"
	"strconv"
	"strings"
	"sync"
	"unicode"
)

// Parse reads a function in the textual format produced by Func.String.
// Value and block names are arbitrary identifiers; value IDs are assigned in
// order of first appearance. Comments start with ';' and run to end of line.
//
// The grammar, line-oriented:
//
//	func <name> [ssa] {
//	<block>:
//	  <val> = const <int>
//	  <val> = param <int>
//	  <val> = arith <val>, <val>
//	  <val> = unary <val>
//	  <val> = copy <val>
//	  <val> = phi [<block>: <val>], ...
//	  <val> = load <val>
//	  <val> = call <val>, ...        (zero or more arguments)
//	  <val> = reload [<val>]         (operand names the spill slot)
//	  store <val>, <val>
//	  spill <val>
//	  br <block>
//	  condbr <val>, <block>, <block>
//	  ret [<val>]
//	}
//
// Any defining instruction may carry trailing machine-constraint
// annotations, each starting with '!': a register class (!fp, !gpr), or a
// pre-color pinning the def to one machine register (!pin=r0, !pin=f2 —
// the register name implies the class). A call may declare its caller-saved
// clobber set: v = call a, b !clobbers=r0,r1,f0. Registers are named r<i>
// (GPR) and f<i> (FP). Annotations only constrain machine-aware allocation;
// machine-less runs ignore them.
//
// Parsing takes two passes over pooled memory. The first reads the text
// into the parser's reusable tables (name lookups, instructions, one operand
// buffer) and so counts the blocks, instructions and operand ints; the
// second carves the Func from exact-size slabs the way Func.Clone does. The
// returned Func shares no memory with the pool: its names are substrings of
// src, and everything else is its own.
func Parse(src string) (*Func, error) {
	p := parsers.Get().(*parser)
	f, err := p.parse(src)
	p.reset()
	parsers.Put(p)
	return f, err
}

// MustParse is Parse that panics on error; intended for tests and examples
// with literal sources.
func MustParse(src string) *Func {
	f, err := Parse(src)
	if err != nil {
		panic(err)
	}
	return f
}

// parsers pools parser state across calls of Parse and ParseModule.
var parsers = sync.Pool{New: func() any {
	return &parser{valueIDs: make(map[string]int), blockIDs: make(map[string]int)}
}}

// span locates a list in parser.ints or parser.labels; n < 0 marks a nil
// list, which the built Func keeps nil.
type span struct{ off, n int }

var nilSpan = span{n: -1}

// pblock is a parsed block: its label and the index of its first
// instruction in parser.instrs (a block's instructions run to the next
// block's first).
type pblock struct {
	name  string
	first int
}

// pinstr is a parsed instruction, its lists held as spans of parser.ints.
type pinstr struct {
	op                      Op
	def                     int
	imm                     int64
	uses, targets, clobbers span
}

// fixup is a branch's target labels or a phi's predecessor labels,
// resolved once every block is known.
type fixup struct {
	block, instr int
	labels       span
}

// parser is the reusable state of one parse. f is the result under
// construction: the header fields and the class and pre-color maps are set
// on it while reading, the blocks when it is built.
type parser struct {
	f               *Func
	cur             int // current block, -1 before the first label
	started, closed bool
	valueIDs        map[string]int
	blockIDs        map[string]int
	names           []string // value ID → name
	blocks          []pblock
	instrs          []pinstr
	ints            []int    // operands, clobber sets and branch targets
	labels          []string // branch targets and phi predecessors, by name
	branches, phis  []fixup
	// preds[predOff[b]:predOff[b+1]] lists block b's predecessors.
	predOff, preds []int
	order          []int  // one phi's operands in predecessor order
	seen           []bool // predecessor slots a phi operand already took
	scratch        Scratch
}

// maxPooledNames bounds the name tables a pooled parser keeps: clearing a
// map costs its capacity, so after a giant function the tables are dropped
// rather than cleared on every later small parse.
const maxPooledNames = 1024

// reset empties the parser for the next parse and drops its references to
// the last source.
func (p *parser) reset() {
	if len(p.valueIDs) > maxPooledNames {
		p.valueIDs = make(map[string]int)
	} else {
		clear(p.valueIDs)
	}
	if len(p.blockIDs) > maxPooledNames {
		p.blockIDs = make(map[string]int)
	} else {
		clear(p.blockIDs)
	}
	clear(p.names)
	clear(p.blocks)
	clear(p.labels)
	p.f = nil
	p.names, p.blocks, p.labels = p.names[:0], p.blocks[:0], p.labels[:0]
	p.instrs, p.ints = p.instrs[:0], p.ints[:0]
	p.branches, p.phis = p.branches[:0], p.phis[:0]
}

// parse is Parse on the parser's memory; p must be reset.
func (p *parser) parse(src string) (*Func, error) {
	p.f = &Func{}
	p.cur = -1
	p.started, p.closed = false, false
	for lineNo := 1; ; lineNo++ {
		raw, rest, more := strings.Cut(src, "\n")
		line := raw
		if i := strings.IndexByte(line, ';'); i >= 0 {
			line = line[:i]
		}
		if line = strings.TrimSpace(line); line != "" {
			if err := p.line(line); err != nil {
				return nil, fmt.Errorf("line %d: %w", lineNo, err)
			}
		}
		if !more {
			break
		}
		src = rest
	}
	if !p.closed {
		return nil, fmt.Errorf("ir: missing closing brace")
	}
	if err := p.resolve(); err != nil {
		return nil, err
	}
	f := p.build()
	if _, err := p.scratch.ValidateAnalyzed(f); err != nil {
		return nil, err
	}
	return f, nil
}

func (p *parser) line(line string) error {
	switch {
	case strings.HasPrefix(line, "func "):
		if p.started {
			return fmt.Errorf("ir: duplicate func header")
		}
		p.started = true
		rest := strings.TrimSuffix(strings.TrimSpace(strings.TrimPrefix(line, "func ")), "{")
		name, rest := cutField(rest)
		if name == "" {
			return fmt.Errorf("ir: func header missing name")
		}
		p.f.Name = name
		for fl, rest := cutField(rest); fl != ""; fl, rest = cutField(rest) {
			if fl != "ssa" {
				return fmt.Errorf("ir: unknown func attribute %q", fl)
			}
			p.f.SSA = true
		}
		return nil
	case line == "}":
		if !p.started {
			return fmt.Errorf("ir: %q before func header", line)
		}
		p.closed = true
		return nil
	case strings.HasSuffix(line, ":"):
		if !p.started {
			return fmt.Errorf("ir: block label before func header")
		}
		name := strings.TrimSuffix(line, ":")
		if !isIdent(name) {
			return fmt.Errorf("ir: bad block label %q", name)
		}
		if _, dup := p.blockIDs[name]; dup {
			return fmt.Errorf("ir: duplicate block %q", name)
		}
		p.cur = len(p.blocks)
		p.blockIDs[name] = p.cur
		p.blocks = append(p.blocks, pblock{name: name, first: len(p.instrs)})
		return nil
	default:
		if p.cur < 0 {
			return fmt.Errorf("ir: instruction before first block label")
		}
		return p.instr(line)
	}
}

func (p *parser) instr(line string) error {
	// Machine-constraint annotations trail the instruction, each starting
	// with '!': a register class (!fp), a pre-color (!pin=r0), or a call's
	// clobber set (!clobbers=r0,r1,f0). Identifiers never contain '!', so
	// the first one starts the annotation list.
	var annots string
	if bang := strings.IndexByte(line, '!'); bang >= 0 {
		annots = line[bang:]
		line = strings.TrimSpace(line[:bang])
	}
	var defName string
	if eq := strings.IndexByte(line, '='); eq >= 0 && strings.IndexByte(line[:eq], '[') < 0 {
		defName = strings.TrimSpace(line[:eq])
		line = strings.TrimSpace(line[eq+1:])
	}
	op, rest, _ := strings.Cut(line, " ")
	rest = strings.TrimSpace(rest)
	ins := pinstr{def: NoValue, uses: nilSpan, targets: nilSpan, clobbers: nilSpan}
	var err error
	switch op {
	case "const", "param":
		ins.op = OpConst
		if op == "param" {
			ins.op = OpParam
		}
		ins.imm, err = strconv.ParseInt(rest, 10, 64)
		if err != nil {
			return fmt.Errorf("ir: bad %s immediate %q", op, rest)
		}
	case "arith", "store":
		ins.op = OpArith
		if op == "store" {
			ins.op = OpStore
		}
		if ins.uses, err = p.operands(rest, 2); err != nil {
			return err
		}
	case "unary", "copy", "load", "spill":
		switch op {
		case "unary":
			ins.op = OpUnary
		case "copy":
			ins.op = OpCopy
		case "load":
			ins.op = OpLoad
		default:
			ins.op = OpSpill
		}
		if ins.uses, err = p.operands(rest, 1); err != nil {
			return err
		}
	case "call", "ret":
		ins.op = OpCall
		want := -1
		if op == "ret" {
			ins.op, want = OpReturn, 1
		}
		if rest != "" {
			if ins.uses, err = p.operands(rest, want); err != nil {
				return err
			}
		}
	case "reload":
		ins.op = OpReload
		// The optional operand names the spill slot; it is carried in Imm,
		// not Uses, so it does not extend the spilled value's live range.
		ins.imm = -1
		if rest != "" {
			if !isIdent(rest) {
				return fmt.Errorf("ir: bad reload slot %q", rest)
			}
			ins.imm = int64(p.value(rest))
		}
	case "phi":
		ins.op = OpPhi
		if ins.uses, err = p.phiOperands(rest); err != nil {
			return err
		}
	case "br":
		ins.op = OpBranch
		if !isIdent(rest) {
			return fmt.Errorf("ir: bad branch target %q", rest)
		}
		p.branches = append(p.branches, fixup{
			block: p.cur, instr: len(p.instrs), labels: span{len(p.labels), 1},
		})
		p.labels = append(p.labels, rest)
	case "condbr":
		ins.op = OpCondBr
		if countList(rest) != 3 {
			return fmt.Errorf("ir: condbr needs cond and two targets, got %q", rest)
		}
		cond, targets, _ := strings.Cut(rest, ",")
		if cond = strings.TrimSpace(cond); !isIdent(cond) {
			return fmt.Errorf("ir: bad condbr condition %q", cond)
		}
		ins.uses = span{len(p.ints), 1}
		p.ints = append(p.ints, p.value(cond))
		then, els, _ := strings.Cut(targets, ",")
		p.branches = append(p.branches, fixup{
			block: p.cur, instr: len(p.instrs), labels: span{len(p.labels), 2},
		})
		p.labels = append(p.labels, strings.TrimSpace(then), strings.TrimSpace(els))
	default:
		return fmt.Errorf("ir: unknown opcode %q", op)
	}
	if ins.op.HasDef() {
		if defName == "" {
			return fmt.Errorf("ir: %s requires a result value", op)
		}
		if !isIdent(defName) {
			return fmt.Errorf("ir: bad result name %q", defName)
		}
		ins.def = p.value(defName)
	} else if defName != "" {
		return fmt.Errorf("ir: %s does not produce a value", op)
	}
	if annots != "" {
		if err := p.annotations(&ins, annots); err != nil {
			return err
		}
	}
	p.instrs = append(p.instrs, ins)
	return nil
}

// annotations applies the trailing !-attributes of one instruction: a def
// class, a def pre-color, or a call clobber set.
func (p *parser) annotations(ins *pinstr, s string) error {
	f := p.f
	setClass := func(c Class, explicitPin bool) error {
		if !ins.op.HasDef() || ins.def == NoValue {
			return fmt.Errorf("ir: class/pin annotation on %s, which defines no value", ins.op)
		}
		have, ok := f.ValueClass[ins.def]
		if ok && have != c {
			return fmt.Errorf("ir: value %s annotated with conflicting classes %s and %s",
				p.names[ins.def], have, c)
		}
		if c != ClassGPR {
			f.SetClass(ins.def, c)
		} else if explicitPin && ok && have != ClassGPR {
			// An explicit GPR pin must still clash with a previous !fp.
			return fmt.Errorf("ir: value %s annotated with conflicting classes %s and %s",
				p.names[ins.def], have, ClassGPR)
		}
		return nil
	}
	for tok, rest := cutField(s); tok != ""; tok, rest = cutField(rest) {
		if tok[0] != '!' {
			return fmt.Errorf("ir: bad annotation %q", tok)
		}
		switch {
		case tok == "!gpr":
			if err := setClass(ClassGPR, true); err != nil {
				return err
			}
		case tok == "!fp":
			if err := setClass(ClassFP, false); err != nil {
				return err
			}
		case strings.HasPrefix(tok, "!pin="):
			ref, ok := ParseRegName(tok[len("!pin="):])
			if !ok {
				return fmt.Errorf("ir: bad pre-color register in %q", tok)
			}
			if err := setClass(RegClassOf(ref), RegClassOf(ref) == ClassGPR); err != nil {
				return err
			}
			if have, ok := f.PreColor[ins.def]; ok && have != ref {
				return fmt.Errorf("ir: value %s pinned to both %s and %s",
					p.names[ins.def], RegName(have), RegName(ref))
			}
			f.SetPreColor(ins.def, ref)
		case strings.HasPrefix(tok, "!clobbers="):
			if ins.op != OpCall {
				return fmt.Errorf("ir: clobber annotation on %s (calls only)", ins.op)
			}
			if ins.clobbers.n >= 0 {
				return fmt.Errorf("ir: duplicate clobber annotation")
			}
			off := len(p.ints)
			for list, more := tok[len("!clobbers="):], true; more; {
				var name string
				name, list, more = strings.Cut(list, ",")
				ref, ok := ParseRegName(name)
				if !ok {
					return fmt.Errorf("ir: bad clobber register %q", name)
				}
				p.ints = append(p.ints, ref)
			}
			refs := p.ints[off:]
			slices.Sort(refs)
			refs = slices.Compact(refs)
			p.ints = p.ints[:off+len(refs)]
			ins.clobbers = span{off, len(refs)}
		default:
			return fmt.Errorf("ir: unknown annotation %q", tok)
		}
	}
	return nil
}

// value returns the ID of the value named name, numbering names in order of
// first appearance.
func (p *parser) value(name string) int {
	if id, ok := p.valueIDs[name]; ok {
		return id
	}
	id := len(p.names)
	p.valueIDs[name] = id
	p.names = append(p.names, name)
	return id
}

// operands reads the comma-separated value names of s into p.ints: exactly
// want of them, or any number when want < 0.
func (p *parser) operands(s string, want int) (span, error) {
	n := countList(s)
	if want >= 0 && n != want {
		return span{}, fmt.Errorf("ir: expected %d operands, got %q", want, s)
	}
	off := len(p.ints)
	for range n {
		var name string
		name, s, _ = strings.Cut(s, ",")
		if name = strings.TrimSpace(name); !isIdent(name) {
			return span{}, fmt.Errorf("ir: bad operand %q", name)
		}
		p.ints = append(p.ints, p.value(name))
	}
	return span{off, n}, nil
}

// phiOperands reads "[b1: x], [b2: y]": the values into p.ints, returned
// in text order, and the predecessor labels into p.labels, recorded as the
// phi's fixup. A phi's operand list is never nil, even when it is empty.
func (p *parser) phiOperands(s string) (span, error) {
	n := countList(s)
	uses, labels := span{len(p.ints), n}, span{len(p.labels), n}
	for range n {
		var part string
		part, s, _ = strings.Cut(s, ",")
		part = strings.TrimSpace(part)
		if !strings.HasPrefix(part, "[") || !strings.HasSuffix(part, "]") {
			return span{}, fmt.Errorf("ir: bad phi operand %q", part)
		}
		label, val, ok := strings.Cut(part[1:len(part)-1], ":")
		if !ok {
			return span{}, fmt.Errorf("ir: bad phi operand %q", part)
		}
		label = strings.TrimSpace(label)
		val = strings.TrimSpace(val)
		if !isIdent(label) || !isIdent(val) {
			return span{}, fmt.Errorf("ir: bad phi operand %q", part)
		}
		p.labels = append(p.labels, label)
		p.ints = append(p.ints, p.value(val))
	}
	p.phis = append(p.phis, fixup{block: p.cur, instr: len(p.instrs), labels: labels})
	return uses, nil
}

// countList returns the number of comma-separated items in s: none when s
// is blank.
func countList(s string) int {
	if strings.TrimSpace(s) == "" {
		return 0
	}
	return strings.Count(s, ",") + 1
}

// cutField returns the first field of s and the text after it, with fields
// separated by white space as strings.Fields separates them.
func cutField(s string) (field, rest string) {
	s = strings.TrimLeftFunc(s, unicode.IsSpace)
	if i := strings.IndexFunc(s, unicode.IsSpace); i >= 0 {
		return s[:i], s[i:]
	}
	return s, ""
}

// list returns the ints of s; nil for a nil or empty span.
func (p *parser) list(s span) []int {
	if s.n <= 0 {
		return nil
	}
	return p.ints[s.off : s.off+s.n]
}

// terminator returns block b's final instruction if it is a terminator.
func (p *parser) terminator(b int) *pinstr {
	end := len(p.instrs)
	if b+1 < len(p.blocks) {
		end = p.blocks[b+1].first
	}
	if end == p.blocks[b].first || !p.instrs[end-1].op.IsTerminator() {
		return nil
	}
	return &p.instrs[end-1]
}

// resolve patches branch targets, builds the predecessor lists (CFG edges
// in terminator order), and reorders phi operands to match predecessor
// order.
func (p *parser) resolve() error {
	for _, fx := range p.branches {
		off := len(p.ints)
		for _, label := range p.labels[fx.labels.off : fx.labels.off+fx.labels.n] {
			id, ok := p.blockIDs[label]
			if !ok {
				return fmt.Errorf("ir: undefined block %q", label)
			}
			p.ints = append(p.ints, id)
		}
		p.instrs[fx.instr].targets = span{off, fx.labels.n}
	}
	nb := len(p.blocks)
	p.predOff = grow(p.predOff, nb+1)
	clear(p.predOff)
	for b := range nb {
		if t := p.terminator(b); t != nil {
			for _, tgt := range p.list(t.targets) {
				p.predOff[tgt+1]++
			}
		}
	}
	for b := range nb {
		p.predOff[b+1] += p.predOff[b]
	}
	// Fill each list through predOff[tgt] as a cursor, which leaves it at
	// the start of the next list; shifting restores the offsets.
	p.preds = grow(p.preds, p.predOff[nb])
	for b := range nb {
		if t := p.terminator(b); t != nil {
			for _, tgt := range p.list(t.targets) {
				p.preds[p.predOff[tgt]] = b
				p.predOff[tgt]++
			}
		}
	}
	copy(p.predOff[1:], p.predOff[:nb])
	p.predOff[0] = 0
	for _, fx := range p.phis {
		preds := p.preds[p.predOff[fx.block]:p.predOff[fx.block+1]]
		name := p.blocks[fx.block].name
		if fx.labels.n != len(preds) {
			return fmt.Errorf("ir: phi in %s has %d operands for %d predecessors",
				name, fx.labels.n, len(preds))
		}
		p.order = grow(p.order, len(preds))
		p.seen = grow(p.seen, len(preds))
		clear(p.seen)
		uses := p.list(p.instrs[fx.instr].uses)
		for k, label := range p.labels[fx.labels.off : fx.labels.off+fx.labels.n] {
			id, ok := p.blockIDs[label]
			if !ok {
				return fmt.Errorf("ir: phi references undefined block %q", label)
			}
			slot := -1
			for j, pred := range preds {
				if pred == id && !p.seen[j] {
					slot = j
					break
				}
			}
			if slot < 0 {
				return fmt.Errorf("ir: phi in %s names non-predecessor %q", name, label)
			}
			p.seen[slot] = true
			p.order[slot] = uses[k]
		}
		copy(uses, p.order)
	}
	return nil
}

// build carves the parsed function into f: one Block slab, one Instr slab
// and one exact-size int slab for every use, target, clobber, predecessor
// and successor list, laid out as Func.Clone lays them out.
func (p *parser) build() *Func {
	f := p.f
	nb, ni := len(p.blocks), len(p.instrs)
	total := 2 * len(p.preds) // each CFG edge is one predecessor and one successor
	for i := range p.instrs {
		in := &p.instrs[i]
		total += max(in.uses.n, 0) + max(in.targets.n, 0) + max(in.clobbers.n, 0)
	}
	slab := make([]int, 0, total)
	carve := func(s []int, keep bool) []int {
		if !keep {
			return nil
		}
		start := len(slab)
		slab = append(slab, s...)
		return slab[start:len(slab):len(slab)]
	}
	blocks := make([]Block, nb)
	instrs := make([]Instr, ni)
	f.Blocks = make([]*Block, nb)
	for b := range blocks {
		pb := &p.blocks[b]
		preds := p.preds[p.predOff[b]:p.predOff[b+1]]
		blk := &blocks[b]
		blk.ID, blk.Name = b, pb.name
		blk.Preds = carve(preds, len(preds) > 0)
		if t := p.terminator(b); t != nil {
			blk.Succs = carve(p.list(t.targets), t.targets.n > 0)
		}
		end := ni
		if b+1 < nb {
			end = p.blocks[b+1].first
		}
		for i := pb.first; i < end; i++ {
			in := &p.instrs[i]
			instrs[i] = Instr{
				Op:       in.op,
				Def:      in.def,
				Imm:      in.imm,
				Uses:     carve(p.ints[in.uses.off:in.uses.off+max(in.uses.n, 0)], in.uses.n >= 0),
				Targets:  carve(p.list(in.targets), in.targets.n >= 0),
				Clobbers: carve(p.list(in.clobbers), in.clobbers.n >= 0),
			}
		}
		if end > pb.first {
			blk.Instrs = instrs[pb.first:end:end]
		}
		f.Blocks[b] = blk
	}
	f.NumValues = len(p.names)
	f.ValueName = make(map[int]string, len(p.names))
	for id, name := range p.names {
		f.ValueName[id] = name
	}
	return f
}

func isIdent(s string) bool {
	if s == "" {
		return false
	}
	for i, r := range s {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r == '_', r == '.':
		case r >= '0' && r <= '9':
			if i == 0 {
				return false
			}
		default:
			return false
		}
	}
	return true
}
