package ir

// This file keeps the line-at-a-time parser that Parse and ParseModule
// replaced, as the differential oracle of parse_test.go: the
// production parser must return a deep-equal Func, the same value
// numbering and the same error text on every input.

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
)

// oracleParse is the reference Parse.
func oracleParse(src string) (*Func, error) {
	p := &oracleParser{
		f:         &Func{ValueName: make(map[int]string)},
		valueIDs:  make(map[string]int),
		blockIDs:  make(map[string]int),
		phiFixups: nil,
	}
	lines := strings.Split(src, "\n")
	for lineNo, raw := range lines {
		line := raw
		if i := strings.IndexByte(line, ';'); i >= 0 {
			line = line[:i]
		}
		line = strings.TrimSpace(line)
		if line == "" {
			continue
		}
		if err := p.line(line); err != nil {
			return nil, fmt.Errorf("line %d: %w", lineNo+1, err)
		}
	}
	if !p.closed {
		return nil, fmt.Errorf("ir: missing closing brace")
	}
	if err := p.resolve(); err != nil {
		return nil, err
	}
	if err := p.f.Validate(); err != nil {
		return nil, err
	}
	return p.f, nil
}

type oracleParser struct {
	f        *Func
	cur      *Block
	valueIDs map[string]int
	blockIDs map[string]int
	closed   bool
	started  bool
	// Branch targets and phi predecessor labels are resolved after all
	// blocks are known.
	branchFixups []oracleBranchFixup
	phiFixups    []oraclePhiFixup
}

type oracleBranchFixup struct {
	block, instr int
	labels       []string
}

type oraclePhiFixup struct {
	block, instr int
	predLabels   []string
}

func (p *oracleParser) line(line string) error {
	switch {
	case strings.HasPrefix(line, "func "):
		if p.started {
			return fmt.Errorf("ir: duplicate func header")
		}
		p.started = true
		rest := strings.TrimSuffix(strings.TrimSpace(strings.TrimPrefix(line, "func ")), "{")
		fields := strings.Fields(rest)
		if len(fields) == 0 {
			return fmt.Errorf("ir: func header missing name")
		}
		p.f.Name = fields[0]
		for _, fl := range fields[1:] {
			if fl == "ssa" {
				p.f.SSA = true
			} else {
				return fmt.Errorf("ir: unknown func attribute %q", fl)
			}
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
		p.cur = p.f.AddBlock(name)
		p.blockIDs[name] = p.cur.ID
		return nil
	default:
		if p.cur == nil {
			return fmt.Errorf("ir: instruction before first block label")
		}
		return p.instr(line)
	}
}

func (p *oracleParser) instr(line string) error {
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
	if eq := strings.Index(line, "="); eq >= 0 && !strings.Contains(line[:eq], "[") {
		defName = strings.TrimSpace(line[:eq])
		line = strings.TrimSpace(line[eq+1:])
	}
	op, rest, _ := strings.Cut(line, " ")
	rest = strings.TrimSpace(rest)
	ins := Instr{Def: NoValue}
	var err error
	switch op {
	case "const", "param":
		ins.Op = OpConst
		if op == "param" {
			ins.Op = OpParam
		}
		ins.Imm, err = strconv.ParseInt(rest, 10, 64)
		if err != nil {
			return fmt.Errorf("ir: bad %s immediate %q", op, rest)
		}
	case "arith":
		ins.Op = OpArith
		if ins.Uses, err = p.valueList(rest, 2); err != nil {
			return err
		}
	case "unary", "copy", "load":
		switch op {
		case "unary":
			ins.Op = OpUnary
		case "copy":
			ins.Op = OpCopy
		default:
			ins.Op = OpLoad
		}
		if ins.Uses, err = p.valueList(rest, 1); err != nil {
			return err
		}
	case "call":
		ins.Op = OpCall
		if rest != "" {
			if ins.Uses, err = p.valueList(rest, -1); err != nil {
				return err
			}
		}
	case "reload":
		ins.Op = OpReload
		// The optional operand names the spill slot; it is carried in Imm,
		// not Uses, so it does not extend the spilled value's live range.
		ins.Imm = -1
		if rest != "" {
			if !isIdent(rest) {
				return fmt.Errorf("ir: bad reload slot %q", rest)
			}
			ins.Imm = int64(p.value(rest))
		}
	case "store":
		ins.Op = OpStore
		if ins.Uses, err = p.valueList(rest, 2); err != nil {
			return err
		}
	case "spill":
		ins.Op = OpSpill
		if ins.Uses, err = p.valueList(rest, 1); err != nil {
			return err
		}
	case "phi":
		ins.Op = OpPhi
		preds, uses, err := p.phiOperands(rest)
		if err != nil {
			return err
		}
		ins.Uses = uses
		p.phiFixups = append(p.phiFixups, oraclePhiFixup{
			block: p.cur.ID, instr: len(p.cur.Instrs), predLabels: preds,
		})
	case "br":
		ins.Op = OpBranch
		if !isIdent(rest) {
			return fmt.Errorf("ir: bad branch target %q", rest)
		}
		p.branchFixups = append(p.branchFixups, oracleBranchFixup{
			block: p.cur.ID, instr: len(p.cur.Instrs), labels: []string{rest},
		})
	case "condbr":
		ins.Op = OpCondBr
		parts := splitComma(rest)
		if len(parts) != 3 {
			return fmt.Errorf("ir: condbr needs cond and two targets, got %q", rest)
		}
		if !isIdent(parts[0]) {
			return fmt.Errorf("ir: bad condbr condition %q", parts[0])
		}
		ins.Uses = []int{p.value(parts[0])}
		p.branchFixups = append(p.branchFixups, oracleBranchFixup{
			block: p.cur.ID, instr: len(p.cur.Instrs), labels: parts[1:],
		})
	case "ret":
		ins.Op = OpReturn
		if rest != "" {
			if ins.Uses, err = p.valueList(rest, 1); err != nil {
				return err
			}
		}
	default:
		return fmt.Errorf("ir: unknown opcode %q", op)
	}
	if ins.Op.HasDef() {
		if defName == "" {
			return fmt.Errorf("ir: %s requires a result value", op)
		}
		if !isIdent(defName) {
			return fmt.Errorf("ir: bad result name %q", defName)
		}
		ins.Def = p.value(defName)
	} else if defName != "" {
		return fmt.Errorf("ir: %s does not produce a value", op)
	}
	if annots != "" {
		if err := p.annotations(&ins, annots); err != nil {
			return err
		}
	}
	p.cur.Instrs = append(p.cur.Instrs, ins)
	return nil
}

// annotations applies the trailing !-attributes of one instruction: a def
// class, a def pre-color, or a call clobber set.
func (p *oracleParser) annotations(ins *Instr, s string) error {
	setClass := func(c Class, explicitPin bool) error {
		if !ins.Op.HasDef() || ins.Def == NoValue {
			return fmt.Errorf("ir: class/pin annotation on %s, which defines no value", ins.Op)
		}
		if have, ok := p.f.ValueClass[ins.Def]; ok && have != c {
			return fmt.Errorf("ir: value %s annotated with conflicting classes %s and %s",
				p.f.NameOf(ins.Def), have, c)
		}
		if c != ClassGPR {
			p.f.SetClass(ins.Def, c)
		} else if explicitPin {
			// An explicit GPR pin must still clash with a previous !fp.
			if have, ok := p.f.ValueClass[ins.Def]; ok && have != ClassGPR {
				return fmt.Errorf("ir: value %s annotated with conflicting classes %s and %s",
					p.f.NameOf(ins.Def), have, ClassGPR)
			}
		}
		return nil
	}
	for _, tok := range strings.Fields(s) {
		if !strings.HasPrefix(tok, "!") {
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
			if have, ok := p.f.PreColor[ins.Def]; ok && have != ref {
				return fmt.Errorf("ir: value %s pinned to both %s and %s",
					p.f.NameOf(ins.Def), RegName(have), RegName(ref))
			}
			p.f.SetPreColor(ins.Def, ref)
		case strings.HasPrefix(tok, "!clobbers="):
			if ins.Op != OpCall {
				return fmt.Errorf("ir: clobber annotation on %s (calls only)", ins.Op)
			}
			if ins.Clobbers != nil {
				return fmt.Errorf("ir: duplicate clobber annotation")
			}
			var refs []int
			for _, name := range strings.Split(tok[len("!clobbers="):], ",") {
				ref, ok := ParseRegName(name)
				if !ok {
					return fmt.Errorf("ir: bad clobber register %q", name)
				}
				refs = append(refs, ref)
			}
			if len(refs) == 0 {
				return fmt.Errorf("ir: empty clobber annotation")
			}
			sort.Ints(refs)
			uniq := refs[:1]
			for _, r := range refs[1:] {
				if r != uniq[len(uniq)-1] {
					uniq = append(uniq, r)
				}
			}
			ins.Clobbers = uniq
		default:
			return fmt.Errorf("ir: unknown annotation %q", tok)
		}
	}
	return nil
}

func (p *oracleParser) value(name string) int {
	if !isIdent(name) {
		// Let validation surface it; allocate anyway to keep parsing going.
		name = "!" + name
	}
	if id, ok := p.valueIDs[name]; ok {
		return id
	}
	id := p.f.NewValue()
	p.valueIDs[name] = id
	p.f.ValueName[id] = name
	return id
}

func (p *oracleParser) valueList(s string, want int) ([]int, error) {
	parts := splitComma(s)
	if want >= 0 && len(parts) != want {
		return nil, fmt.Errorf("ir: expected %d operands, got %q", want, s)
	}
	out := make([]int, len(parts))
	for i, name := range parts {
		if !isIdent(name) {
			return nil, fmt.Errorf("ir: bad operand %q", name)
		}
		out[i] = p.value(name)
	}
	return out, nil
}

// phiOperands parses "[b1: x], [b2: y]" into predecessor labels and values.
func (p *oracleParser) phiOperands(s string) (preds []string, uses []int, err error) {
	for _, part := range splitComma(s) {
		part = strings.TrimSpace(part)
		if !strings.HasPrefix(part, "[") || !strings.HasSuffix(part, "]") {
			return nil, nil, fmt.Errorf("ir: bad phi operand %q", part)
		}
		inner := part[1 : len(part)-1]
		label, val, ok := strings.Cut(inner, ":")
		if !ok {
			return nil, nil, fmt.Errorf("ir: bad phi operand %q", part)
		}
		label = strings.TrimSpace(label)
		val = strings.TrimSpace(val)
		if !isIdent(label) || !isIdent(val) {
			return nil, nil, fmt.Errorf("ir: bad phi operand %q", part)
		}
		preds = append(preds, label)
		uses = append(uses, p.value(val))
	}
	return preds, uses, nil
}

// resolve patches branch targets, builds CFG edges, and reorders phi
// operands to match predecessor order.
func (p *oracleParser) resolve() error {
	for _, fx := range p.branchFixups {
		ins := &p.f.Blocks[fx.block].Instrs[fx.instr]
		for _, label := range fx.labels {
			id, ok := p.blockIDs[label]
			if !ok {
				return fmt.Errorf("ir: undefined block %q", label)
			}
			ins.Targets = append(ins.Targets, id)
		}
	}
	// CFG edges in terminator order.
	for _, b := range p.f.Blocks {
		if t := b.Terminator(); t != nil {
			for _, tgt := range t.Targets {
				p.f.AddEdge(b.ID, tgt)
			}
		}
	}
	for _, fx := range p.phiFixups {
		blk := p.f.Blocks[fx.block]
		ins := &blk.Instrs[fx.instr]
		if len(fx.predLabels) != len(blk.Preds) {
			return fmt.Errorf("ir: phi in %s has %d operands for %d predecessors",
				blk.Name, len(fx.predLabels), len(blk.Preds))
		}
		ordered := make([]int, len(blk.Preds))
		seen := make([]bool, len(blk.Preds))
		for k, label := range fx.predLabels {
			id, ok := p.blockIDs[label]
			if !ok {
				return fmt.Errorf("ir: phi references undefined block %q", label)
			}
			slot := -1
			for j, pred := range blk.Preds {
				if pred == id && !seen[j] {
					slot = j
					break
				}
			}
			if slot < 0 {
				return fmt.Errorf("ir: phi in %s names non-predecessor %q", blk.Name, label)
			}
			seen[slot] = true
			ordered[slot] = ins.Uses[k]
		}
		ins.Uses = ordered
	}
	return nil
}

func splitComma(s string) []string {
	if strings.TrimSpace(s) == "" {
		return nil
	}
	parts := strings.Split(s, ",")
	for i := range parts {
		parts[i] = strings.TrimSpace(parts[i])
	}
	return parts
}

// oracleParseModule is the reference ParseModule: it joins each function's
// lines into a new source, parses it with oracleParse and validates the
// whole module again.
func oracleParseModule(src string) (*Module, error) {
	m := &Module{}
	lines := strings.Split(src, "\n")
	var chunk []string
	chunkStart := 0
	inFunc := false
	flush := func(end int) error {
		f, err := oracleParse(strings.Join(chunk, "\n"))
		if err != nil {
			return fmt.Errorf("ir: module func #%d (lines %d-%d): %w",
				len(m.Funcs)+1, chunkStart+1, end+1, err)
		}
		m.Funcs = append(m.Funcs, f)
		chunk = chunk[:0]
		return nil
	}
	for lineNo, raw := range lines {
		line := raw
		if i := strings.IndexByte(line, ';'); i >= 0 {
			line = line[:i]
		}
		line = strings.TrimSpace(line)
		switch {
		case inFunc:
			chunk = append(chunk, raw)
			if line == "}" {
				if err := flush(lineNo); err != nil {
					return nil, err
				}
				inFunc = false
			}
		case strings.HasPrefix(line, "func "):
			inFunc = true
			chunkStart = lineNo
			chunk = append(chunk, raw)
		case line == "":
			// Blank lines and comments between functions.
		default:
			return nil, fmt.Errorf("ir: line %d: %q outside any function", lineNo+1, line)
		}
	}
	if inFunc {
		return nil, fmt.Errorf("ir: module func #%d (line %d): missing closing brace",
			len(m.Funcs)+1, chunkStart+1)
	}
	if len(m.Funcs) == 0 {
		return nil, fmt.Errorf("ir: module has no functions")
	}
	if err := m.Validate(); err != nil {
		return nil, err
	}
	return m, nil
}
