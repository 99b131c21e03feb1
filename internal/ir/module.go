package ir

import (
	"fmt"
	"strings"
)

// Module is a compilation unit: an ordered sequence of functions sharing one
// textual source. It is the unit the batch pipeline (internal/pipeline)
// fans out over; function order is significant and preserved by parse/print.
type Module struct {
	Funcs []*Func
}

// ParseModule reads a module in the textual format produced by
// Module.String: a sequence of func blocks (each in the single-function
// format accepted by Parse), separated by blank lines or comments. A source
// holding exactly one function is a valid one-function module, so every
// single-function .ir file is also a module file. Each function is parsed
// and validated once, in place in src; the module check then only looks at
// the function names.
func ParseModule(src string) (*Module, error) {
	p := parsers.Get().(*parser)
	m, err := p.parseModule(src)
	p.reset()
	parsers.Put(p)
	return m, err
}

// parseModule is ParseModule on the parser's memory.
func (p *parser) parseModule(src string) (*Module, error) {
	m := &Module{}
	chunkStart, chunkOff := 0, 0
	inFunc := false
	for lineNo, off := 0, 0; ; lineNo++ {
		raw, _, more := strings.Cut(src[off:], "\n")
		line := raw
		if i := strings.IndexByte(line, ';'); i >= 0 {
			line = line[:i]
		}
		line = strings.TrimSpace(line)
		switch {
		case inFunc:
			if line == "}" {
				f, err := p.parse(src[chunkOff : off+len(raw)])
				p.reset()
				if err != nil {
					return nil, fmt.Errorf("ir: module func #%d (lines %d-%d): %w",
						len(m.Funcs)+1, chunkStart+1, lineNo+1, err)
				}
				m.Funcs = append(m.Funcs, f)
				inFunc = false
			}
		case strings.HasPrefix(line, "func "):
			inFunc = true
			chunkStart, chunkOff = lineNo, off
		case line == "":
			// Blank lines and comments between functions.
		default:
			return nil, fmt.Errorf("ir: line %d: %q outside any function", lineNo+1, line)
		}
		if !more {
			break
		}
		off += len(raw) + 1
	}
	if inFunc {
		return nil, fmt.Errorf("ir: module func #%d (line %d): missing closing brace",
			len(m.Funcs)+1, chunkStart+1)
	}
	if err := m.check(false); err != nil {
		return nil, err
	}
	return m, nil
}

// MustParseModule is ParseModule that panics on error, for tests and
// examples with literal sources.
func MustParseModule(src string) *Module {
	m, err := ParseModule(src)
	if err != nil {
		panic(err)
	}
	return m
}

// String renders the module in the format accepted by ParseModule: the
// functions in order, separated by one blank line. print∘parse is a
// fixpoint, as for single functions.
func (m *Module) String() string {
	var b strings.Builder
	for i, f := range m.Funcs {
		if i > 0 {
			b.WriteByte('\n')
		}
		b.WriteString(f.String())
	}
	return b.String()
}

// Validate checks every function and that function names are unique within
// the module (the batch front-end addresses results by name).
func (m *Module) Validate() error { return m.check(true) }

// check reports the first empty or repeated function name and, with
// funcs, the first invalid function, in module order.
func (m *Module) check(funcs bool) error {
	if len(m.Funcs) == 0 {
		return fmt.Errorf("ir: module has no functions")
	}
	seen := make(map[string]bool, len(m.Funcs))
	for i, f := range m.Funcs {
		if f.Name == "" {
			return fmt.Errorf("ir: module func #%d has no name", i+1)
		}
		if seen[f.Name] {
			return fmt.Errorf("ir: duplicate function %q in module", f.Name)
		}
		seen[f.Name] = true
		if !funcs {
			continue
		}
		if err := f.Validate(); err != nil {
			return fmt.Errorf("ir: module func %s: %w", f.Name, err)
		}
	}
	return nil
}

// FuncByName returns the function named name, or nil.
func (m *Module) FuncByName(name string) *Func {
	for _, f := range m.Funcs {
		if f.Name == name {
			return f
		}
	}
	return nil
}
