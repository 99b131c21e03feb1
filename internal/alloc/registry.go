// Allocator registry: the single name → implementation table behind
// core.AllocatorByName, the pipeline's Config.Allocator, the cmd front-ends'
// -alloc flags and the public regalloc.Register/Allocators API. Factories
// rather than instances are registered because allocator implementations
// keep per-run scratch (and the exact solver records its last bound), so
// every worker resolves a private instance.
package alloc

import (
	"fmt"
	"sort"
	"strings"
	"sync"

	"repro/internal/raerr"
)

type registryEntry struct {
	name        string // canonical spelling, as registered
	chordalOnly bool
	factory     func() Allocator
}

var registry = struct {
	sync.RWMutex
	byKey  map[string]registryEntry // key = lower-cased name
	byName map[string]registryEntry // key = canonical spelling
}{byKey: make(map[string]registryEntry), byName: make(map[string]registryEntry)}

// RegisterAllocator adds a named allocator factory to the registry. Names
// are case-insensitive ("bfpl" resolves BFPL); the canonical spelling is
// whatever was registered. chordalOnly marks allocators that require a
// chordal (strict-SSA) instance — the pipeline rejects them on non-chordal
// inputs with a typed raerr.ErrNotSSA instead of letting them panic.
// Registering an empty name, a nil factory, or a name that is already taken
// (in any casing) fails with raerr.ErrInvalidConfig.
func RegisterAllocator(name string, chordalOnly bool, factory func() Allocator) error {
	if name == "" {
		return fmt.Errorf("%w: empty allocator name", raerr.ErrInvalidConfig)
	}
	if factory == nil {
		return fmt.Errorf("%w: nil factory for allocator %q", raerr.ErrInvalidConfig, name)
	}
	key := strings.ToLower(name)
	registry.Lock()
	defer registry.Unlock()
	if prev, dup := registry.byKey[key]; dup {
		return fmt.Errorf("%w: allocator %q already registered (as %q)",
			raerr.ErrInvalidConfig, name, prev.name)
	}
	e := registryEntry{name: name, chordalOnly: chordalOnly, factory: factory}
	registry.byKey[key], registry.byName[name] = e, e
	return nil
}

// MustRegisterAllocator is RegisterAllocator, panicking on error (built-in
// registration at init time).
func MustRegisterAllocator(name string, chordalOnly bool, factory func() Allocator) {
	if err := RegisterAllocator(name, chordalOnly, factory); err != nil {
		panic(err)
	}
}

// NewByName resolves a registered allocator name (case-insensitive) to a
// fresh private instance. Unknown names fail with raerr.ErrUnknownAllocator.
func NewByName(name string) (Allocator, error) {
	registry.RLock()
	e, ok := registry.byKey[strings.ToLower(name)]
	registry.RUnlock()
	if !ok {
		return nil, fmt.Errorf("%w: %q (registered: %s)",
			raerr.ErrUnknownAllocator, name, strings.Join(RegisteredNames(), ", "))
	}
	return e.factory(), nil
}

// RegisteredNames lists the canonical registered allocator names, sorted —
// a deterministic listing for -alloc help and error messages.
func RegisteredNames() []string {
	registry.RLock()
	names := make([]string, 0, len(registry.byKey))
	for _, e := range registry.byKey {
		names = append(names, e.name)
	}
	registry.RUnlock()
	sort.Strings(names)
	return names
}

// ChordalOnly reports whether the named allocator was registered as
// requiring a chordal instance. Unknown names report false. The lookup is by
// the allocator's Name(), so it also covers instances carried in a
// core.Config rather than resolved by name.
func ChordalOnly(name string) bool {
	registry.RLock()
	// Registered allocators report their canonical spelling, which the
	// driver's per-function check finds without lower-casing (allocating)
	// the name.
	e, ok := registry.byName[name]
	if !ok {
		e, ok = registry.byKey[strings.ToLower(name)]
	}
	registry.RUnlock()
	return ok && e.chordalOnly
}
