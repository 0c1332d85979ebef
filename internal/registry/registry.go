// Package registry is the one named-registry implementation behind the
// module's plug-in points: predictors, fabrics, placement policies and
// schedulers each keep a Registry of their own implementation type, with a
// default name the empty string resolves to. internal/registrytest pins the
// contract they share.
package registry

import (
	"fmt"
	"maps"
	"reflect"
	"slices"
	"strings"
	"sync"
)

// Registry maps names to implementations of one kind. It is safe for
// concurrent use; registration normally happens from init functions.
type Registry[T any] struct {
	pkg  string // prefix of panics and lookup errors: the owning package
	kind string // the noun unknown-name errors use, e.g. "fabric"
	def  string // the name the empty string resolves to

	mu sync.RWMutex
	m  map[string]T
}

// New returns an empty registry for the owning package pkg, whose entries
// are called kind, resolving the empty name to def.
func New[T any](pkg, kind, def string) *Registry[T] {
	return &Registry[T]{pkg: pkg, kind: kind, def: def, m: make(map[string]T)}
}

// Register adds v under name. It panics on an empty name, a nil function
// (every registry holds constructors or policies), or a duplicate
// registration: registry collisions are programmer errors and
// must fail loudly at init time, not resolve silently to whichever init ran
// last.
func (r *Registry[T]) Register(name string, v T) {
	if name == "" {
		panic(r.pkg + ": Register with empty name")
	}
	if rv := reflect.ValueOf(&v).Elem(); rv.Kind() == reflect.Func && rv.IsNil() {
		panic(r.pkg + ": Register with nil " + r.kind + " for " + name)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, dup := r.m[name]; dup {
		panic(r.pkg + ": duplicate registration of " + name)
	}
	r.m[name] = v
}

// Names returns the registered names, sorted.
func (r *Registry[T]) Names() []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return slices.Sorted(maps.Keys(r.m))
}

// Check returns a descriptive error naming the whole registry when name
// does not resolve (the empty name resolves to the default), so a typo'd
// flag tells the user what would have worked.
func (r *Registry[T]) Check(name string) error {
	_, err := r.lookup(name)
	return err
}

// Get returns the implementation registered under name; the empty name
// selects the default. The error of an unknown name carries the owning
// package's prefix.
func (r *Registry[T]) Get(name string) (T, error) {
	v, err := r.lookup(name)
	if err != nil {
		return v, fmt.Errorf("%s: %w", r.pkg, err)
	}
	return v, nil
}

func (r *Registry[T]) lookup(name string) (T, error) {
	if name == "" {
		name = r.def
	}
	r.mu.RLock()
	v, ok := r.m[name]
	r.mu.RUnlock()
	if !ok {
		return v, fmt.Errorf("unknown %s %q (registered: %s)", r.kind, name, strings.Join(r.Names(), ", "))
	}
	return v, nil
}
