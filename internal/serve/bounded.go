package serve

import "sync"

// maxWireKeys bounds every table keyed by a string a client chooses
// (model path, topology name): without a bound one client could grow
// server state — and /stats rows and metric series — without limit.
// Keys past the bound share the overflowKey slot.
const maxWireKeys, overflowKey = 64, "other"

// wireKeyed is a lazily filled table under that rule. Goroutine-safe;
// the zero value is ready to use.
type wireKeyed[V any] struct {
	mu sync.Mutex
	m  map[string]V
}

// get returns key's slot, building it with mk on first use. mk receives
// the key the slot is stored under (overflowKey past the bound).
func (w *wireKeyed[V]) get(key string, mk func(key string) V) V {
	w.mu.Lock()
	defer w.mu.Unlock()
	if v, ok := w.m[key]; ok {
		return v
	}
	if len(w.m) >= maxWireKeys {
		key = overflowKey
		if v, ok := w.m[key]; ok {
			return v
		}
	}
	if w.m == nil {
		w.m = make(map[string]V)
	}
	//dqnlint:allow locksafe mk is one of this package's two slot constructors, not a user callback; building under the lock is what makes a slot exist once
	v := mk(key)
	w.m[key] = v
	return v
}

// lookup returns the slot get would return for key without building
// one; ok is false when neither key nor the overflow slot exists.
func (w *wireKeyed[V]) lookup(key string) (v V, ok bool) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if v, ok = w.m[key]; !ok {
		v, ok = w.m[overflowKey]
	}
	return v, ok
}

// values snapshots every slot, in no particular order.
func (w *wireKeyed[V]) values() []V {
	w.mu.Lock()
	defer w.mu.Unlock()
	vs := make([]V, 0, len(w.m))
	for _, v := range w.m {
		vs = append(vs, v)
	}
	return vs
}
