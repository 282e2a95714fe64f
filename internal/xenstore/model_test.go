package xenstore

import (
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"xvtpm/internal/xen"
)

// refStore is the reference the copy-on-write store is checked against: the
// same semantics written the plain way. A transaction deep-clones the whole
// tree when it starts, and live owned-node counts come from walking the
// tree instead of incremental counters.
type refStore struct {
	root  *refNode
	gen   uint64
	txns  map[TxnID]*refTxn
	next  TxnID
	quota int
	fired []string // live mutation paths, in order
}

type refNode struct {
	value    []byte
	children map[string]*refNode
	perms    Perms
	gen      uint64
}

type refTxn struct {
	owner   xen.DomID
	root    *refNode
	baseGen uint64
	touched map[string]bool
	ops     []txnOp
	owned   map[xen.DomID]int // seeded from the live tree on first use
}

func newRefStore(quota int) *refStore {
	return &refStore{
		root:  &refNode{perms: Perms{Owner: xen.Dom0, Default: PermRead}},
		txns:  make(map[TxnID]*refTxn),
		quota: quota,
	}
}

func (n *refNode) clone() *refNode {
	c := &refNode{value: append([]byte(nil), n.value...), perms: n.perms.clone(), gen: n.gen}
	for name, ch := range n.children {
		if c.children == nil {
			c.children = make(map[string]*refNode)
		}
		c.children[name] = ch.clone()
	}
	return c
}

func (n *refNode) each(fn func(*refNode)) {
	fn(n)
	for _, c := range n.children {
		c.each(fn)
	}
}

func refDeepest(root *refNode, parts []string) (*refNode, int) {
	n := root
	for k, p := range parts {
		c, ok := n.children[p]
		if !ok {
			return n, k
		}
		n = c
	}
	return n, len(parts)
}

func refLookup(root *refNode, parts []string) (*refNode, error) {
	n, k := refDeepest(root, parts)
	if k < len(parts) {
		return nil, ErrNoEnt
	}
	return n, nil
}

func (r *refStore) view(id TxnID) (*refNode, *refTxn, error) {
	if id == NoTxn {
		return r.root, nil, nil
	}
	t, ok := r.txns[id]
	if !ok {
		return nil, nil, ErrBadTxn
	}
	return t.root, t, nil
}

func (r *refStore) ownedBy(t *refTxn, dom xen.DomID) int {
	if t != nil {
		if n, ok := t.owned[dom]; ok {
			return n
		}
	}
	count := 0
	r.root.each(func(n *refNode) {
		if n.perms.Owner == dom {
			count++
		}
	})
	return count
}

func (r *refStore) addOwned(t *refTxn, dom xen.DomID, delta int) {
	if t != nil {
		t.owned[dom] = r.ownedBy(t, dom) + delta
	}
}

// create makes parts as a chain below n owned by caller.
func (r *refStore) create(n *refNode, parts []string, caller xen.DomID) *refNode {
	for _, p := range parts {
		c := &refNode{perms: Perms{Owner: caller, Default: n.perms.Default}}
		if n.children == nil {
			n.children = make(map[string]*refNode)
		}
		n.children[p] = c
		n = c
	}
	return n
}

func (r *refStore) Write(caller xen.DomID, id TxnID, path string, value []byte) error {
	parts, err := split(path)
	if err != nil {
		return err
	}
	if len(parts) == 0 {
		return ErrBadPath
	}
	if caller != xen.Dom0 && len(value) > MaxValueSize {
		return ErrTooLong
	}
	root, t, err := r.view(id)
	if err != nil {
		return err
	}
	parent, k := refDeepest(root, parts)
	created := len(parts) - k
	if created > 0 {
		if !parent.perms.allows(caller, PermWrite) {
			return ErrPerm
		}
		if caller != xen.Dom0 && r.quota > 0 && r.ownedBy(t, caller)+created > r.quota {
			return ErrQuota
		}
		r.addOwned(t, caller, created)
	} else if !parent.perms.allows(caller, PermWrite) {
		return ErrPerm
	}
	n := r.create(parent, parts[k:], caller)
	n.value = append([]byte(nil), value...)
	if t != nil {
		t.touched[path] = true
		t.ops = append(t.ops, txnOp{kind: opWrite, caller: caller, path: path, parts: parts, value: n.value})
		return nil
	}
	r.gen++
	n.gen = r.gen
	if created > 0 {
		parent.gen = r.gen
	}
	r.fired = append(r.fired, path)
	return nil
}

func (r *refStore) Remove(caller xen.DomID, id TxnID, path string) error {
	parts, err := split(path)
	if err != nil {
		return err
	}
	if len(parts) == 0 {
		return ErrBadPath
	}
	root, t, err := r.view(id)
	if err != nil {
		return err
	}
	n, err := refLookup(root, parts)
	if err != nil {
		return err
	}
	if caller != xen.Dom0 && caller != n.perms.Owner {
		return ErrPerm
	}
	parent, _ := refDeepest(root, parts[:len(parts)-1])
	delete(parent.children, parts[len(parts)-1])
	if t != nil {
		n.each(func(m *refNode) { r.addOwned(t, m.perms.Owner, -1) })
		t.touched[path] = true
		t.ops = append(t.ops, txnOp{kind: opRemove, caller: caller, path: path, parts: parts})
		return nil
	}
	r.gen++
	parent.gen = r.gen
	r.fired = append(r.fired, path)
	return nil
}

func (r *refStore) SetPerms(caller xen.DomID, id TxnID, path string, perms Perms) error {
	parts, err := split(path)
	if err != nil {
		return err
	}
	root, t, err := r.view(id)
	if err != nil {
		return err
	}
	n, err := refLookup(root, parts)
	if err != nil {
		return err
	}
	if caller != xen.Dom0 && caller != n.perms.Owner {
		return ErrPerm
	}
	if n.perms.Owner != perms.Owner {
		r.addOwned(t, n.perms.Owner, -1)
		r.addOwned(t, perms.Owner, 1)
	}
	n.perms = perms.clone()
	if t != nil {
		t.touched[path] = true
		t.ops = append(t.ops, txnOp{kind: opSetPerms, caller: caller, path: path, parts: parts, perms: perms.clone()})
		return nil
	}
	r.gen++
	n.gen = r.gen
	r.fired = append(r.fired, path)
	return nil
}

// readable resolves a path for Read, List and GetPerms, marking it touched
// when mark is set.
func (r *refStore) readable(caller xen.DomID, id TxnID, path string, mark bool) (*refNode, error) {
	parts, err := split(path)
	if err != nil {
		return nil, err
	}
	root, t, err := r.view(id)
	if err != nil {
		return nil, err
	}
	n, err := refLookup(root, parts)
	if err != nil {
		return nil, err
	}
	if !n.perms.allows(caller, PermRead) {
		return nil, ErrPerm
	}
	if t != nil && mark {
		t.touched[path] = true
	}
	return n, nil
}

func (r *refStore) Read(caller xen.DomID, id TxnID, path string) ([]byte, error) {
	n, err := r.readable(caller, id, path, true)
	if err != nil {
		return nil, err
	}
	return append([]byte(nil), n.value...), nil
}

func (r *refStore) List(caller xen.DomID, id TxnID, path string) ([]string, error) {
	n, err := r.readable(caller, id, path, true)
	if err != nil {
		return nil, err
	}
	names := make([]string, 0, len(n.children))
	for name := range n.children {
		names = append(names, name)
	}
	sort.Strings(names)
	return names, nil
}

func (r *refStore) GetPerms(caller xen.DomID, id TxnID, path string) (Perms, error) {
	n, err := r.readable(caller, id, path, false)
	if err != nil {
		return Perms{}, err
	}
	return n.perms.clone(), nil
}

func (r *refStore) TxnStart(caller xen.DomID) TxnID {
	r.next++
	r.txns[r.next] = &refTxn{
		owner:   caller,
		root:    r.root.clone(),
		baseGen: r.gen,
		touched: make(map[string]bool),
		owned:   make(map[xen.DomID]int),
	}
	return r.next
}

func (r *refStore) txnFor(caller xen.DomID, id TxnID) (*refTxn, error) {
	t, ok := r.txns[id]
	if !ok {
		return nil, ErrBadTxn
	}
	if t.owner != caller && caller != xen.Dom0 {
		return nil, ErrPerm
	}
	delete(r.txns, id)
	return t, nil
}

func (r *refStore) TxnAbort(caller xen.DomID, id TxnID) error {
	_, err := r.txnFor(caller, id)
	return err
}

func (r *refStore) TxnCommit(caller xen.DomID, id TxnID) error {
	t, err := r.txnFor(caller, id)
	if err != nil {
		return err
	}
	for path := range t.touched {
		parts, _ := split(path)
		if n, _ := refDeepest(r.root, parts); n.gen > t.baseGen {
			return ErrConflict
		}
	}
	if r.quota > 0 {
		needed := make(map[xen.DomID]int)
		missing := make(map[string]bool)
		for _, op := range t.ops {
			if op.kind != opWrite || op.caller == xen.Dom0 {
				continue
			}
			_, k := refDeepest(r.root, op.parts)
			for i := k; i < len(op.parts); i++ {
				p := strings.Join(op.parts[:i+1], "/")
				if !missing[p] {
					missing[p] = true
					needed[op.caller]++
				}
			}
		}
		for dom, k := range needed {
			if r.ownedBy(nil, dom)+k > r.quota {
				return ErrQuota
			}
		}
	}
	r.gen++
	for _, op := range t.ops {
		switch op.kind {
		case opWrite:
			parent, k := refDeepest(r.root, op.parts)
			n := r.create(parent, op.parts[k:], op.caller)
			n.value = append([]byte(nil), op.value...)
			n.gen = r.gen
			if k < len(op.parts) {
				parent.gen = r.gen
			}
		case opRemove:
			if _, err := refLookup(r.root, op.parts); err == nil {
				parent, _ := refDeepest(r.root, op.parts[:len(op.parts)-1])
				delete(parent.children, op.parts[len(op.parts)-1])
				parent.gen = r.gen
			}
		case opSetPerms:
			if n, err := refLookup(r.root, op.parts); err == nil {
				n.perms = op.perms.clone()
				n.gen = r.gen
			}
		}
	}
	for _, op := range t.ops {
		r.fired = append(r.fired, op.path)
	}
	return nil
}

// dumpNode and dumpRef render a tree as path -> "value|owner|default|acl|gen"
// so two trees compare with one map equality.
func dumpNode(n *node) map[string]string {
	out := make(map[string]string)
	var walk func(path string, n *node)
	walk = func(path string, n *node) {
		out[path] = describe(n.value, n.perms, n.gen)
		for name, c := range n.children {
			walk(strings.TrimSuffix(path, "/")+"/"+name, c)
		}
	}
	walk("/", n)
	return out
}

func dumpRef(n *refNode) map[string]string {
	out := make(map[string]string)
	var walk func(path string, n *refNode)
	walk = func(path string, n *refNode) {
		out[path] = describe(n.value, n.perms, n.gen)
		for name, c := range n.children {
			walk(strings.TrimSuffix(path, "/")+"/"+name, c)
		}
	}
	walk("/", n)
	return out
}

func describe(value []byte, p Perms, gen uint64) string {
	acl := make([]string, 0, len(p.ACL))
	for d, b := range p.ACL {
		acl = append(acl, fmt.Sprintf("%d:%d", d, b))
	}
	sort.Strings(acl)
	return fmt.Sprintf("%x|%d|%d|%s|%d", value, p.Owner, p.Default, strings.Join(acl, ","), gen)
}

func diffDumps(got, want map[string]string) string {
	var diffs []string
	for p, w := range want {
		if g, ok := got[p]; !ok {
			diffs = append(diffs, fmt.Sprintf("missing %s (want %s)", p, w))
		} else if g != w {
			diffs = append(diffs, fmt.Sprintf("%s = %s, want %s", p, g, w))
		}
	}
	for p, g := range got {
		if _, ok := want[p]; !ok {
			diffs = append(diffs, fmt.Sprintf("extra %s = %s", p, g))
		}
	}
	sort.Strings(diffs)
	return strings.Join(diffs, "; ")
}

// errKind reduces an error to the store sentinel it wraps.
func errKind(err error) error {
	for _, k := range []error{ErrNoEnt, ErrPerm, ErrConflict, ErrBadTxn, ErrBadPath, ErrQuota, ErrTooLong} {
		if errors.Is(err, k) {
			return k
		}
	}
	return err
}

// modelDoms are the callers the model issues operations as.
var modelDoms = []xen.DomID{xen.Dom0, 1, 2}

// modelOpNames names the model's operation codes.
var modelOpNames = []string{"Write", "Write", "Write", "Remove", "SetPerms", "Read", "List", "GetPerms", "TxnStart", "TxnCommit", "TxnAbort"}

// modelWatched are the paths the model watches on both stores.
var modelWatched = []string{"/a", "/b", "/c", "/c/a"}

// byteSource feeds the model its choices; past the end it reads
// zeros.
type byteSource struct {
	data []byte
	i    int
}

func (b *byteSource) next() int {
	if b.i >= len(b.data) {
		return 0
	}
	b.i++
	return int(b.data[b.i-1])
}

func (b *byteSource) pick(n int) int { return b.next() % n }

func (b *byteSource) path() string {
	switch b.pick(24) {
	case 0:
		return "/"
	case 1:
		return "/a//b" // malformed
	}
	names := []string{"a", "b", "c"}
	depth := 1 + b.pick(3)
	var sb strings.Builder
	for i := 0; i < depth; i++ {
		sb.WriteString("/" + names[b.pick(len(names))])
	}
	return sb.String()
}

func (b *byteSource) perms() Perms {
	p := Perms{Owner: modelDoms[b.pick(len(modelDoms))], Default: PermBits(b.pick(4))}
	if b.pick(2) == 1 {
		p.ACL = map[xen.DomID]PermBits{modelDoms[b.pick(len(modelDoms))]: PermBits(b.pick(4))}
	}
	return p
}

// runTxnModel drives the store and the reference through the same
// operation stream decoded from data — live and transactional writes,
// removes, permission changes and reads across up to three overlapping
// transactions — and fails on the first result, error, tree, owned-node
// count or watch event that differs. It returns how often each outcome
// occurred, keyed by operation and error.
func runTxnModel(t *testing.T, data []byte) map[string]int {
	seen := make(map[string]int)
	src := &byteSource{data: data}
	quota := 2 + src.pick(6)
	s := New()
	s.SetNodeQuota(quota)
	ref := newRefStore(quota)
	// Setup: /a owned by dom1 and world-readable, /b owned by dom2 and
	// private, /c dom0's and world-writable.
	for _, init := range []struct {
		path  string
		perms Perms
	}{
		{"/a", Perms{Owner: 1, Default: PermRead}},
		{"/b", Perms{Owner: 2, Default: PermNone}},
		{"/c", Perms{Owner: xen.Dom0, Default: PermBoth}},
	} {
		for _, st := range []interface {
			Write(xen.DomID, TxnID, string, []byte) error
			SetPerms(xen.DomID, TxnID, string, Perms) error
		}{s, ref} {
			if err := st.Write(xen.Dom0, NoTxn, init.path, nil); err != nil {
				t.Fatal(err)
			}
			if err := st.SetPerms(xen.Dom0, NoTxn, init.path, init.perms); err != nil {
				t.Fatal(err)
			}
		}
	}
	var watches []*Watch
	for _, p := range modelWatched {
		w, err := s.Watch(xen.Dom0, p)
		if err != nil {
			t.Fatal(err)
		}
		<-w.Events()
		watches = append(watches, w)
	}
	ref.fired = nil
	var open []TxnID
	closed := TxnID(999)

	for step := 0; src.i < len(src.data); step++ {
		caller := modelDoms[src.pick(len(modelDoms))]
		id := NoTxn
		if v := src.pick(16); v == 0 {
			id = closed
		} else if v >= 6 && len(open) > 0 {
			id = open[v%len(open)]
		}
		var desc string
		var got, want error
		op := src.pick(11)
		switch op {
		case 0, 1, 2:
			path := src.path()
			value := []byte(fmt.Sprintf("v%d", src.next()))
			if src.pick(32) == 0 {
				value = make([]byte, MaxValueSize+1)
			}
			desc = fmt.Sprintf("dom%d Write(txn %d, %s, %q)", caller, id, path, value)
			got, want = s.Write(caller, id, path, value), ref.Write(caller, id, path, value)
		case 3:
			path := src.path()
			desc = fmt.Sprintf("dom%d Remove(txn %d, %s)", caller, id, path)
			got, want = s.Remove(caller, id, path), ref.Remove(caller, id, path)
		case 4:
			path, perms := src.path(), src.perms()
			desc = fmt.Sprintf("dom%d SetPerms(txn %d, %s, %+v)", caller, id, path, perms)
			got, want = s.SetPerms(caller, id, path, perms), ref.SetPerms(caller, id, path, perms)
		case 5:
			path := src.path()
			desc = fmt.Sprintf("dom%d Read(txn %d, %s)", caller, id, path)
			gv, gerr := s.Read(caller, id, path)
			wv, werr := ref.Read(caller, id, path)
			got, want = gerr, werr
			if gerr == nil && werr == nil && string(gv) != string(wv) {
				t.Fatalf("step %d %s = %q, want %q", step, desc, gv, wv)
			}
		case 6:
			path := src.path()
			desc = fmt.Sprintf("dom%d List(txn %d, %s)", caller, id, path)
			gl, gerr := s.List(caller, id, path)
			wl, werr := ref.List(caller, id, path)
			got, want = gerr, werr
			if gerr == nil && werr == nil && strings.Join(gl, ",") != strings.Join(wl, ",") {
				t.Fatalf("step %d %s = %v, want %v", step, desc, gl, wl)
			}
		case 7:
			path := src.path()
			desc = fmt.Sprintf("dom%d GetPerms(txn %d, %s)", caller, id, path)
			gp, gerr := s.GetPerms(caller, id, path)
			wp, werr := ref.GetPerms(caller, id, path)
			got, want = gerr, werr
			if gerr == nil && werr == nil && describe(nil, gp, 0) != describe(nil, wp, 0) {
				t.Fatalf("step %d %s = %+v, want %+v", step, desc, gp, wp)
			}
		case 8:
			if len(open) == 3 {
				continue
			}
			desc = fmt.Sprintf("dom%d TxnStart", caller)
			gid, wid := s.TxnStart(caller), ref.TxnStart(caller)
			if gid != wid {
				t.Fatalf("step %d %s = %d, want %d", step, desc, gid, wid)
			}
			open = append(open, gid)
		case 9, 10:
			if id == NoTxn {
				continue
			}
			if rt, ok := ref.txns[id]; ok && src.pick(4) > 0 {
				caller = rt.owner // usually the owner ends it
			}
			if op == 9 {
				desc = fmt.Sprintf("dom%d TxnCommit(%d)", caller, id)
				got, want = s.TxnCommit(caller, id), ref.TxnCommit(caller, id)
			} else {
				desc = fmt.Sprintf("dom%d TxnAbort(%d)", caller, id)
				got, want = s.TxnAbort(caller, id), ref.TxnAbort(caller, id)
			}
			if _, still := ref.txns[id]; !still {
				for i, o := range open {
					if o == id {
						open = append(open[:i], open[i+1:]...)
						closed = id
						break
					}
				}
			}
		}
		if errKind(got) != errKind(want) {
			t.Fatalf("step %d %s: err %v, want %v", step, desc, got, want)
		}
		seen[fmt.Sprintf("%s: %v", modelOpNames[op], errKind(got))]++
		seen[fmt.Sprintf("open: %d", len(open))]++
		checkModelState(t, step, desc, s, ref, watches)
	}
	for _, w := range watches {
		s.Unwatch(w)
	}
	return seen
}

// checkModelState compares the live tree, every open transaction's view,
// the owned-node counters and the watch events of the two stores, and
// checks the epoch invariant: no tree holds a node another tree owns.
func checkModelState(t *testing.T, step int, desc string, s *Store, ref *refStore, watches []*Watch) {
	t.Helper()
	live := dumpNode(s.root)
	if d := diffDumps(live, dumpRef(ref.root)); d != "" {
		t.Fatalf("step %d after %s: live tree differs: %s", step, desc, d)
	}
	if len(s.txns) != len(ref.txns) {
		t.Fatalf("step %d after %s: %d open transactions, want %d", step, desc, len(s.txns), len(ref.txns))
	}
	foreign := func(tree string, n *node, own uint64) {
		var walk func(n *node)
		walk = func(n *node) {
			if n.epoch != own && (n.epoch == s.epoch || ownedByOpenTxn(s, n.epoch)) {
				t.Fatalf("step %d after %s: %s holds a node of epoch %d", step, desc, tree, n.epoch)
			}
			for _, c := range n.children {
				walk(c)
			}
		}
		walk(n)
	}
	foreign("live tree", s.root, s.epoch)
	for id, rt := range ref.txns {
		st, ok := s.txns[id]
		if !ok {
			t.Fatalf("step %d after %s: transaction %d missing", step, desc, id)
		}
		if d := diffDumps(dumpNode(st.root), dumpRef(rt.root)); d != "" {
			t.Fatalf("step %d after %s: view of txn %d differs: %s", step, desc, id, d)
		}
		foreign(fmt.Sprintf("txn %d", id), st.root, st.epoch)
	}
	counted := make(map[string]int)
	for _, v := range live {
		counted[strings.Split(v, "|")[1]]++
	}
	for _, dom := range modelDoms {
		if got, want := s.OwnedNodes(dom), counted[fmt.Sprint(dom)]; got != want {
			t.Fatalf("step %d after %s: dom%d owns %d nodes, tree walk counts %d", step, desc, dom, got, want)
		}
	}
	for i, w := range watches {
		var want []string
		for _, p := range ref.fired {
			if watchMatches(w.Path(), p) {
				want = append(want, p)
			}
		}
		if len(want) > watchBuffer {
			want = want[:watchBuffer] // the rest coalesced
		}
		var got []string
	drain:
		for {
			select {
			case p := <-watches[i].Events():
				got = append(got, p)
			default:
				break drain
			}
		}
		if strings.Join(got, ",") != strings.Join(want, ",") {
			t.Fatalf("step %d after %s: watch %s saw %v, want %v", step, desc, w.Path(), got, want)
		}
	}
	ref.fired = ref.fired[:0]
}

func ownedByOpenTxn(s *Store, epoch uint64) bool {
	for _, t := range s.txns {
		if t.epoch == epoch {
			return true
		}
	}
	return false
}

func modelInput(seed int64, n int) []byte {
	data := make([]byte, n)
	rand.New(rand.NewSource(seed)).Read(data)
	return data
}

// TestTxnModelEquivalence runs seeded operation streams through the
// copy-on-write store and the deep-clone reference.
func TestTxnModelEquivalence(t *testing.T) {
	const seeds = 200
	seen := make(map[string]int)
	for seed := int64(0); seed < seeds; seed++ {
		t.Run(fmt.Sprint(seed), func(t *testing.T) {
			for k, n := range runTxnModel(t, modelInput(seed, 2000)) {
				seen[k] += n
			}
		})
	}
	// The streams must reach every outcome the equivalence is meant to
	// cover, or a passing run proves less than it claims.
	for _, want := range []string{
		"TxnCommit: <nil>", "TxnCommit: " + ErrConflict.Error(), "TxnCommit: " + ErrQuota.Error(),
		"TxnAbort: <nil>", "TxnCommit: " + ErrPerm.Error(), "TxnCommit: " + ErrBadTxn.Error(),
		"Write: " + ErrQuota.Error(), "Write: " + ErrPerm.Error(), "Write: " + ErrTooLong.Error(),
		"Remove: <nil>", "Remove: " + ErrNoEnt.Error(), "SetPerms: <nil>", "Read: <nil>",
		"open: 3",
	} {
		if seen[want] == 0 {
			t.Errorf("no %q outcome in %d seeded streams", want, seeds)
		}
	}
	t.Logf("outcomes: %v", seen)
}

// FuzzTxnOps explores operation streams beyond the seeded ones. Streams
// are cut at fuzzMaxOps bytes: the three-name tree has few states, and a
// short stream keeps the fuzzer's minimization of each new input quick.
func FuzzTxnOps(f *testing.F) {
	for seed := int64(0); seed < 4; seed++ {
		f.Add(modelInput(seed, fuzzMaxOps))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > fuzzMaxOps {
			data = data[:fuzzMaxOps]
		}
		runTxnModel(t, data)
	})
}

const fuzzMaxOps = 256

// TestTxnHandshakeHammer runs device handshakes (WithTxn, as the split
// driver's frontend does) from several guests beside live dom0 writes and
// removes, with transactions open throughout so live writes take the
// path-copying branch. Run it under -race: every handshake that commits
// must read back exactly what it wrote, and the owned-node counters must
// match the tree when the dust settles.
func TestTxnHandshakeHammer(t *testing.T) {
	const guests, rounds = 6, 200
	s := New()
	for g := 1; g <= guests; g++ {
		base := fmt.Sprintf("/local/domain/%d", g)
		if err := s.Write(dom0, noTxn, base+"/name", []byte("g")); err != nil {
			t.Fatal(err)
		}
		if err := s.SetPerms(dom0, noTxn, base, Perms{Owner: xen.DomID(g)}); err != nil {
			t.Fatal(err)
		}
	}
	stop := make(chan struct{})
	var bg, wg sync.WaitGroup
	// dom0 churn: backend state nodes come and go, and each guest's home
	// directory gains and loses a control node (stamping the directory).
	bg.Add(2)
	go func() {
		defer bg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			g := 1 + i%guests
			back := fmt.Sprintf("/local/domain/0/backend/vtpm/%d", g)
			ctl := fmt.Sprintf("/local/domain/%d/control", g)
			if err := s.Write(dom0, noTxn, back+"/0/state", []byte{byte(i)}); err != nil {
				t.Error(err)
				return
			}
			if err := s.Write(dom0, noTxn, ctl+"/shutdown", nil); err != nil {
				t.Error(err)
				return
			}
			s.Remove(dom0, noTxn, back) //nolint:errcheck // racing churn
			s.Remove(dom0, noTxn, ctl)  //nolint:errcheck // racing churn
		}
	}()
	// A reader that keeps a transaction open most of the time.
	go func() {
		defer bg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			id := s.TxnStart(dom0)
			s.List(dom0, id, "/local/domain") //nolint:errcheck // view only
			s.TxnAbort(dom0, id)              //nolint:errcheck // always open
		}
	}()
	var committed, conflicted atomic.Int64
	for g := 1; g <= guests; g++ {
		wg.Add(1)
		go func(dom xen.DomID) {
			defer wg.Done()
			dir := fmt.Sprintf("/local/domain/%d/device/vtpm/0", dom)
			for r := 0; r < rounds; r++ {
				want := map[string]string{"/ring-ref": fmt.Sprint(r), "/event-channel": fmt.Sprint(r + 1), "/state": "3"}
				err := s.WithTxn(dom, 8, func(id TxnID) error {
					for _, k := range []string{"/ring-ref", "/event-channel", "/state"} {
						if err := s.Write(dom, id, dir+k, []byte(want[k])); err != nil {
							return err
						}
					}
					return nil
				})
				if errors.Is(err, ErrConflict) {
					conflicted.Add(1)
					continue
				}
				if err != nil {
					t.Errorf("dom%d round %d: %v", dom, r, err)
					return
				}
				committed.Add(1)
				for k, v := range want {
					if got, err := s.Read(dom, noTxn, dir+k); err != nil || string(got) != v {
						t.Errorf("dom%d round %d: %s = %q, %v; want %q", dom, r, k, got, err, v)
					}
				}
				if err := s.Remove(dom, noTxn, dir); err != nil {
					t.Errorf("dom%d round %d: remove: %v", dom, r, err)
				}
			}
		}(xen.DomID(g))
	}
	wg.Wait()
	close(stop)
	bg.Wait()
	t.Logf("%d handshakes committed, %d gave up on conflicts", committed.Load(), conflicted.Load())
	if committed.Load() == 0 {
		t.Fatal("no handshake committed")
	}
	counted := make(map[string]int)
	for _, v := range dumpNode(s.root) {
		counted[strings.Split(v, "|")[1]]++
	}
	for dom := 0; dom <= guests; dom++ {
		if got, want := s.OwnedNodes(xen.DomID(dom)), counted[fmt.Sprint(dom)]; got != want {
			t.Errorf("dom%d owns %d nodes, tree walk counts %d", dom, got, want)
		}
	}
}

// TestTxnStartAllocsFlat guards the copy-on-write start: opening a
// transaction allocates the same at 5,000 guests as at 100, so nothing
// proportional to the tree is copied.
func TestTxnStartAllocsFlat(t *testing.T) {
	allocs := func(n int) float64 {
		s := guestStore(t, n)
		return testing.AllocsPerRun(200, func() {
			s.TxnAbort(dom0, s.TxnStart(dom0)) //nolint:errcheck // always open
		})
	}
	small, large := allocs(100), allocs(5000)
	if small != large {
		t.Fatalf("TxnStart allocates %.1f at 5000 guests, %.1f at 100", large, small)
	}
}
