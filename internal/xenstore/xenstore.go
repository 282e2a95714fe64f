// Package xenstore implements the XenStore hierarchical key-value store: the
// control-plane registry Xen's split drivers use to find each other and
// exchange connection parameters (ring grant references, event-channel
// ports, device state).
//
// The implementation follows the real store's semantics where they matter to
// the vTPM subsystem and its attackers:
//
//   - per-node permissions with an owner and per-domain ACL entries, with
//     dom0 always privileged;
//   - transactions with optimistic concurrency (commit fails with
//     ErrConflict if a touched node changed underneath, like EAGAIN);
//   - watches that fire on any mutation at or below a path, including the
//     initial synthetic event on registration.
package xenstore

import (
	"errors"
	"fmt"
	"maps"
	"sort"
	"strings"
	"sync"

	"xvtpm/internal/xen"
)

// Store errors.
var (
	ErrNoEnt     = errors.New("xenstore: no such node")
	ErrPerm      = errors.New("xenstore: permission denied")
	ErrConflict  = errors.New("xenstore: transaction conflict")
	ErrBadTxn    = errors.New("xenstore: no such transaction")
	ErrBadPath   = errors.New("xenstore: malformed path")
	ErrNotEmpty  = errors.New("xenstore: node has children")
	ErrWatchGone = errors.New("xenstore: watch cancelled")
	ErrQuota     = errors.New("xenstore: domain over its node quota")
	ErrTooLong   = errors.New("xenstore: value exceeds the size limit")
)

// Limits enforced on unprivileged domains, as real xenstored enforces them
// (a guest that can grow the store without bound can take down the whole
// host's control plane). Dom0 is exempt.
const (
	// DefaultNodeQuota is the number of nodes one unprivileged domain may
	// own.
	DefaultNodeQuota = 256
	// MaxValueSize is the largest value one node may hold.
	MaxValueSize = 2048
)

// PermBits is a node access mask.
type PermBits uint8

// Permission bits.
const (
	PermNone  PermBits = 0
	PermRead  PermBits = 1 << 0
	PermWrite PermBits = 1 << 1
	PermBoth           = PermRead | PermWrite
)

// Perms is a node's access policy: the owning domain (full access), the
// default for everyone else, and per-domain overrides.
type Perms struct {
	Owner   xen.DomID
	Default PermBits
	ACL     map[xen.DomID]PermBits
}

func (p Perms) clone() Perms {
	q := Perms{Owner: p.Owner, Default: p.Default}
	if len(p.ACL) > 0 {
		q.ACL = make(map[xen.DomID]PermBits, len(p.ACL))
		for k, v := range p.ACL {
			q.ACL[k] = v
		}
	}
	return q
}

// allows reports whether dom holds all bits in want.
func (p Perms) allows(dom xen.DomID, want PermBits) bool {
	if dom == xen.Dom0 || dom == p.Owner {
		return true
	}
	bits := p.Default
	if b, ok := p.ACL[dom]; ok {
		bits = b
	}
	return bits&want == want
}

// node is one tree entry. The live tree and the views of open transactions
// share every node neither has changed: a node is mutated in place only by
// the tree whose epoch owns it, and any other tree that needs to change it
// first replaces it with a copy of its own (see ownPath). value and perms
// are replaced whole on every change, never edited in place, so copies
// share them.
type node struct {
	value    []byte
	children map[string]*node
	perms    Perms
	gen      uint64 // store generation of last mutation
	epoch    uint64 // the tree (live or one transaction) that owns the node
}

// Store is one host's XenStore.
type Store struct {
	mu      sync.Mutex
	root    *node
	gen     uint64
	txns    map[TxnID]*txn
	nextTxn TxnID
	watches map[*Watch]struct{}
	// owned tracks live nodes per owning domain incrementally, so quota
	// checks stay O(1) instead of walking the whole tree on every write —
	// at fleet scale (thousands of guest domains, each with its own
	// handshake nodes) the walk was quadratic across a mass creation.
	owned     map[xen.DomID]int
	nodeQuota int
	// epoch owns the live tree's private nodes. TxnStart hands the
	// transaction the next epoch and moves the live tree to the one after,
	// so the nodes both now share belong to neither.
	epoch uint64
}

// TxnID names an open transaction.
type TxnID uint32

// NoTxn is the TxnID meaning "operate directly on the store".
const NoTxn TxnID = 0

// txn is an open transaction: its own view of the tree, which starts as
// the live root itself and diverges by path copying as the owner mutates it
// in isolation, the set of paths it touched (reads and writes alike, for
// conflict detection at commit), and the ordered log of its mutations.
// Commit replays the log onto the live tree rather than swapping trees, so
// nodes created concurrently on paths the transaction never touched
// survive — the real store's semantics, and the property mass guest
// creation depends on.
type txn struct {
	owner   xen.DomID
	root    *node
	epoch   uint64 // owns the nodes this transaction has copied or created
	baseGen uint64
	touched map[string]struct{}
	ops     []txnOp
	// ownedSeen carries per-domain owned-node counts as this transaction's
	// view evolves, seeded lazily from the store's live counters; it keeps
	// in-transaction quota checks O(1).
	ownedSeen map[xen.DomID]int
}

// txnOp is one recorded mutation, validated against the transaction's view
// when it was issued. caller is the domain that issued it (node creations
// replay under its ownership).
type txnOp struct {
	kind   opKind
	caller xen.DomID
	path   string
	parts  []string
	value  []byte
	perms  Perms
}

type opKind int

const (
	opWrite opKind = iota
	opRemove
	opSetPerms
)

// New creates an empty store whose root is owned by dom0 and world-readable,
// as on a real host.
func New() *Store {
	return &Store{
		root: &node{
			children: make(map[string]*node),
			perms:    Perms{Owner: xen.Dom0, Default: PermRead},
		},
		txns:      make(map[TxnID]*txn),
		watches:   make(map[*Watch]struct{}),
		owned:     map[xen.DomID]int{xen.Dom0: 1}, // the root
		nodeQuota: DefaultNodeQuota,
	}
}

// SetNodeQuota adjusts the per-domain node quota (0 disables enforcement).
func (s *Store) SetNodeQuota(n int) {
	s.mu.Lock()
	s.nodeQuota = n
	s.mu.Unlock()
}

// ownedBy returns a domain's owned-node count in the tree t sees (the live
// tree when t is nil).
func (s *Store) ownedBy(t *txn, dom xen.DomID) int {
	if t != nil {
		if n, ok := t.ownedSeen[dom]; ok {
			return n
		}
	}
	return s.owned[dom]
}

// addOwned adds delta to a domain's owned-node count in the tree t sees; a
// transaction's view of the counters is seeded from the live ones on first
// use.
func (s *Store) addOwned(t *txn, dom xen.DomID, delta int) {
	if t == nil {
		s.owned[dom] += delta
		return
	}
	t.ownedSeen[dom] = s.ownedBy(t, dom) + delta
}

// addOwnedTree applies addOwned to the owner of every node in a subtree.
func (s *Store) addOwnedTree(t *txn, n *node, delta int) {
	s.addOwned(t, n.perms.Owner, delta)
	for _, c := range n.children {
		s.addOwnedTree(t, c, delta)
	}
}

// OwnedNodes reports how many nodes a domain currently owns (live tree).
func (s *Store) OwnedNodes(dom xen.DomID) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.owned[dom]
}

// split validates a path and returns its components. The root is "/".
func split(path string) ([]string, error) {
	if path == "" || path[0] != '/' {
		return nil, fmt.Errorf("%w: %q", ErrBadPath, path)
	}
	if path == "/" {
		return nil, nil
	}
	parts := strings.Split(strings.Trim(path, "/"), "/")
	for _, p := range parts {
		if p == "" || p == "." || p == ".." {
			return nil, fmt.Errorf("%w: %q", ErrBadPath, path)
		}
	}
	return parts, nil
}

// lookup walks to a node.
func lookup(root *node, parts []string) (*node, error) {
	n, k := deepest(root, parts)
	if k < len(parts) {
		return nil, ErrNoEnt
	}
	return n, nil
}

// deepest walks as far down parts as the tree goes, returning the last node
// reached and how many components it covers.
func deepest(root *node, parts []string) (*node, int) {
	n := root
	for k, p := range parts {
		child, ok := n.children[p]
		if !ok {
			return n, k
		}
		n = child
	}
	return n, len(parts)
}

func (s *Store) treeFor(id TxnID) (*node, *txn, error) {
	if id == NoTxn {
		return s.root, nil, nil
	}
	t, ok := s.txns[id]
	if !ok {
		return nil, nil, ErrBadTxn
	}
	return t.root, t, nil
}

// ownPath returns the node parts names in the tree t sees (the live tree
// when t is nil), first making every node on the way one that tree owns:
// a node another epoch owns may be shared with an open transaction, so it
// is replaced in its (already owned) parent by a shallow copy — the
// children map is copied, the children themselves stay shared — stamped
// with this tree's epoch. The caller may then mutate the returned node and
// the child set of every node above it. The live tree is edited in place
// while no transaction is open: nothing else can see it then. Every node on
// the path must exist.
func (s *Store) ownPath(t *txn, parts []string) *node {
	rootp, epoch := &s.root, s.epoch
	if t != nil {
		rootp, epoch = &t.root, t.epoch
	} else if len(s.txns) == 0 {
		n, _ := deepest(s.root, parts)
		return n
	}
	n := *rootp
	if n.epoch != epoch {
		n = n.copyFor(epoch)
		*rootp = n
	}
	for _, p := range parts {
		c := n.children[p]
		if c.epoch != epoch {
			c = c.copyFor(epoch)
			n.children[p] = c
		}
		n = c
	}
	return n
}

func (n *node) copyFor(epoch uint64) *node {
	return &node{value: n.value, children: maps.Clone(n.children), perms: n.perms, gen: n.gen, epoch: epoch}
}

// createPath creates parts as a chain of nodes below n, which the tree t
// sees owns, and returns the deepest. The new nodes belong to caller and
// inherit n's default permission.
func (s *Store) createPath(t *txn, n *node, parts []string, caller xen.DomID) *node {
	if len(parts) == 0 {
		return n
	}
	epoch := s.epoch
	if t != nil {
		epoch = t.epoch
	}
	for _, p := range parts {
		child := &node{perms: Perms{Owner: caller, Default: n.perms.Default}, epoch: epoch}
		if n.children == nil {
			n.children = make(map[string]*node)
		}
		n.children[p] = child
		n = child
	}
	s.addOwned(t, caller, len(parts))
	return n
}

// Read returns a node's value.
func (s *Store) Read(caller xen.DomID, id TxnID, path string) ([]byte, error) {
	parts, err := split(path)
	if err != nil {
		return nil, err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	root, t, err := s.treeFor(id)
	if err != nil {
		return nil, err
	}
	n, err := lookup(root, parts)
	if err != nil {
		return nil, fmt.Errorf("%w: %s", err, path)
	}
	if !n.perms.allows(caller, PermRead) {
		return nil, fmt.Errorf("%w: dom%d read %s", ErrPerm, caller, path)
	}
	if t != nil {
		t.touched[path] = struct{}{}
	}
	return append([]byte(nil), n.value...), nil
}

// List returns a node's child names, sorted.
func (s *Store) List(caller xen.DomID, id TxnID, path string) ([]string, error) {
	parts, err := split(path)
	if err != nil {
		return nil, err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	root, t, err := s.treeFor(id)
	if err != nil {
		return nil, err
	}
	n, err := lookup(root, parts)
	if err != nil {
		return nil, fmt.Errorf("%w: %s", err, path)
	}
	if !n.perms.allows(caller, PermRead) {
		return nil, fmt.Errorf("%w: dom%d list %s", ErrPerm, caller, path)
	}
	if t != nil {
		t.touched[path] = struct{}{}
	}
	names := make([]string, 0, len(n.children))
	for name := range n.children {
		names = append(names, name)
	}
	sort.Strings(names)
	return names, nil
}

// Write sets a node's value, creating the node (and intermediate nodes) if
// absent. Created nodes inherit the parent's permissions with the caller as
// owner, like the real store. A write that would take the caller over its
// node quota creates nothing.
func (s *Store) Write(caller xen.DomID, id TxnID, path string, value []byte) error {
	parts, err := split(path)
	if err != nil {
		return err
	}
	if len(parts) == 0 {
		return fmt.Errorf("%w: cannot write root", ErrBadPath)
	}
	if caller != xen.Dom0 && len(value) > MaxValueSize {
		return fmt.Errorf("%w: %d bytes", ErrTooLong, len(value))
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	root, t, err := s.treeFor(id)
	if err != nil {
		return err
	}
	n, k := deepest(root, parts)
	created := len(parts) - k
	if created > 0 {
		// Only the first creation needs a permission check: the caller owns
		// every node it creates below that one. The quota check is O(1)
		// against the incremental counters (the transaction's view when
		// inside one).
		if !n.perms.allows(caller, PermWrite) {
			return fmt.Errorf("%w: dom%d create under %s", ErrPerm, caller, "/"+strings.Join(parts[:k], "/"))
		}
		if cnt := s.ownedBy(t, caller); caller != xen.Dom0 && s.nodeQuota > 0 && cnt+created > s.nodeQuota {
			return fmt.Errorf("%w: dom%d at %d nodes", ErrQuota, caller, cnt)
		}
	} else if !n.perms.allows(caller, PermWrite) {
		return fmt.Errorf("%w: dom%d write %s", ErrPerm, caller, path)
	}
	// base is the deepest existing node: the target itself when nothing is
	// created, else the parent whose child set changes.
	base := s.ownPath(t, parts[:k])
	n = s.createPath(t, base, parts[k:], caller)
	n.value = append([]byte(nil), value...)
	if t != nil {
		t.touched[path] = struct{}{}
		t.ops = append(t.ops, txnOp{kind: opWrite, caller: caller, path: path, parts: parts, value: n.value})
		return nil
	}
	s.gen++
	// A write modifies the written node; creating it also modifies the
	// deepest pre-existing ancestor (its child set changed) — per-node
	// granularity, like real xenstored, so unrelated subtrees never
	// conflict with each other's transactions.
	n.gen = s.gen
	if created > 0 {
		base.gen = s.gen
	}
	s.fireLocked(path)
	return nil
}

// Remove deletes a node and its subtree. Only the owner or dom0 may remove.
func (s *Store) Remove(caller xen.DomID, id TxnID, path string) error {
	parts, err := split(path)
	if err != nil {
		return err
	}
	if len(parts) == 0 {
		return fmt.Errorf("%w: cannot remove root", ErrBadPath)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	root, t, err := s.treeFor(id)
	if err != nil {
		return err
	}
	n, err := lookup(root, parts)
	if err != nil {
		return fmt.Errorf("%w: %s", err, path)
	}
	if caller != xen.Dom0 && caller != n.perms.Owner {
		return fmt.Errorf("%w: dom%d remove %s", ErrPerm, caller, path)
	}
	parent := s.ownPath(t, parts[:len(parts)-1])
	delete(parent.children, parts[len(parts)-1])
	s.addOwnedTree(t, n, -1)
	if t != nil {
		t.touched[path] = struct{}{}
		t.ops = append(t.ops, txnOp{kind: opRemove, caller: caller, path: path, parts: parts})
		return nil
	}
	s.gen++
	parent.gen = s.gen // the parent's child set changed
	s.fireLocked(path)
	return nil
}

// GetPerms returns a node's access policy.
func (s *Store) GetPerms(caller xen.DomID, id TxnID, path string) (Perms, error) {
	parts, err := split(path)
	if err != nil {
		return Perms{}, err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	root, _, err := s.treeFor(id)
	if err != nil {
		return Perms{}, err
	}
	n, err := lookup(root, parts)
	if err != nil {
		return Perms{}, fmt.Errorf("%w: %s", err, path)
	}
	if !n.perms.allows(caller, PermRead) {
		return Perms{}, fmt.Errorf("%w: dom%d getperms %s", ErrPerm, caller, path)
	}
	return n.perms.clone(), nil
}

// SetPerms replaces a node's access policy. Only the owner or dom0 may.
func (s *Store) SetPerms(caller xen.DomID, id TxnID, path string, perms Perms) error {
	parts, err := split(path)
	if err != nil {
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	root, t, err := s.treeFor(id)
	if err != nil {
		return err
	}
	n, err := lookup(root, parts)
	if err != nil {
		return fmt.Errorf("%w: %s", err, path)
	}
	if caller != xen.Dom0 && caller != n.perms.Owner {
		return fmt.Errorf("%w: dom%d setperms %s", ErrPerm, caller, path)
	}
	n = s.ownPath(t, parts)
	if n.perms.Owner != perms.Owner {
		s.addOwned(t, n.perms.Owner, -1)
		s.addOwned(t, perms.Owner, 1)
	}
	n.perms = perms.clone()
	if t != nil {
		t.touched[path] = struct{}{}
		t.ops = append(t.ops, txnOp{kind: opSetPerms, caller: caller, path: path, parts: parts, perms: n.perms})
		return nil
	}
	s.gen++
	n.gen = s.gen
	s.fireLocked(path)
	return nil
}

// Exists reports whether a node exists and is visible to the caller.
func (s *Store) Exists(caller xen.DomID, id TxnID, path string) bool {
	_, err := s.Read(caller, id, path)
	return err == nil || errors.Is(err, ErrPerm)
}
