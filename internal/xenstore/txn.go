package xenstore

import (
	"errors"
	"fmt"
	"strings"

	"xvtpm/internal/xen"
)

// TxnStart opens a transaction the caller mutates in isolation until
// commit. It costs O(1) whatever the tree's size: the transaction starts
// from the live root itself under a fresh epoch, and the live tree moves to
// another fresh epoch, so from here on each side copies a node on its first
// write to it (ownPath) and the other side keeps seeing the original.
func (s *Store) TxnStart(caller xen.DomID) TxnID {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.nextTxn++
	id := s.nextTxn
	s.txns[id] = &txn{
		owner:     caller,
		root:      s.root,
		epoch:     s.epoch + 1,
		baseGen:   s.gen,
		touched:   make(map[string]struct{}),
		ownedSeen: make(map[xen.DomID]int),
	}
	s.epoch += 2
	return id
}

// TxnAbort discards a transaction.
func (s *Store) TxnAbort(caller xen.DomID, id TxnID) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	t, ok := s.txns[id]
	if !ok {
		return ErrBadTxn
	}
	if t.owner != caller && caller != xen.Dom0 {
		return fmt.Errorf("%w: dom%d abort txn of dom%d", ErrPerm, caller, t.owner)
	}
	delete(s.txns, id)
	return nil
}

// TxnCommit atomically applies a transaction. It fails with ErrConflict if
// any node the transaction read or wrote was modified in the store since the
// transaction began — the caller then retries, as with EAGAIN on real
// XenStore.
func (s *Store) TxnCommit(caller xen.DomID, id TxnID) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	t, ok := s.txns[id]
	if !ok {
		return ErrBadTxn
	}
	if t.owner != caller && caller != xen.Dom0 {
		return fmt.Errorf("%w: dom%d commit txn of dom%d", ErrPerm, caller, t.owner)
	}
	delete(s.txns, id)
	// Conflict check: every touched path must be unchanged in the live tree
	// since baseGen, at per-node granularity — a node counts as changed when
	// its value, perms, or direct child set changed (creations and removals
	// stamp the parent). Writes in unrelated subtrees never conflict.
	for path := range t.touched {
		if s.pathChanged(path, t.baseGen) {
			return fmt.Errorf("%w: %s", ErrConflict, path)
		}
	}
	// Replay the transaction's mutations onto the live tree. Swapping in the
	// transaction's snapshot wholesale would silently drop every node created
	// concurrently on paths this transaction never looked at — a lost update
	// the conflict check above cannot see. The ops were permission-checked
	// against the snapshot when issued, and the conflict check just proved
	// the paths they touch are unchanged, so replay applies them directly;
	// quota is re-validated in a dry pass first so a failure leaves the live
	// tree untouched.
	if err := s.replayQuotaLocked(t); err != nil {
		return err
	}
	s.gen++
	for _, op := range t.ops {
		s.replayLocked(op)
	}
	for _, op := range t.ops {
		s.fireLocked(op.path)
	}
	return nil
}

// replayQuotaLocked dry-runs a transaction's writes against the live tree,
// counting the nodes each unprivileged domain would create, and rejects the
// commit if any would exceed the quota.
func (s *Store) replayQuotaLocked(t *txn) error {
	if s.nodeQuota <= 0 {
		return nil
	}
	needed := make(map[xen.DomID]int)
	virtual := make(map[string]struct{})
	for _, op := range t.ops {
		if op.kind != opWrite || op.caller == xen.Dom0 {
			continue
		}
		_, k := deepest(s.root, op.parts)
		for i := k; i < len(op.parts); i++ {
			prefix := "/" + strings.Join(op.parts[:i+1], "/")
			if _, ok := virtual[prefix]; !ok {
				virtual[prefix] = struct{}{}
				needed[op.caller]++
			}
		}
	}
	for dom, k := range needed {
		if s.owned[dom]+k > s.nodeQuota {
			return fmt.Errorf("%w: dom%d at %d nodes", ErrQuota, dom, s.owned[dom])
		}
	}
	return nil
}

// replayLocked applies one recorded transaction op to the live tree,
// stamping the current store generation and the owned-node counters like the
// non-transactional paths do. Permission and quota checks already happened —
// at record time against the transaction's view, and in the commit's dry
// quota pass against the live tree — so replay cannot fail.
func (s *Store) replayLocked(op txnOp) {
	switch op.kind {
	case opWrite:
		_, k := deepest(s.root, op.parts)
		parent := s.ownPath(nil, op.parts[:k])
		n := s.createPath(nil, parent, op.parts[k:], op.caller)
		n.value = op.value
		n.gen = s.gen
		if k < len(op.parts) {
			parent.gen = s.gen
		}
	case opRemove:
		n, err := lookup(s.root, op.parts)
		if err == nil {
			s.addOwnedTree(nil, n, -1)
			parent := s.ownPath(nil, op.parts[:len(op.parts)-1])
			delete(parent.children, op.parts[len(op.parts)-1])
			parent.gen = s.gen
		}
	case opSetPerms:
		if _, err := lookup(s.root, op.parts); err == nil {
			n := s.ownPath(nil, op.parts)
			if n.perms.Owner != op.perms.Owner {
				s.addOwned(nil, n.perms.Owner, -1)
				s.addOwned(nil, op.perms.Owner, 1)
			}
			n.perms = op.perms
			n.gen = s.gen
		}
	}
}

// pathChanged reports whether the node a path names changed in the live
// tree since baseGen. If the path walks off the tree, the verdict is the
// deepest existing node's: its child-set generation covers the name having
// been created or removed underneath it since; siblings deeper down, and
// every unrelated subtree, stay invisible.
func (s *Store) pathChanged(path string, baseGen uint64) bool {
	parts, err := split(path)
	if err != nil {
		return true
	}
	n, _ := deepest(s.root, parts)
	return n.gen > baseGen
}

// WithTxn runs fn inside a transaction, retrying on ErrConflict up to
// maxRetries times. It is the idiom drivers use for multi-key handshakes.
func (s *Store) WithTxn(caller xen.DomID, maxRetries int, fn func(id TxnID) error) error {
	for attempt := 0; ; attempt++ {
		id := s.TxnStart(caller)
		if err := fn(id); err != nil {
			s.TxnAbort(caller, id) //nolint:errcheck // best-effort cleanup
			return err
		}
		err := s.TxnCommit(caller, id)
		if err == nil {
			return nil
		}
		if !errors.Is(err, ErrConflict) || attempt >= maxRetries {
			return err
		}
	}
}
