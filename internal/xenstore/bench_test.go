package xenstore

import (
	"fmt"
	"testing"

	"xvtpm/internal/xen"
)

// BenchmarkWrite measures one direct store write.
func BenchmarkWrite(b *testing.B) {
	s := New()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := s.Write(xen.Dom0, NoTxn, fmt.Sprintf("/bench/key%d", i%256), []byte("value")); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRead measures one store read.
func BenchmarkRead(b *testing.B) {
	s := New()
	if err := s.Write(xen.Dom0, NoTxn, "/bench/key", []byte("value")); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Read(xen.Dom0, NoTxn, "/bench/key"); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTxnCommit measures a three-key transactional handshake (the
// split-driver connection pattern).
func BenchmarkTxnCommit(b *testing.B) {
	s := New()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		err := s.WithTxn(xen.Dom0, 4, func(id TxnID) error {
			if err := s.Write(xen.Dom0, id, "/dev/ring-ref", []byte("8")); err != nil {
				return err
			}
			if err := s.Write(xen.Dom0, id, "/dev/event-channel", []byte("3")); err != nil {
				return err
			}
			return s.Write(xen.Dom0, id, "/dev/state", []byte("4"))
		})
		if err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkWatchFire measures mutation delivery to a subtree watch.
func BenchmarkWatchFire(b *testing.B) {
	s := New()
	w, err := s.Watch(xen.Dom0, "/dev")
	if err != nil {
		b.Fatal(err)
	}
	<-w.Events() // initial
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := s.Write(xen.Dom0, NoTxn, "/dev/state", []byte{byte(i)}); err != nil {
			b.Fatal(err)
		}
		<-w.Events()
	}
}

// ringRefs is how many grant references a vTPM frontend publishes: one per
// page of its 8-slot ring plus the shared header page.
const ringRefs = 9

// guestStore builds a store holding n guest-shaped subtrees, 20 nodes each:
// the nodes one connected vTPM guest leaves in a host's store — its home
// directory and name, the frontend's device directory with the ring-ref
// count, ring refs, event channel and state, and the backend's state node.
func guestStore(tb testing.TB, n int) *Store {
	tb.Helper()
	s := New()
	for g := 1; g <= n; g++ {
		dom := xen.DomID(g)
		base := fmt.Sprintf("/local/domain/%d", g)
		if err := s.Write(xen.Dom0, NoTxn, base+"/name", []byte(fmt.Sprintf("guest-%d", g))); err != nil {
			tb.Fatal(err)
		}
		if err := s.SetPerms(xen.Dom0, NoTxn, base, Perms{Owner: dom}); err != nil {
			tb.Fatal(err)
		}
		if err := handshake(s, dom, 0); err != nil {
			tb.Fatal(err)
		}
		if err := s.Write(xen.Dom0, NoTxn, fmt.Sprintf("/local/domain/0/backend/vtpm/%d/0/state", g), []byte("4")); err != nil {
			tb.Fatal(err)
		}
	}
	return s
}

// handshake publishes a frontend's device keys in one transaction, as
// vtpm.Frontend.Setup does.
func handshake(s *Store, dom xen.DomID, round int) error {
	dir := fmt.Sprintf("/local/domain/%d/device/vtpm/0", dom)
	return s.WithTxn(dom, 8, func(id TxnID) error {
		if err := s.Write(dom, id, dir+"/ring-ref-count", []byte("9")); err != nil {
			return err
		}
		for i := 0; i < ringRefs; i++ {
			if err := s.Write(dom, id, fmt.Sprintf("%s/ring-ref-%d", dir, i), []byte(fmt.Sprint(round+i))); err != nil {
				return err
			}
		}
		if err := s.Write(dom, id, dir+"/event-channel", []byte(fmt.Sprint(round))); err != nil {
			return err
		}
		return s.Write(dom, id, dir+"/state", []byte("3"))
	})
}

// guestCounts are the store sizes the transaction rows run at.
var guestCounts = []int{100, 5000}

// BenchmarkTxnStart measures opening and aborting an empty transaction on a
// store of 100 and 5,000 guests.
func BenchmarkTxnStart(b *testing.B) {
	for _, n := range guestCounts {
		b.Run(fmt.Sprintf("guests=%d", n), func(b *testing.B) {
			s := guestStore(b, n)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				id := s.TxnStart(xen.Dom0)
				if err := s.TxnAbort(xen.Dom0, id); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkTxnHandshake measures one guest's full device handshake — 12
// keys written in one committed transaction — on a store of 100 and 5,000
// guests.
func BenchmarkTxnHandshake(b *testing.B) {
	for _, n := range guestCounts {
		b.Run(fmt.Sprintf("guests=%d", n), func(b *testing.B) {
			s := guestStore(b, n)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := handshake(s, xen.DomID(1+i%n), i); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
