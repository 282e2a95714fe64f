package xvtpm

import (
	"fmt"
	"strings"
	"testing"

	"xvtpm/internal/tpm"
	"xvtpm/internal/xen"
	"xvtpm/internal/xenstore"
)

// hostFootprint is what a host keeps per guest that must go away with it:
// XenStore nodes (all, and dom0's) and the improved guard's policy rules.
type hostFootprint struct{ nodes, dom0Nodes, rules int }

func footprint(t *testing.T, h *Host) hostFootprint {
	t.Helper()
	var count func(path string) int
	count = func(path string) int {
		names, err := h.XS.List(xen.Dom0, xenstore.NoTxn, path)
		if err != nil {
			t.Fatalf("list %s: %v", path, err)
		}
		n := 1
		for _, name := range names {
			n += count(strings.TrimSuffix(path, "/") + "/" + name)
		}
		return n
	}
	ig, ok := h.ImprovedGuard()
	if !ok {
		t.Fatal("host has no improved guard")
	}
	return hostFootprint{count("/"), h.XS.OwnedNodes(xen.Dom0), ig.Policy().Len()}
}

// Destroying, migrating away, suspending and retiring guests must give back
// everything they took: repeated cycles leave the XenStore node counts and
// the policy's rule count where they started. (Each cycle used to leak the
// backend's three-node device directory and eight policy rules.)
func TestGuestLifecycleLeavesNoResidue(t *testing.T) {
	const cycles = 6
	src := newTestHost(t, "teardown-src", ModeImproved)
	dst := newTestHost(t, "teardown-dst", ModeImproved)
	// One warm-up lifecycle on each host creates the shared parent
	// directories (/local/domain/0/backend/vtpm) every later guest reuses.
	for _, h := range []*Host{src, dst} {
		if err := h.DestroyGuest(newTestGuest(t, h, "warmup")); err != nil {
			t.Fatal(err)
		}
	}
	srcBase, dstBase := footprint(t, src), footprint(t, dst)
	check := func(stage string) {
		t.Helper()
		if got := footprint(t, src); got != srcBase {
			t.Fatalf("%s: source host %+v, baseline %+v", stage, got, srcBase)
		}
		if got := footprint(t, dst); got != dstBase {
			t.Fatalf("%s: destination host %+v, baseline %+v", stage, got, dstBase)
		}
	}
	for i := 0; i < cycles; i++ {
		if err := src.DestroyGuest(newTestGuest(t, src, fmt.Sprintf("churn-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	check("create/destroy")
	for i := 0; i < cycles; i++ {
		g := newTestGuest(t, src, fmt.Sprintf("mover-%d", i))
		moved, err := Migrate(src, g, dst)
		if err != nil {
			t.Fatal(err)
		}
		if err := dst.DestroyGuest(moved); err != nil {
			t.Fatal(err)
		}
	}
	check("migrate")
	for i := 0; i < cycles; i++ {
		g := newTestGuest(t, src, fmt.Sprintf("sleeper-%d", i))
		handle, err := src.SuspendGuest(g)
		if err != nil {
			t.Fatal(err)
		}
		g, err = src.ResumeGuest(handle)
		if err != nil {
			t.Fatal(err)
		}
		if err := src.DestroyGuest(g); err != nil {
			t.Fatal(err)
		}
	}
	check("suspend/resume")
	for i := 0; i < cycles; i++ {
		slot, err := src.OpenLoadSlot(fmt.Sprintf("slot-%d", i), tpm.Profile12)
		if err != nil {
			t.Fatal(err)
		}
		if err := src.CloseLoadSlot(slot); err != nil {
			t.Fatal(err)
		}
	}
	check("load slots")
}
