package vtpm

import (
	"errors"
	"testing"

	"xvtpm/internal/tpm"
	"xvtpm/internal/xen"
)

// newProfileMgr builds a manager for the profile tests with full control of
// the ManagerConfig (the pinning tests set cfg.Profile).
func newProfileMgr(t *testing.T, cfg ManagerConfig) *Manager {
	t.Helper()
	hv := xen.NewHypervisor(xen.DomainConfig{Name: "Domain-0", Pages: 2048})
	dom0, err := hv.Domain(xen.Dom0)
	if err != nil {
		t.Fatal(err)
	}
	if cfg.RSABits == 0 {
		cfg.RSABits = testBits
	}
	if cfg.Seed == nil {
		cfg.Seed = []byte("profile-test")
	}
	mgr := NewManager(hv, NewMemStore(), xen.NewArena(dom0), &passGuard{}, cfg)
	t.Cleanup(func() {
		if err := mgr.Close(); err != nil {
			t.Errorf("Close: %v", err)
		}
	})
	return mgr
}

// TestCrossProfileImportRejected covers the two cross-profile import
// refusals: a destination pinned to one profile refuses images of the other,
// and an image whose declared profile disagrees with the engine state it
// carries is refused even on an unpinned destination. Both must surface
// ErrProfileMismatch — distinct from ErrBadImage — and commit nothing.
func TestCrossProfileImportRejected(t *testing.T) {
	src := newProfileMgr(t, ManagerConfig{})
	id, err := src.CreateInstanceProfile(tpm.Profile20)
	if err != nil {
		t.Fatal(err)
	}
	img, err := src.ExportInstance(id, nil)
	if err != nil {
		t.Fatal(err)
	}
	if img.Profile != tpm.Profile20 {
		t.Fatalf("exported image declares %s, want 2.0", img.Profile)
	}

	// Honest import on an unpinned destination works and keeps the profile.
	open := newProfileMgr(t, ManagerConfig{})
	got, err := open.ImportInstance(img)
	if err != nil {
		t.Fatalf("honest 2.0 import on unpinned manager: %v", err)
	}
	info, err := open.InstanceInfo(got)
	if err != nil {
		t.Fatal(err)
	}
	if info.Profile != tpm.Profile20 {
		t.Fatalf("imported instance runs %s, want 2.0", info.Profile)
	}

	// A 1.2-pinned destination refuses the 2.0 image.
	pinned12 := newProfileMgr(t, ManagerConfig{Profile: tpm.Profile12})
	if _, err := pinned12.ImportInstance(img); !errors.Is(err, ErrProfileMismatch) {
		t.Fatalf("1.2-pinned import of 2.0 image: err = %v, want ErrProfileMismatch", err)
	}

	// A 2.0-pinned destination refuses a 1.2 image.
	id12, err := src.CreateInstanceProfile(tpm.Profile12)
	if err != nil {
		t.Fatal(err)
	}
	img12, err := src.ExportInstance(id12, nil)
	if err != nil {
		t.Fatal(err)
	}
	pinned20 := newProfileMgr(t, ManagerConfig{Profile: tpm.Profile20})
	if _, err := pinned20.ImportInstance(img12); !errors.Is(err, ErrProfileMismatch) {
		t.Fatalf("2.0-pinned import of 1.2 image: err = %v, want ErrProfileMismatch", err)
	}

	// An image lying about its profile (declares 1.2, carries 2.0 state) is
	// refused by the declared-vs-actual cross-check on any destination.
	lying := *img
	lying.Profile = tpm.Profile12
	if _, err := open.ImportInstance(&lying); !errors.Is(err, ErrProfileMismatch) {
		t.Fatalf("import of mislabeled image: err = %v, want ErrProfileMismatch", err)
	}
}

// TestCheckpointRestoreCrossProfileRejected covers the at-rest flavor of the
// same invariant: a checkpoint whose plaintext profile header disagrees with
// the engine state inside the guard envelope must not restore.
func TestCheckpointRestoreCrossProfileRejected(t *testing.T) {
	eng2, err := tpm.New2(tpm.Config{RSABits: testBits, Seed: []byte("xck")})
	if err != nil {
		t.Fatal(err)
	}
	blob := AppendCheckpointHeader(nil, tpm.Profile12, 0)
	blob = append(blob, eng2.SaveState()...)
	profile, envelope, err := UnwrapCheckpoint(blob)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := restoreDeclaredEngine(profile, envelope); !errors.Is(err, ErrProfileMismatch) {
		t.Fatalf("restore of 2.0 state under 1.2 header: err = %v, want ErrProfileMismatch", err)
	}
}

// TestCheckpointRejectsUnversionedBlob pins that a stored blob must carry the
// current checkpoint header: a headerless blob (bare guard envelope) and a
// version-1 header (profile, no epoch) are both refused as malformed rather
// than read as an epoch-0 1.2 instance.
func TestCheckpointRejectsUnversionedBlob(t *testing.T) {
	eng, err := tpm.NewEngine(tpm.Profile12, tpm.Config{RSABits: testBits, Seed: []byte("hdr")})
	if err != nil {
		t.Fatal(err)
	}
	state := eng.AppendState(nil)
	v1 := append([]byte(ckptMagic), 1, byte(tpm.Profile12))
	for name, blob := range map[string][]byte{
		"headerless": state,
		"version-1":  append(v1, state...),
	} {
		if _, _, err := UnwrapCheckpoint(blob); !errors.Is(err, ErrBadEnvelope) {
			t.Errorf("%s blob: err = %v, want ErrBadEnvelope", name, err)
		}
	}
	blob := append(AppendCheckpointHeader(nil, tpm.Profile12, 0), state...)
	if p, env, err := UnwrapCheckpoint(blob); err != nil || p != tpm.Profile12 || len(env) != len(state) {
		t.Fatalf("current header: profile %s, %d-byte envelope, err %v", p, len(env), err)
	}
}

// TestImportRejectsUndeclaredProfile pins that a migration image must declare
// its profile: an image left at AnyProfile is refused as malformed instead of
// being read as 1.2, and nothing is committed.
func TestImportRejectsUndeclaredProfile(t *testing.T) {
	src := newProfileMgr(t, ManagerConfig{})
	id, err := src.CreateInstanceProfile(tpm.Profile12)
	if err != nil {
		t.Fatal(err)
	}
	img, err := src.ExportInstance(id, nil)
	if err != nil {
		t.Fatal(err)
	}
	undeclared := *img
	undeclared.Profile = tpm.AnyProfile
	dst := newProfileMgr(t, ManagerConfig{})
	if _, err := dst.ImportInstance(&undeclared); !errors.Is(err, ErrBadImage) {
		t.Fatalf("AnyProfile image: err = %v, want ErrBadImage", err)
	}
	if n := len(dst.Instances()); n != 0 {
		t.Fatalf("refused import left %d instances behind", n)
	}
	if _, err := dst.ImportInstance(img); err != nil {
		t.Fatalf("declared 1.2 image: %v", err)
	}
}
