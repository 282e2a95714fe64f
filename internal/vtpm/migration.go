package vtpm

import (
	"crypto/rsa"
	"errors"
	"fmt"
	"io"

	"xvtpm/internal/tpm"
	"xvtpm/internal/xen"
)

// Migration errors.
var (
	ErrStillBound = errors.New("vtpm: instance must be unbound before export")
	ErrBadImage   = errors.New("vtpm: malformed migration image")
)

// InstanceImage is the unit of vTPM migration: the instance's identity
// binding, its declared command profile, and its state envelope as produced
// by the guard's ExportState. For the baseline guard the envelope is
// plaintext TPM state; for the improved guard it is encrypted to the
// destination host. The profile travels in plaintext — the destination must
// reject a cross-profile import before it commits to reviving anything, and
// the restored engine's own state magic is cross-checked against the
// declaration so a tampered tag cannot smuggle state across profiles.
type InstanceImage struct {
	Launch  xen.LaunchDigest
	Profile tpm.Profile
	// Epoch is the ownership generation the instance travels at. The export
	// copies the source instance's current epoch; a federated handoff
	// overwrites it with the epoch the placement directory assigned to the
	// move, so the destination's first checkpoint already carries the fenced
	// generation.
	Epoch         uint64
	StateEnvelope []byte
}

// ExportInstance packages an instance for migration to a host whose
// hardware-TPM endorsement key is destEK (nil for guards that do not protect
// the transfer). The instance must be unbound; it stays registered until the
// caller destroys it after a successful transfer.
func (m *Manager) ExportInstance(id InstanceID, destEK *rsa.PublicKey) (*InstanceImage, error) {
	inst, err := m.lookup(id)
	if err != nil {
		return nil, err
	}
	// Flush barrier: drain pending write-behind checkpoints so the local
	// store agrees with the state about to travel. The export itself then
	// snapshots the engine directly, so the image always carries the latest
	// mutation regardless of policy.
	if err := m.flushCheckpoints(inst); err != nil {
		return nil, err
	}
	inst.mu.Lock()
	defer inst.mu.Unlock()
	if inst.info.BoundDom != 0 {
		return nil, fmt.Errorf("%w: instance %d bound to dom%d", ErrStillBound, id, inst.info.BoundDom)
	}
	state := inst.eng.SaveState()
	env, err := m.guard.ExportState(inst.info, state, destEK)
	if err != nil {
		return nil, err
	}
	return &InstanceImage{
		Launch:        inst.info.BoundLaunch,
		Profile:       inst.info.Profile,
		Epoch:         inst.info.Epoch,
		StateEnvelope: env,
	}, nil
}

// ImportInstance revives a migrated instance on this host, returning its new
// (host-local) instance ID. The launch identity and command profile travel
// with the image. Cross-profile imports fail with ErrProfileMismatch before
// any state is committed: a destination manager pinned to one profile
// refuses images of the other, and an image whose declared profile disagrees
// with the engine state it actually carries is refused on either manager.
func (m *Manager) ImportInstance(img *InstanceImage) (InstanceID, error) {
	declared := img.Profile
	if declared != tpm.Profile12 && declared != tpm.Profile20 {
		return 0, fmt.Errorf("%w: image declares profile %d", ErrBadImage, uint8(declared))
	}
	if m.cfg.Profile != tpm.AnyProfile && declared != m.cfg.Profile {
		return 0, fmt.Errorf("%w: image is %s, this manager accepts only %s",
			ErrProfileMismatch, declared, m.cfg.Profile)
	}
	state, err := m.guard.ImportState(img.StateEnvelope)
	if err != nil {
		return 0, err
	}
	eng, err := restoreDeclaredEngine(declared, state)
	if err != nil {
		if errors.Is(err, ErrProfileMismatch) {
			return 0, err
		}
		return 0, fmt.Errorf("%w: %v", ErrBadImage, err)
	}
	m.regMu.Lock()
	id := m.nextID
	m.nextID++
	inst := m.newInstance(InstanceInfo{ID: id, BoundLaunch: img.Launch, Profile: declared, Epoch: img.Epoch}, eng)
	m.instances[id] = inst
	m.regMu.Unlock()
	if err := m.checkpointInstance(inst, true); err != nil {
		return 0, err
	}
	return id, nil
}

// Wire framing for the migration channel: magic, then length-prefixed
// messages. The channel is interceptable by design (the MigIntercept
// attacker sits on it); confidentiality and integrity are the guard's job,
// not the framing's.

// Deliberately shares no substring with tpm.StateMagic: the attack
// harness scans migration captures for plaintext state markers.
var migMagic = []byte("VMIG-PROTO1")

// writeMsg sends one length-prefixed message. Empty bodies send only the
// header: a zero-byte Write would block forever on net.Pipe.
func writeMsg(w io.Writer, body []byte) error {
	hdr := tpm.NewWriter()
	hdr.U32(uint32(len(body)))
	if _, err := w.Write(hdr.Bytes()); err != nil {
		return err
	}
	if len(body) == 0 {
		return nil
	}
	_, err := w.Write(body)
	return err
}

// readMsg receives one length-prefixed message, capped at maxLen.
func readMsg(r io.Reader, maxLen int) ([]byte, error) {
	var lenBuf [4]byte
	if _, err := io.ReadFull(r, lenBuf[:]); err != nil {
		return nil, err
	}
	n := int(tpm.NewReader(lenBuf[:]).U32())
	if n > maxLen {
		return nil, fmt.Errorf("%w: message of %d bytes exceeds cap %d", ErrBadImage, n, maxLen)
	}
	body := make([]byte, n)
	if _, err := io.ReadFull(r, body); err != nil {
		return nil, err
	}
	return body, nil
}

// maxMigMessage bounds one migration message (domain memory dominates).
const maxMigMessage = 64 << 20

// marshalDomainImage serializes a xen.DomainImage.
func marshalDomainImage(img *xen.DomainImage) []byte {
	w := tpm.NewWriter()
	w.B16([]byte(img.Name))
	w.B16([]byte(img.SrcHost))
	w.Raw(img.Launch[:])
	w.U32(uint32(img.VCPUs))
	w.U32(uint32(img.PagesN))
	w.B32(img.Memory)
	return w.Bytes()
}

// unmarshalDomainImage reverses marshalDomainImage.
func unmarshalDomainImage(b []byte) (*xen.DomainImage, error) {
	r := tpm.NewReader(b)
	img := &xen.DomainImage{Name: string(r.B16())}
	img.SrcHost = string(r.B16())
	copy(img.Launch[:], r.Raw(len(img.Launch)))
	img.VCPUs = int(r.U32())
	img.PagesN = int(r.U32())
	img.Memory = r.B32()
	if err := r.Err(); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadImage, err)
	}
	return img, nil
}

// marshalInstanceImage serializes an InstanceImage. The profile byte and
// ownership epoch ride in plaintext between the launch digest and the
// envelope, mirroring the checkpoint header's stance: the receiver must know
// the profile before it can open anything, and the epoch is routing
// metadata, not a secret.
func marshalInstanceImage(img *InstanceImage) []byte {
	w := tpm.NewWriter()
	w.Raw(img.Launch[:])
	w.U8(byte(img.Profile))
	w.U64(img.Epoch)
	w.B32(img.StateEnvelope)
	return w.Bytes()
}

// unmarshalInstanceImage reverses marshalInstanceImage.
func unmarshalInstanceImage(b []byte) (*InstanceImage, error) {
	img := &InstanceImage{}
	r := tpm.NewReader(b)
	copy(img.Launch[:], r.Raw(len(img.Launch)))
	img.Profile = tpm.Profile(r.U8())
	img.Epoch = r.U64()
	img.StateEnvelope = r.B32()
	if err := r.Err(); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadImage, err)
	}
	if img.Profile != tpm.Profile12 && img.Profile != tpm.Profile20 {
		return nil, fmt.Errorf("%w: image declares profile %d", ErrBadImage, uint8(img.Profile))
	}
	return img, nil
}

// EncodeInstanceImage exposes the image's wire form for transports outside
// SendMigration/ReceiveMigration — the cluster's fenced transfer leg ships
// exactly these bytes between hosts.
func EncodeInstanceImage(img *InstanceImage) []byte { return marshalInstanceImage(img) }

// DecodeInstanceImage reverses EncodeInstanceImage.
func DecodeInstanceImage(b []byte) (*InstanceImage, error) { return unmarshalInstanceImage(b) }

// SendMigration drives the source side of the migration protocol: receive
// the destination's endorsement key offer, then ship the domain image and
// the guard-protected instance image, and wait for the acknowledgement.
func SendMigration(conn io.ReadWriter, m *Manager, domImg *xen.DomainImage, instID InstanceID) error {
	if _, err := conn.Write(migMagic); err != nil {
		return err
	}
	ekMsg, err := readMsg(conn, 1<<16)
	if err != nil {
		return fmt.Errorf("vtpm: receiving destination EK: %w", err)
	}
	var destEK *rsa.PublicKey
	if len(ekMsg) > 0 {
		destEK, err = tpm.UnmarshalPublicKey(ekMsg)
		if err != nil {
			return fmt.Errorf("vtpm: destination EK: %w", err)
		}
	}
	instImg, err := m.ExportInstance(instID, destEK)
	if err != nil {
		return err
	}
	if err := writeMsg(conn, marshalDomainImage(domImg)); err != nil {
		return err
	}
	if err := writeMsg(conn, marshalInstanceImage(instImg)); err != nil {
		return err
	}
	// The acknowledgement is "OK" or a NAK carrying the destination's error
	// text, which can be long.
	ack, err := readMsg(conn, 4096)
	if err != nil {
		return err
	}
	if string(ack) != "OK" {
		return fmt.Errorf("vtpm: destination rejected migration: %q", ack)
	}
	return nil
}

// ReceiveMigration drives the destination side: offer the local endorsement
// key, receive both images, import the instance and return the pieces for
// the host to finish (restore domain, rebind, reconnect).
func ReceiveMigration(conn io.ReadWriter, m *Manager, localEK *rsa.PublicKey) (*xen.DomainImage, InstanceID, error) {
	magic := make([]byte, len(migMagic))
	if _, err := io.ReadFull(conn, magic); err != nil {
		return nil, 0, err
	}
	if string(magic) != string(migMagic) {
		return nil, 0, fmt.Errorf("%w: bad magic %q", ErrBadImage, magic)
	}
	var ekBytes []byte
	if localEK != nil {
		ekBytes = marshalPub(localEK)
	}
	if err := writeMsg(conn, ekBytes); err != nil {
		return nil, 0, err
	}
	domMsg, err := readMsg(conn, maxMigMessage)
	if err != nil {
		return nil, 0, err
	}
	domImg, err := unmarshalDomainImage(domMsg)
	if err != nil {
		return nil, 0, err
	}
	instMsg, err := readMsg(conn, maxMigMessage)
	if err != nil {
		return nil, 0, err
	}
	instImg, err := unmarshalInstanceImage(instMsg)
	if err != nil {
		return nil, 0, err
	}
	id, err := m.ImportInstance(instImg)
	if err != nil {
		writeMsg(conn, []byte(err.Error())) //nolint:errcheck // best-effort NAK
		return nil, 0, err
	}
	if err := writeMsg(conn, []byte("OK")); err != nil {
		return nil, 0, err
	}
	return domImg, id, nil
}

// marshalPub serializes a public key with the tpm wire helpers.
func marshalPub(k *rsa.PublicKey) []byte {
	w := tpm.NewWriter()
	w.B32(k.N.Bytes())
	w.U32(uint32(k.E))
	return w.Bytes()
}
