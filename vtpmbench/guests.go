package main

import (
	"bytes"
	"crypto/rsa"
	"crypto/sha1"
	"crypto/sha256"
	"errors"
	"fmt"
	"sync"
	"time"

	"xvtpm/internal/tpm"
	"xvtpm/internal/vtpm"
	"xvtpm/internal/workload"
)

// Guest command runners with independent output checks. Every runner keeps
// the benchmark's own reference of what the guest's TPM must return — PCR
// chains recomputed here with SHA-1/SHA-256, the secret last sealed — and
// compares each output against it. Cheap comparisons run inline, after the
// command's completion time is taken; RSA signature checks are queued and
// run after the measured window, so verification never delays an arrival.

var errMismatch = errors.New("output check failed")

// authFor derives a guest secret from the run seed.
func authFor(seed int64, tag string, id int) (a [tpm.AuthSize]byte) {
	h := sha1.Sum([]byte(fmt.Sprintf("vtpmbench|%d|%s|%d", seed, tag, id)))
	copy(a[:], h[:])
	return a
}

// sigCheck is one queued signature verification.
type sigCheck struct {
	op     workload.Op
	pub    *rsa.PublicKey
	digest []byte
	sig    []byte
	v2     bool // TPM 2.0 quote: SHA-256 digest over TPMS_ATTEST
}

func (c sigCheck) verify() error {
	switch {
	case c.v2:
		return tpm.VerifyBatchedQuote2(c.pub, c.digest, c.sig)
	case c.op == workload.OpQuote:
		return tpm.VerifyBatchedQuote(c.pub, c.digest, c.sig)
	default:
		return tpm.VerifySHA1(c.pub, c.digest, c.sig)
	}
}

// extend1 is the TPM 1.2 extend function, SHA1(old ∥ digest).
func extend1(old [tpm.DigestSize]byte, d []byte) (out [tpm.DigestSize]byte) {
	h := sha1.New()
	h.Write(old[:])
	h.Write(d)
	copy(out[:], h.Sum(nil))
	return out
}

// extend256 is the SHA-256 bank's extend function.
func extend256(old [32]byte, d []byte) (out [32]byte) {
	h := sha256.New()
	h.Write(old[:])
	h.Write(d)
	copy(out[:], h.Sum(nil))
	return out
}

// quotePCRs is the selection a 1.2 guest quotes (as workload.Runner does).
var quotePCRs = []int{0, 1, 10}

// guest12 drives one prepared TPM 1.2 guest through workload.DefaultMix:
// owned, with a loaded signing key and a sealed secret.
type guest12 struct {
	id       int
	seed     int64
	cli      *tpm.Client
	srkAuth  [tpm.AuthSize]byte
	keyAuth  [tpm.AuthSize]byte
	dataAuth [tpm.AuthSize]byte
	key      uint32
	pub      *rsa.PublicKey
	instance vtpm.InstanceID

	// Reference state.
	pcr    [tpm.NumPCRs][tpm.DigestSize]byte
	blob   []byte
	secret []byte
	n      uint32
}

// prepare12 provisions a guest the way workload.Prepare does, and keeps the
// signing key's public half for verification.
func prepare12(cli *tpm.Client, seed int64, id, bits int) (*guest12, error) {
	g := &guest12{
		id: id, seed: seed, cli: cli,
		srkAuth:  authFor(seed, "srk", id),
		keyAuth:  authFor(seed, "key", id),
		dataAuth: authFor(seed, "data", id),
	}
	if _, err := cli.TakeOwnership(authFor(seed, "owner", id), g.srkAuth); err != nil {
		return nil, fmt.Errorf("guest %d: TakeOwnership: %w", id, err)
	}
	blob, err := cli.CreateWrapKey(tpm.KHSRK, g.srkAuth, g.keyAuth, tpm.KeyParams{
		Usage: tpm.KeyUsageSigning, Scheme: tpm.SSRSASSAPKCS1v15SHA1, Bits: uint32(bits),
	})
	if err != nil {
		return nil, fmt.Errorf("guest %d: CreateWrapKey: %w", id, err)
	}
	if g.key, err = cli.LoadKey2(tpm.KHSRK, g.srkAuth, blob); err != nil {
		return nil, fmt.Errorf("guest %d: LoadKey2: %w", id, err)
	}
	if g.pub, err = cli.GetPubKey(g.key, g.keyAuth); err != nil {
		return nil, fmt.Errorf("guest %d: GetPubKey: %w", id, err)
	}
	g.secret = []byte(fmt.Sprintf("sealed secret %d/%d/0", seed, id))
	if g.blob, err = cli.Seal(tpm.KHSRK, g.srkAuth, g.dataAuth, nil, g.secret); err != nil {
		return nil, fmt.Errorf("guest %d: Seal: %w", id, err)
	}
	return g, nil
}

// step issues op and checks its output. done is the command's completion
// time, taken before any check runs; a queued signature check is appended
// to sigs.
func (g *guest12) step(op workload.Op, sigs *[]sigCheck) (done time.Time, err error) {
	g.n++
	n := g.n
	switch op {
	case workload.OpGetRandom:
		out, err := g.cli.GetRandom(32)
		done = time.Now()
		if err == nil && len(out) != 32 {
			err = fmt.Errorf("%w: GetRandom returned %d bytes", errMismatch, len(out))
		}
		return done, err
	case workload.OpExtend:
		pcr := 10 + n%6
		m := sha1.Sum([]byte(fmt.Sprintf("m|%d|%d|%d", g.seed, g.id, n)))
		out, err := g.cli.Extend(pcr, m)
		done = time.Now()
		if err != nil {
			return done, err
		}
		g.pcr[pcr] = extend1(g.pcr[pcr], m[:])
		if out != g.pcr[pcr] {
			return done, fmt.Errorf("%w: PCR %d chain", errMismatch, pcr)
		}
		return done, nil
	case workload.OpPCRRead:
		pcr := n % tpm.NumPCRs
		out, err := g.cli.PCRRead(pcr)
		done = time.Now()
		if err == nil && out != g.pcr[pcr] {
			err = fmt.Errorf("%w: PCR %d read", errMismatch, pcr)
		}
		return done, err
	case workload.OpSeal:
		secret := []byte(fmt.Sprintf("sealed secret %d/%d/%d", g.seed, g.id, n))
		blob, err := g.cli.Seal(tpm.KHSRK, g.srkAuth, g.dataAuth, nil, secret)
		done = time.Now()
		if err != nil {
			return done, err
		}
		// The blob is opaque; the next Unseal proves it holds secret.
		g.blob, g.secret = blob, secret
		return done, nil
	case workload.OpUnseal:
		out, err := g.cli.Unseal(tpm.KHSRK, g.srkAuth, g.dataAuth, g.blob)
		done = time.Now()
		if err == nil && !bytes.Equal(out, g.secret) {
			err = fmt.Errorf("%w: Unseal returned a different secret", errMismatch)
		}
		return done, err
	case workload.OpQuote:
		var nonce [tpm.NonceSize]byte
		copy(nonce[:], fmt.Sprintf("q|%d|%d", g.id, n))
		sel := tpm.NewPCRSelection(quotePCRs...)
		q, err := g.cli.Quote(g.key, g.keyAuth, nonce, sel)
		done = time.Now()
		if err != nil {
			return done, err
		}
		want := make([][tpm.DigestSize]byte, len(quotePCRs))
		for i, p := range quotePCRs {
			want[i] = g.pcr[p]
		}
		gotSel, got, perr := tpm.ParseQuoteComposite(q.Composite)
		if perr != nil || gotSel != sel || len(got) != len(want) {
			return done, fmt.Errorf("%w: quote composite malformed", errMismatch)
		}
		for i := range want {
			if got[i] != want[i] {
				return done, fmt.Errorf("%w: quoted PCR %d", errMismatch, quotePCRs[i])
			}
		}
		digest := tpm.QuoteInfoDigest(tpm.CompositeHash(sel, want), nonce)
		*sigs = append(*sigs, sigCheck{op: op, pub: g.pub, digest: digest, sig: q.Signature})
		return done, nil
	case workload.OpSign:
		d := sha1.Sum([]byte(fmt.Sprintf("s|%d|%d|%d", g.seed, g.id, n)))
		sig, err := g.cli.Sign(g.key, g.keyAuth, d)
		done = time.Now()
		if err != nil {
			return done, err
		}
		*sigs = append(*sigs, sigCheck{op: op, pub: g.pub, digest: d[:], sig: sig})
		return done, nil
	}
	return time.Now(), fmt.Errorf("unknown op %v", op)
}

// bootList is boot-storm's fixed measurement list: each boot extends these
// events in order into PCRs 10-16, reads a few registers and quotes.
type bootList struct {
	events [][]byte
	pcr    []int
	d1     [][]byte    // SHA-1 digests of the events
	d256   [][]byte    // SHA-256 digests of the events
	reads  map[int]int // extend index → PCR read right after it
}

// Boot-storm's boot sequence: 60 Extends, 4 PCRReads, one Quote.
const (
	bootExtends = 60
	bootReads   = 4
	bootCmds    = bootExtends + bootReads + 1
)

// bootPCRs is the extended and quoted selection of a boot.
var bootPCRs = []int{10, 11, 12, 13, 14, 15, 16}

func newBootList(seed int64) *bootList {
	b := &bootList{reads: map[int]int{}}
	for k := 0; k < bootExtends; k++ {
		ev := []byte(fmt.Sprintf("boot-event|%d|%d", seed, k))
		d1 := sha1.Sum(ev)
		d256 := sha256.Sum256(ev)
		b.events = append(b.events, ev)
		b.pcr = append(b.pcr, bootPCRs[int(uint64(seed)+uint64(k))%len(bootPCRs)])
		b.d1 = append(b.d1, d1[:])
		b.d256 = append(b.d256, d256[:])
	}
	for r := 1; r <= bootReads; r++ {
		k := r*bootExtends/bootReads - 1
		b.reads[k] = b.pcr[k]
	}
	return b
}

// guest20 drives one TPM 2.0 guest through boot sequences.
type guest20 struct {
	id       int
	instance vtpm.InstanceID
	cli      *tpm.Client2
	pub      *rsa.PublicKey // endorsement primary, the quote signer
	p1       [tpm.NumPCRs][tpm.DigestSize]byte
	p2       [tpm.NumPCRs][32]byte
	n        uint32
}

// cmdTimer receives each command's op, send and completion times and
// outcome.
type cmdTimer func(op workload.Op, start, done time.Time, err error)

// boot runs the measurement list once, reporting every command to timed.
// Extends return no value; the reads and the quote check the chains the
// extends must have built.
func (g *guest20) boot(b *bootList, sigs *[]sigCheck, timed cmdTimer) {
	g.n++
	for k, ev := range b.events {
		p := b.pcr[k]
		start := time.Now()
		err := g.cli.Extend(p, ev)
		done := time.Now()
		if err == nil {
			g.p1[p] = extend1(g.p1[p], b.d1[k])
			g.p2[p] = extend256(g.p2[p], b.d256[k])
		}
		timed(workload.OpExtend, start, done, err)
		rp, ok := b.reads[k]
		if !ok {
			continue
		}
		alg, want := tpm.TPM2AlgSHA256, g.p2[rp][:]
		if k%2 == 0 {
			alg, want = tpm.TPM2AlgSHA1, g.p1[rp][:]
		}
		start = time.Now()
		got, _, err := g.cli.PCRRead(alg, rp)
		done = time.Now()
		if err == nil && !bytes.Equal(got, want) {
			err = fmt.Errorf("%w: PCR %d bank %#x read", errMismatch, rp, alg)
		}
		timed(workload.OpPCRRead, start, done, err)
	}
	nonce := []byte(fmt.Sprintf("boot|%d|%d", g.id, g.n))
	start := time.Now()
	quoted, sig, err := g.cli.Quote(nonce, bootPCRs)
	done := time.Now()
	if err == nil {
		err = g.checkQuote(nonce, quoted, sig, sigs)
	}
	timed(workload.OpQuote, start, done, err)
}

// checkQuote checks a boot's quote against the reference SHA-256 bank and
// queues its signature check.
func (g *guest20) checkQuote(nonce, quoted, sig []byte, sigs *[]sigCheck) error {
	a, err := tpm.ParseAttest2(quoted)
	if err != nil {
		return fmt.Errorf("%w: %v", errMismatch, err)
	}
	h := sha256.New()
	for _, p := range bootPCRs {
		h.Write(g.p2[p][:])
	}
	if !bytes.Equal(a.ExtraData, nonce) || !bytes.Equal(a.PCRDigest, h.Sum(nil)) {
		return fmt.Errorf("%w: quote nonce or PCR digest", errMismatch)
	}
	d := sha256.Sum256(quoted)
	*sigs = append(*sigs, sigCheck{op: workload.OpQuote, pub: g.pub, digest: d[:], sig: sig, v2: true})
	return nil
}

// forClients runs fn for items 0..n-1 on `clients` goroutines, client k
// taking the items i with i%clients == k.
func forClients(clients, n int, fn func(i int) error) error {
	var wg sync.WaitGroup
	errs := make([]error, clients)
	for k := 0; k < clients; k++ {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			for i := k; i < n; i += clients {
				if err := fn(i); err != nil {
					errs[k] = err
					return
				}
			}
		}(k)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// mixFor draws DefaultMix commands for one numbered stream of a run.
func mixFor(seed, stream int64) *workload.Stream {
	return workload.NewStream(workload.DefaultMix, seed*1_000_003+stream*7919+1)
}

// verify runs the queued signature checks and returns the failures.
func verifySigs(sigs []sigCheck) int64 {
	var bad int64
	for _, c := range sigs {
		if c.verify() != nil {
			bad++
		}
	}
	return bad
}
