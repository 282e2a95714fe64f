// Package core implements the paper's contribution: the improved vTPM
// access-control design for Xen, alongside the stock-Xen baseline it is
// evaluated against.
//
// The improved design (ImprovedGuard) closes the gaps the abstract names —
// host-side attackers harvesting guest secrets with CPU/memory dump tooling
// — with four mechanisms:
//
//  1. Identity binding: vTPM access is keyed to the guest's measured launch
//     digest, not to its reusable, forgeable domain ID.
//  2. An authenticated, encrypted command channel between the guest
//     frontend and the manager, with strictly monotonic sequence numbers:
//     a compromised dom0 component can neither forge a guest's commands nor
//     replay old ones, and ring pages carry only ciphertext.
//  3. Default-deny ordinal policy, evaluated per (identity, instance,
//     ordinal) with a decision cache.
//  4. Sealed state: vTPM instance state is envelope-encrypted under keys
//     derived from a master secret sealed to the hardware TPM; it is never
//     at rest or mirrored in memory as plaintext, and migration envelopes
//     are encrypted to the destination host's TPM-resident bind key.
//
// The baseline (BaselineGuard) reproduces the deployed Xen vTPM behaviour:
// instance-to-domain-ID routing as the only check, plaintext state on disk
// and in manager memory, plaintext migration.
package core

import (
	"fmt"
	"sync"
	"sync/atomic"

	"xvtpm/internal/tpm"
	"xvtpm/internal/vtpm"
	"xvtpm/internal/xen"
)

// Effect is a policy decision.
type Effect int

// Policy effects.
const (
	Deny Effect = iota
	Allow
)

// String implements fmt.Stringer.
func (e Effect) String() string {
	if e == Allow {
		return "allow"
	}
	return "deny"
}

// Group names a set of TPM ordinals that policy rules reference together.
type Group string

// The ordinal groups the policy language knows.
const (
	GroupAdmin     Group = "admin"     // startup, self-test, sessions, capabilities
	GroupPCR       Group = "pcr"       // extend, read, reset
	GroupAttest    Group = "attest"    // quote, identities
	GroupSealing   Group = "sealing"   // seal, unseal, unbind
	GroupKeys      Group = "keys"      // key creation, loading, signing
	GroupOwnership Group = "ownership" // take/clear ownership
	GroupNV        Group = "nv"        // non-volatile storage
	GroupRandom    Group = "random"    // rng access
)

// groupOrdinals maps each group to its TPM 1.2 member ordinals.
var groupOrdinals = map[Group][]uint32{
	GroupAdmin: {
		tpm.OrdStartup, tpm.OrdSaveState, tpm.OrdSelfTestFull, tpm.OrdContinueSelfTest,
		tpm.OrdGetTestResult, tpm.OrdOIAP, tpm.OrdOSAP, tpm.OrdTerminateHandle,
		tpm.OrdFlushSpecific, tpm.OrdGetCapability, tpm.OrdReadPubek,
	},
	GroupPCR:       {tpm.OrdExtend, tpm.OrdPCRRead, tpm.OrdPCRReset},
	GroupAttest:    {tpm.OrdQuote, tpm.OrdMakeIdentity, tpm.OrdActivateIdentity},
	GroupSealing:   {tpm.OrdSeal, tpm.OrdUnseal, tpm.OrdUnBind},
	GroupKeys:      {tpm.OrdCreateWrapKey, tpm.OrdLoadKey2, tpm.OrdGetPubKey, tpm.OrdSign},
	GroupOwnership: {tpm.OrdTakeOwnership, tpm.OrdOwnerClear, tpm.OrdForceClear},
	GroupNV:        {tpm.OrdNVDefineSpace, tpm.OrdNVWriteValue, tpm.OrdNVReadValue},
	GroupRandom:    {tpm.OrdGetRandom, tpm.OrdStirRandom},
}

// group20Codes maps each group to its TPM 2.0 command-code members. The
// groups are shared across profiles — a rule granting GroupPCR grants
// PCR-class commands to a 1.2 and a 2.0 guest alike — but membership is
// resolved per profile, so a numeric collision between a 1.2 ordinal and a
// 2.0 TPM2_CC_* value can never cross group boundaries.
var group20Codes = map[Group][]uint32{
	GroupAdmin: {
		tpm.TPM2CCStartup, tpm.TPM2CCShutdown, tpm.TPM2CCSelfTest,
		tpm.TPM2CCGetTestResult, tpm.TPM2CCGetCapability,
		tpm.TPM2CCStartAuthSession, tpm.TPM2CCFlushContext, tpm.TPM2CCReadPublic,
	},
	GroupPCR:    {tpm.TPM2CCPCRExtend, tpm.TPM2CCPCRRead, tpm.TPM2CCPCRReset},
	GroupAttest: {tpm.TPM2CCQuote},
	GroupRandom: {tpm.TPM2CCGetRandom, tpm.TPM2CCStirRandom},
}

// GroupOf returns the group a command code belongs to under a profile (admin
// for unknown, which still default-denies unless admin is granted).
// AnyProfile resolves to the 1.2 table, matching NewEngine's default.
func GroupOf(p tpm.Profile, code uint32) Group {
	var m map[uint32]Group
	if p == tpm.Profile20 {
		m = code20ToGroup
	} else {
		m = ordinalToGroup
	}
	g, ok := m[code]
	if !ok {
		return GroupAdmin
	}
	return g
}

func invertGroups(src map[Group][]uint32) map[uint32]Group {
	m := make(map[uint32]Group)
	for g, codes := range src {
		for _, c := range codes {
			m[c] = g
		}
	}
	return m
}

var (
	ordinalToGroup = invertGroups(groupOrdinals)
	code20ToGroup  = invertGroups(group20Codes)
)

// AnyIdentity matches every launch identity in a rule.
var AnyIdentity = xen.LaunchDigest{}

// AnyInstance matches every instance in a rule.
const AnyInstance vtpm.InstanceID = 0

// Rule is one policy statement. Zero-valued selectors are wildcards; a rule
// names either a Group or a specific Ordinal (Ordinal wins if both set).
// Profile narrows the rule to one command profile: an Ordinal-selecting rule
// for a 1.2 ordinal that numerically collides with a 2.0 command code should
// carry Profile: tpm.Profile12 so the 2.0 instance is not accidentally
// granted (or denied) the colliding command. Group-selecting rules resolve
// membership per profile, so they are collision-safe even with
// Profile: AnyProfile.
type Rule struct {
	Identity xen.LaunchDigest
	Instance vtpm.InstanceID
	Profile  tpm.Profile
	Group    Group
	Ordinal  uint32
	Effect   Effect
}

// matches reports whether a rule applies to a request.
func (r Rule) matches(p tpm.Profile, id xen.LaunchDigest, inst vtpm.InstanceID, ordinal uint32) bool {
	if r.Identity != AnyIdentity && r.Identity != id {
		return false
	}
	if r.Instance != AnyInstance && r.Instance != inst {
		return false
	}
	if r.Profile != tpm.AnyProfile && r.Profile != p {
		return false
	}
	if r.Ordinal != 0 {
		return r.Ordinal == ordinal
	}
	if r.Group != "" {
		return r.Group == GroupOf(p, ordinal)
	}
	return true
}

// Policy is an ordered, first-match rule list with a default effect of Deny
// and an optional decision cache.
//
// The read path is lock-free: the rule list and cache toggle live in an
// immutable table behind an atomic pointer, and the decision cache is a
// sync.Map inside that table. Writers (Append/Prepend/RemoveInstance/
// SetCache) build a fresh table — with an empty cache, since any rule
// change can invalidate any cached decision — and swap it in under
// writeMu. Evaluate never blocks on a concurrent policy edit, and
// concurrent Evaluates never contend.
type Policy struct {
	table   atomic.Pointer[policyTable]
	writeMu sync.Mutex // serializes table swaps
	hits    atomic.Uint64
	misses  atomic.Uint64
	// gen counts rule mutations. External memoizers (the guard's
	// admission-decision cache) tag their entries with the generation they
	// were computed under and treat a mismatch as a miss, so a policy edit
	// invalidates every derived cache with one atomic increment. The
	// internal epoch flush does NOT bump it: flushing re-publishes the same
	// rules, so previously derived verdicts remain correct.
	gen atomic.Uint64
}

// Generation returns the policy's mutation counter. It changes on every
// Append/Prepend/RemoveInstance/SetCache, never on internal cache
// maintenance.
func (p *Policy) Generation() uint64 { return p.gen.Load() }

// policyTable is one immutable policy snapshot. rules is never mutated after
// publication; the cache fills in place (sync.Map) with cacheLen tracking
// its size for the epoch flush.
type policyTable struct {
	rules    []Rule
	useCache bool
	cache    sync.Map // policyKey -> Effect
	cacheLen atomic.Int64
}

// policyKey carries the profile so a 1.2 ordinal and a numerically equal 2.0
// command code can never share (and therefore never cross-poison) a cached
// verdict.
type policyKey struct {
	id      xen.LaunchDigest
	inst    vtpm.InstanceID
	profile tpm.Profile
	ordinal uint32
}

// policyCacheCap bounds the decision cache.
const policyCacheCap = 16384

// NewPolicy builds a policy from rules, evaluated first-match, default deny.
// The decision cache is enabled; SetCache(false) disables it (experiment E5
// measures both).
func NewPolicy(rules ...Rule) *Policy {
	p := &Policy{}
	p.table.Store(&policyTable{
		rules:    append([]Rule(nil), rules...),
		useCache: true,
	})
	return p
}

// DefaultGuestPolicy grants a guest identity the full non-management command
// set on its own instance: the policy shape a provisioned guest gets.
func DefaultGuestPolicy(id xen.LaunchDigest, inst vtpm.InstanceID) []Rule {
	groups := []Group{GroupAdmin, GroupPCR, GroupAttest, GroupSealing, GroupKeys, GroupOwnership, GroupNV, GroupRandom}
	rules := make([]Rule, 0, len(groups))
	for _, g := range groups {
		rules = append(rules, Rule{Identity: id, Instance: inst, Group: g, Effect: Allow})
	}
	return rules
}

// SetCache toggles the decision cache, clearing it.
func (p *Policy) SetCache(on bool) {
	p.writeMu.Lock()
	defer p.writeMu.Unlock()
	t := p.table.Load()
	p.table.Store(&policyTable{rules: t.rules, useCache: on})
	p.gen.Add(1)
	p.hits.Store(0)
	p.misses.Store(0)
}

// Append adds rules at the end of the list (lower priority) and clears the
// cache.
func (p *Policy) Append(rules ...Rule) {
	p.writeMu.Lock()
	defer p.writeMu.Unlock()
	t := p.table.Load()
	merged := make([]Rule, 0, len(t.rules)+len(rules))
	merged = append(append(merged, t.rules...), rules...)
	p.table.Store(&policyTable{rules: merged, useCache: t.useCache})
	p.gen.Add(1)
}

// Prepend adds rules at the front of the list (highest priority) and clears
// the cache.
func (p *Policy) Prepend(rules ...Rule) {
	p.writeMu.Lock()
	defer p.writeMu.Unlock()
	t := p.table.Load()
	merged := make([]Rule, 0, len(t.rules)+len(rules))
	merged = append(append(merged, rules...), t.rules...)
	p.table.Store(&policyTable{rules: merged, useCache: t.useCache})
	p.gen.Add(1)
}

// RemoveInstance drops every rule naming instance inst — the default rules
// the guest was granted and any added for it since — and clears the cache.
// Hosts call it when an instance is destroyed, so the rule list tracks the
// live guests rather than every guest the host ever had. Wildcard rules
// (AnyInstance) stay. Reports how many rules went.
func (p *Policy) RemoveInstance(inst vtpm.InstanceID) int {
	if inst == AnyInstance {
		return 0
	}
	p.writeMu.Lock()
	defer p.writeMu.Unlock()
	t := p.table.Load()
	kept := make([]Rule, 0, len(t.rules))
	for _, r := range t.rules {
		if r.Instance != inst {
			kept = append(kept, r)
		}
	}
	removed := len(t.rules) - len(kept)
	if removed > 0 {
		p.table.Store(&policyTable{rules: kept, useCache: t.useCache})
		p.gen.Add(1)
	}
	return removed
}

// Len returns the rule count.
func (p *Policy) Len() int {
	return len(p.table.Load().rules)
}

// CacheStats reports decision-cache hits and misses.
func (p *Policy) CacheStats() (hits, misses uint64) {
	return p.hits.Load(), p.misses.Load()
}

// Evaluate returns the effect for one request under the requesting
// instance's command profile. The path is lock-free: one atomic table load,
// a cache probe, and (on miss) a scan of the immutable rule list.
func (p *Policy) Evaluate(profile tpm.Profile, id xen.LaunchDigest, inst vtpm.InstanceID, ordinal uint32) Effect {
	key := policyKey{id: id, inst: inst, profile: profile, ordinal: ordinal}
	t := p.table.Load()
	if t.useCache {
		if e, ok := t.cache.Load(key); ok {
			p.hits.Add(1)
			return e.(Effect)
		}
	}
	effect := Deny
	for _, r := range t.rules {
		if r.matches(profile, id, inst, ordinal) {
			effect = r.Effect
			break
		}
	}
	p.misses.Add(1)
	if t.useCache {
		if _, loaded := t.cache.LoadOrStore(key, effect); !loaded {
			if t.cacheLen.Add(1) >= policyCacheCap {
				// Epoch flush: publish a fresh table (same rules, empty
				// cache), but only if nobody else has swapped the table in
				// the meantime.
				p.writeMu.Lock()
				if p.table.Load() == t {
					p.table.Store(&policyTable{rules: t.rules, useCache: t.useCache})
				}
				p.writeMu.Unlock()
			}
		}
	}
	return effect
}

// String summarizes the policy for diagnostics.
func (p *Policy) String() string {
	t := p.table.Load()
	return fmt.Sprintf("policy(%d rules, default deny, cache=%v)", len(t.rules), t.useCache)
}
