package core

import (
	"sync"
	"testing"

	"xvtpm/internal/tpm"
	"xvtpm/internal/vtpm"
	"xvtpm/internal/xen"
)

// admitMatrixOrdinals is every ordinal the policy language knows plus one it
// does not (0xDEAD maps to GroupAdmin via the unknown-ordinal rule).
func admitMatrixOrdinals() []uint32 {
	ords := []uint32{0xDEAD}
	for _, group := range groupOrdinals {
		ords = append(ords, group...)
	}
	return ords
}

// TestAdmitCacheEquivalence replays the full (identity × instance × ordinal)
// decision matrix against a cached and an uncached guard sharing one policy,
// twice (cold then warm), then mutates the policy and rebinding state and
// replays again. Every verdict must match Policy.Evaluate exactly — the cache
// may never change a decision, before or after invalidation.
func TestAdmitCacheEquivalence(t *testing.T) {
	idA, idB := launchOf("guest-a"), launchOf("guest-b")
	identities := []xen.LaunchDigest{idA, idB, AnyIdentity}
	instances := []vtpm.InstanceID{1, 2, 17} // 1 and 17 share a shard (16 shards)
	ordinals := admitMatrixOrdinals()

	policy := NewPolicy(DefaultGuestPolicy(idA, 1)...)
	policy.Append(Rule{Identity: idB, Instance: 2, Group: GroupRandom, Effect: Allow})
	cached := NewImprovedGuard(nil, policy)
	uncached := NewImprovedGuard(nil, policy)
	uncached.SetAdmitCache(false)

	replay := func(tag string) {
		t.Helper()
		for _, id := range identities {
			for _, inst := range instances {
				for _, ord := range ordinals {
					want := policy.Evaluate(tpm.Profile12, id, inst, ord)
					if got := cached.evaluateAdmit(tpm.Profile12, id, inst, ord); got != want {
						t.Fatalf("%s: cached(%x…, %d, %#x) = %v, want %v", tag, id[:4], inst, ord, got, want)
					}
					if got := uncached.evaluateAdmit(tpm.Profile12, id, inst, ord); got != want {
						t.Fatalf("%s: uncached(%x…, %d, %#x) = %v, want %v", tag, id[:4], inst, ord, got, want)
					}
				}
			}
		}
	}

	replay("cold")
	replay("warm") // second pass hits the cache
	if s := cached.AdmissionStats(); s.CacheHits == 0 {
		t.Fatal("warm replay produced no cache hits")
	}
	if s := uncached.AdmissionStats(); s.CacheHits != 0 {
		t.Fatalf("uncached guard reported %d hits", s.CacheHits)
	}

	// Policy mutation: verdicts flip for idB; the caches must follow.
	policy.Prepend(Rule{Identity: idB, Group: GroupRandom, Effect: Deny})
	replay("post-mutation")

	// Rebind/migration-style invalidation, then replay once more.
	cached.InvalidateAdmit(1)
	cached.InvalidateAdmit(2)
	replay("post-invalidation")
}

func TestAdmitCachePolicyMutationInvalidates(t *testing.T) {
	id := launchOf("guest")
	policy := NewPolicy(Rule{Identity: id, Instance: 1, Group: GroupRandom, Effect: Allow})
	g := NewImprovedGuard(nil, policy)

	if e := g.evaluateAdmit(tpm.Profile12, id, 1, tpm.OrdGetRandom); e != Allow {
		t.Fatalf("pre-edit = %v", e)
	}
	g.evaluateAdmit(tpm.Profile12, id, 1, tpm.OrdGetRandom) // warm the entry
	policy.Prepend(Rule{Identity: id, Instance: 1, Group: GroupRandom, Effect: Deny})
	if e := g.evaluateAdmit(tpm.Profile12, id, 1, tpm.OrdGetRandom); e != Deny {
		t.Fatal("cached Allow survived a policy edit")
	}
}

func TestAdmitCacheInvalidateFlushesOnlyOwningShard(t *testing.T) {
	id := launchOf("guest")
	policy := NewPolicy(Rule{Effect: Allow}) // allow-all keeps the matrix simple
	g := NewImprovedGuard(nil, policy)

	// Instances 1 and 2 live in different shards; 17 shares instance 1's.
	for _, inst := range []vtpm.InstanceID{1, 2, 17} {
		g.evaluateAdmit(tpm.Profile12, id, inst, tpm.OrdGetRandom)
	}
	if g.shard(1) != g.shard(17) || g.shard(1) == g.shard(2) {
		t.Fatal("shard layout assumption broken")
	}
	g.InvalidateAdmit(1)
	if g.shard(1).admit.Load() != nil {
		t.Fatal("owning shard not flushed")
	}
	if tbl := g.shard(2).admit.Load(); tbl == nil || len(tbl.m) == 0 {
		t.Fatal("unrelated shard was flushed too")
	}
}

func TestAdmitCacheResetChannelInvalidates(t *testing.T) {
	g, _ := newImproved(t, "admit-reset")
	inst := testInstance(3, "guest")
	g.Policy().Append(DefaultGuestPolicy(inst.BoundLaunch, inst.ID)...)
	g.evaluateAdmit(tpm.Profile12, inst.BoundLaunch, inst.ID, tpm.OrdGetRandom)
	if g.shard(inst.ID).admit.Load() == nil {
		t.Fatal("cache not warmed")
	}
	// ResetChannel is the rebind/migration entry point; it must start the
	// instance's shard cold.
	g.ResetChannel(inst.ID)
	if g.shard(inst.ID).admit.Load() != nil {
		t.Fatal("rebind left stale admission verdicts behind")
	}
}

func TestAdmitCacheToggleOffFlushes(t *testing.T) {
	id := launchOf("guest")
	g := NewImprovedGuard(nil, NewPolicy(Rule{Effect: Allow}))
	g.evaluateAdmit(tpm.Profile12, id, 1, tpm.OrdGetRandom)
	g.SetAdmitCache(false)
	for i := range g.shards {
		if g.shards[i].admit.Load() != nil {
			t.Fatalf("shard %d still holds a table after disable", i)
		}
	}
	g.evaluateAdmit(tpm.Profile12, id, 1, tpm.OrdGetRandom)
	if g.shard(1).admit.Load() != nil {
		t.Fatal("disabled cache still caching")
	}
	g.SetAdmitCache(true)
	g.evaluateAdmit(tpm.Profile12, id, 1, tpm.OrdGetRandom)
	if g.shard(1).admit.Load() == nil {
		t.Fatal("re-enabled cache not caching")
	}
}

// TestAdmitCacheEvaluateDuringInvalidationRace hammers evaluateAdmit from
// many goroutines while the policy mutates and shards flush concurrently.
// Run under -race this checks the lock-free hit path against the
// copy-on-write publishers; in any mode it checks that a verdict observed
// mid-flight is one the policy could have produced (the rule set only ever
// toggles GroupRandom for the hammered identity, so both effects are legal
// mid-edit but the call must never deadlock, panic or return junk).
func TestAdmitCacheEvaluateDuringInvalidationRace(t *testing.T) {
	id := launchOf("guest")
	policy := NewPolicy(Rule{Identity: id, Group: GroupRandom, Effect: Allow})
	g := NewImprovedGuard(nil, policy)

	const readers = 8
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < readers; w++ {
		wg.Add(1)
		go func(inst vtpm.InstanceID) {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				e := g.evaluateAdmit(tpm.Profile12, id, inst, tpm.OrdGetRandom)
				if e != Allow && e != Deny {
					t.Errorf("impossible effect %v", e)
					return
				}
			}
		}(vtpm.InstanceID(w + 1))
	}
	for i := 0; i < 200; i++ {
		switch i % 3 {
		case 0:
			policy.Prepend(Rule{Identity: id, Group: GroupRandom, Effect: Effect(i % 2)})
		case 1:
			g.InvalidateAdmit(vtpm.InstanceID(i%readers + 1))
		case 2:
			g.SetAdmitCache(i%2 == 0)
		}
	}
	close(stop)
	wg.Wait()
}

// Removing a destroyed instance's rules must also retire the admissions the
// guard cached for it: a later command naming the instance — a revived or
// reused ID — is refused rather than admitted from the cache.
func TestAdmitCacheRemoveInstanceInvalidates(t *testing.T) {
	id, other := launchOf("guest"), launchOf("other")
	policy := NewPolicy(DefaultGuestPolicy(id, 1)...)
	policy.Append(DefaultGuestPolicy(other, 2)...)
	g := NewImprovedGuard(nil, policy)
	for i := 0; i < 2; i++ { // cold, then warm
		if e := g.evaluateAdmit(tpm.Profile12, id, 1, tpm.OrdExtend); e != Allow {
			t.Fatalf("pass %d: live guest refused: %v", i, e)
		}
	}
	gen := policy.Generation()
	if n := policy.RemoveInstance(1); n != 8 {
		t.Fatalf("RemoveInstance removed %d rules, want 8", n)
	}
	if policy.Generation() == gen {
		t.Fatal("RemoveInstance did not bump the generation")
	}
	if e := g.evaluateAdmit(tpm.Profile12, id, 1, tpm.OrdExtend); e != Deny {
		t.Fatal("cached Allow survived the instance's removal")
	}
	if e := g.evaluateAdmit(tpm.Profile12, other, 2, tpm.OrdExtend); e != Allow {
		t.Fatal("removing one instance's rules refused another's")
	}
	if policy.Len() != 8 {
		t.Fatalf("Len = %d, want 8", policy.Len())
	}
	gen = policy.Generation()
	if n := policy.RemoveInstance(1); n != 0 || policy.Generation() != gen {
		t.Fatalf("second RemoveInstance removed %d rules, generation %d -> %d", n, gen, policy.Generation())
	}
}
