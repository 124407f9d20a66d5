package client

// Test hooks: process-global switches that intentionally break the
// client's caching discipline so the conformance harness can prove its
// oracle catches the breakage. Production code never touches these.

// cacheSkipRevalidate, when set, puts every object's currency bound out
// of reach: the cache serves entries regardless of age, and the
// restart/retune inventory revalidation keeps entries it should drop.
// The conformance runner consults it through CacheSkipRevalidate so the
// modelled cache misbehaves identically — a T-served read can then be
// staler than T cycles, which the oracle's staleness check must catch.
var cacheSkipRevalidate = false

// SetCacheSkipRevalidate toggles the stale-serve hook, returning a
// restore func for defer.
func SetCacheSkipRevalidate(on bool) (restore func()) {
	prev := cacheSkipRevalidate
	cacheSkipRevalidate = on
	return func() { cacheSkipRevalidate = prev }
}

// CacheSkipRevalidate reports whether the stale-serve hook is active.
func CacheSkipRevalidate() bool { return cacheSkipRevalidate }
