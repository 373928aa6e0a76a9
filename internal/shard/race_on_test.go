//go:build race

package shard

// raceEnabled reports that this test binary runs under the race detector,
// whose instrumentation (and deliberate sync.Pool Put-dropping) makes
// allocation counts meaningless.
const raceEnabled = true
