package rpi

import (
	"log"

	"rpeer/internal/core"
	"rpeer/internal/wal"
)

// config is the resolved engine configuration.
type config struct {
	opt       core.Options
	threshold float64

	// Persistence knobs (Open/Replay only; New ignores them).
	sync      wal.Policy
	snapEvery uint64
	snapSet   bool        // WithSnapshotEvery given (0 means "disabled", not "default")
	retain    int         // WithSnapshotRetention; 0 keeps every file
	logger    *log.Logger // WithLogger; log.Default() otherwise
	walFS     wal.FS

	// applyHook, when set, runs inside Apply after the delta is
	// journaled and before memory is mutated (WithApplyHook).
	applyHook func(seq uint64, d Delta)
}

func defaultConfig() config {
	return config{
		opt:       core.DefaultOptions(),
		threshold: core.DefaultBaselineThresholdMs,
		logger:    log.Default(),
	}
}

// Option configures an Engine at construction.
type Option func(*config)

// WithWorkers bounds the shard pool the per-membership classification
// fans out over: 0 (the default) uses one worker per CPU, 1 runs
// serially. Reports are bit-identical for every worker count.
func WithWorkers(n int) Option {
	return func(c *config) { c.opt.Workers = n }
}

// WithThreshold sets the RTT threshold (milliseconds) of the Castro et
// al. baseline served by Engine.Baseline. The default is 10 ms.
func WithThreshold(ms float64) Option {
	return func(c *config) { c.threshold = ms }
}

// WithApplyHook installs a fault-injection hook that Apply calls with
// the sequence number it is about to commit, after the delta is
// journaled and before memory is mutated. A hook that panics models an
// engine bug at the worst possible moment (delta durable, state not
// yet updated) — the lever the supervisor quarantine tests and the
// `rpi-bot -faults` fault cycles pull. Production engines leave it nil.
func WithApplyHook(h func(seq uint64, d Delta)) Option {
	return func(c *config) { c.applyHook = h }
}

// WithWALFS swaps the filesystem seam underneath a persistent engine's
// log and snapshot stores. The fault-injection hook of the crash tests
// and the `rpi-bot -faults` fault cycles (wal.NewMemFS); production
// engines keep the default OS filesystem.
func WithWALFS(fsys wal.FS) Option {
	return func(c *config) { c.walFS = fsys }
}
