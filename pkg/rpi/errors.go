package rpi

import "errors"

// Sentinel errors of the SDK. Wrapped errors carry detail; match with
// errors.Is.
var (
	// ErrMissingInput marks a New call without the required inputs.
	ErrMissingInput = errors.New("rpi: missing required input")
	// ErrBadDelta marks an Apply call whose delta failed validation;
	// the engine state is unchanged.
	ErrBadDelta = errors.New("rpi: invalid delta")
	// ErrUnknownIXP marks a query for an IXP the dataset doesn't know.
	ErrUnknownIXP = errors.New("rpi: unknown IXP")
	// ErrUnknownStep marks a RunStep call for a step that cannot run
	// in isolation.
	ErrUnknownStep = errors.New("rpi: unknown step")
	// ErrClosed marks an Apply on a closed engine.
	ErrClosed = errors.New("rpi: engine closed")
	// ErrCanceled marks work abandoned because the caller's context was
	// canceled or timed out before the engine committed to it: the
	// engine state is unchanged, no delta was logged. Servers map it to
	// a client-disconnect status, not a server error.
	ErrCanceled = errors.New("rpi: request canceled")
	// ErrWireVersion marks a wire payload with an unsupported schema
	// version.
	ErrWireVersion = errors.New("rpi: unsupported wire schema version")
	// ErrPersistence marks a persistent engine whose write-ahead log
	// can no longer be appended to (disk failure, fsync error). The
	// engine keeps serving reads of its last state, but refuses further
	// Applies: acknowledging an unlogged delta would break the
	// recovered-state contract.
	ErrPersistence = errors.New("rpi: persistence failed")
	// ErrCorruptLog marks recovery finding silent corruption inside the
	// delta log (a checksummed record damaged with intact data after
	// it). The wrapped detail names the segment and byte offset.
	ErrCorruptLog = errors.New("rpi: corrupt delta log")
	// ErrBadSnapshot marks recovery finding no usable state where some
	// was expected, or snapshot columns inconsistent with the base.
	ErrBadSnapshot = errors.New("rpi: bad snapshot")
	// ErrBaseMismatch marks durable state whose fingerprint does not
	// match the base inputs offered to Open: the data directory belongs
	// to a different world (other seed, scale or campaign).
	ErrBaseMismatch = errors.New("rpi: data directory belongs to different base inputs")
)
