package main

import "testing"

// TestFaultCycle runs one fault cycle (an engine panic mid-apply) on a
// tiny one-tenant world: recovery, byte identity and every other fault
// SLO must hold for the run to exit 0.
func TestFaultCycle(t *testing.T) {
	if code := run([]string{"-tenants", "1", "-faults", "1"}); code != 0 {
		t.Fatalf("rpi-bot -tenants 1 -faults 1: exit status %d", code)
	}
}

func TestFaultsNeedInProcessHost(t *testing.T) {
	if code := run([]string{"-faults", "1", "-addr", "http://127.0.0.1:1"}); code != 2 {
		t.Fatalf("-faults with -addr: exit status %d, want 2", code)
	}
}
