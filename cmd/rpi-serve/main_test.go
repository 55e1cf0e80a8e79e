package main

import (
	"context"
	"io"
	"log"
	"os"
	"path/filepath"
	"testing"
	"time"

	"rpeer/internal/host"
	"rpeer/pkg/rpi"
)

func TestTenantInputs(t *testing.T) {
	for _, tc := range []struct {
		profile string
		ok      bool
	}{
		{"tiny", true},
		{"paper-0", false},
		{"paper-x", false},
		{"bogus", false},
	} {
		t.Run(tc.profile, func(t *testing.T) {
			in, err := tenantInputs(host.TenantSpec{Name: "t", Seed: 3, Profile: tc.profile})
			if tc.ok != (err == nil) {
				t.Fatalf("err = %v, want ok=%v", err, tc.ok)
			}
			if tc.ok && len(in.Dataset.IfaceIXP) == 0 {
				t.Fatal("built an empty world")
			}
		})
	}
}

func TestPersistOpts(t *testing.T) {
	for _, tc := range []struct {
		fsync string
		ok    bool
	}{
		{"every", true},
		{"interval", true},
		{"off", true},
		{"always", false},
		{"", false},
	} {
		t.Run(tc.fsync, func(t *testing.T) {
			if _, err := persistOpts(tc.fsync, time.Second, 8); tc.ok != (err == nil) {
				t.Fatalf("err = %v, want ok=%v", err, tc.ok)
			}
		})
	}
}

// TestInputsFor: a -world file is served as the default tenant's
// world, so it is rejected when there is no default tenant.
func TestInputsFor(t *testing.T) {
	for _, tc := range []struct {
		name, world, def string
		ok               bool
	}{
		{"generated", "", "default", true},
		{"generated-no-default", "", "", true},
		{"world", "w.rpw", "default", true},
		{"world-no-default", "w.rpw", "", false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			f, err := inputsFor(tc.world, tc.def)
			if tc.ok != (err == nil) {
				t.Fatalf("err = %v, want ok=%v", err, tc.ok)
			}
			if tc.ok && f == nil {
				t.Fatal("nil factory")
			}
		})
	}
}

// TestMigrateLegacyDir: a data directory written by the single-engine
// server (WAL and snapshots at its top level) moves into the default
// tenant's directory, and the tenant recovers the same seq from it.
func TestMigrateLegacyDir(t *testing.T) {
	spec := host.TenantSpec{Name: "default", Seed: 3, Profile: "tiny"}
	in, err := tenantInputs(spec)
	if err != nil {
		t.Fatal(err)
	}
	quiet := log.New(io.Discard, "", 0)
	dir := t.TempDir()
	eng, _, err := rpi.Open(dir, in, rpi.WithLogger(quiet))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Apply(context.Background(), rpi.ChurnDelta(in, 0.05, 1)); err != nil {
		t.Fatal(err)
	}
	if err := eng.Close(); err != nil {
		t.Fatal(err)
	}

	n, err := migrateLegacyDir(dir, spec.Name)
	if err != nil || n == 0 {
		t.Fatalf("migrate: moved %d files, err %v", n, err)
	}
	if left, _ := filepath.Glob(filepath.Join(dir, "*-*")); len(left) != 0 {
		t.Fatalf("files left at the top level: %v", left)
	}
	if n, err := migrateLegacyDir(dir, spec.Name); n != 0 || err != nil {
		t.Fatalf("second migrate: moved %d files, err %v", n, err)
	}

	h, err := host.Open(host.Config{Dir: dir, Inputs: tenantInputs, Logger: quiet})
	if err != nil {
		t.Fatal(err)
	}
	defer h.Close()
	if err := h.Create(spec); err != nil {
		t.Fatal(err)
	}
	lease, err := h.Lease(context.Background(), spec.Name)
	if err != nil {
		t.Fatal(err)
	}
	defer lease.Release()
	if seq := lease.Guard().Engine().Seq(); seq != 1 {
		t.Fatalf("default tenant recovered seq %d, want 1", seq)
	}
}

// TestMigrateLegacyDirRefuses: the move never guesses — not without a
// default tenant, and not over an existing tenant directory — and a
// move interrupted after staging is finished.
func TestMigrateLegacyDirRefuses(t *testing.T) {
	legacyDir := func(t *testing.T) string {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, "wal-0000000000000000.log"), []byte("x"), 0o644); err != nil {
			t.Fatal(err)
		}
		return dir
	}
	for _, tc := range []struct {
		name  string
		setup func(t *testing.T) string
		def   string
		moved int
		ok    bool
	}{
		{"missing", func(t *testing.T) string { return filepath.Join(t.TempDir(), "none") }, "default", 0, true},
		{"empty", func(t *testing.T) string { return t.TempDir() }, "default", 0, true},
		{"no-default-tenant", legacyDir, "", 0, false},
		{"tenant-dir-exists", func(t *testing.T) string {
			dir := legacyDir(t)
			if err := os.MkdirAll(filepath.Join(dir, "tenants", "default"), 0o755); err != nil {
				t.Fatal(err)
			}
			return dir
		}, "default", 0, false},
		{"finish-staged-move", func(t *testing.T) string {
			dir := t.TempDir()
			stage := filepath.Join(dir, "tenants", ".default.migrating")
			if err := os.MkdirAll(stage, 0o755); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(filepath.Join(stage, "wal-0000000000000000.log"), []byte("x"), 0o644); err != nil {
				t.Fatal(err)
			}
			return dir
		}, "default", 0, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := tc.setup(t)
			n, err := migrateLegacyDir(dir, tc.def)
			if tc.ok != (err == nil) || n != tc.moved {
				t.Fatalf("moved %d, err %v; want %d, ok=%v", n, err, tc.moved, tc.ok)
			}
			if tc.name == "finish-staged-move" {
				if _, err := os.Stat(filepath.Join(dir, "tenants", "default", "wal-0000000000000000.log")); err != nil {
					t.Fatalf("staged move not finished: %v", err)
				}
			}
		})
	}
}
