package wal

import (
	"bytes"
	"testing"
)

// TestWriteFileAtomicSurvivesCrashAtEveryOp overwrites an existing file
// and crashes the machine at every mutating operation of the publish:
// after the power cut the path must hold the old bytes or the new
// bytes, whole — never nothing and never a part, whatever share of the
// unsynced pages reached the disk.
func TestWriteFileAtomicSurvivesCrashAtEveryOp(t *testing.T) {
	old, nu := []byte("old manifest"), []byte("the new, longer manifest")
	for _, keep := range []int{0, 4, len(nu)} {
		for crashAt := 1; ; crashAt++ {
			fsys := NewMemFS()
			if err := fsys.MkdirAll("d"); err != nil {
				t.Fatal(err)
			}
			if err := WriteFileAtomic(fsys, "d/f.json", old); err != nil {
				t.Fatal(err)
			}
			baseline := fsys.Ops()

			fsys.InjectAt(crashAt, Fault{Mode: FaultCrash, Partial: keep})
			err := WriteFileAtomic(fsys, "d/f.json", nu)
			crashed := fsys.Crashed()
			fsys.PowerFail(keep)

			got, ok := fsys.ReadFile("d/f.json")
			if !ok || (!bytes.Equal(got, old) && !bytes.Equal(got, nu)) {
				t.Fatalf("keep %d, crash at op %d: path holds %q (present %v), want old or new bytes", keep, crashAt, got, ok)
			}
			if err == nil && !crashed {
				// The publish outran the injection point: matrix exhausted.
				if fsys.Ops()-baseline >= crashAt {
					t.Fatalf("keep %d: clean publish did not reach op %d", keep, crashAt)
				}
				if !bytes.Equal(got, nu) {
					t.Fatalf("keep %d: clean publish left %q", keep, got)
				}
				break
			}
		}
	}
}
