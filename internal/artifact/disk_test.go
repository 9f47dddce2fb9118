package artifact

import (
	"encoding/binary"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"superpin/internal/jit"
	"superpin/internal/sa"
)

func TestDiskStoreCreatesMissingDir(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "nested", "cache")
	s, err := NewDiskStore(dir)
	if err != nil {
		t.Fatalf("NewDiskStore: %v", err)
	}
	if s.Dir() != dir {
		t.Fatalf("Dir() = %q, want %q", s.Dir(), dir)
	}
	if fi, err := os.Stat(dir); err != nil || !fi.IsDir() {
		t.Fatalf("cache dir not created: %v", err)
	}
}

func TestDiskStoreRejectsUnusableDir(t *testing.T) {
	// A path through a regular file can never become a directory — this
	// fails for any user, including root.
	file := filepath.Join(t.TempDir(), "occupied")
	if err := os.WriteFile(file, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := NewDiskStore(file); err == nil {
		t.Fatal("NewDiskStore accepted a regular file as cache dir")
	}
	if _, err := NewDiskStore(filepath.Join(file, "sub")); err == nil {
		t.Fatal("NewDiskStore accepted a path through a regular file")
	}
}

// TestDiskRoundtrip: a second store on the same directory loads every
// artifact from disk instead of recomputing, and the loaded results
// match the computed ones exactly.
func TestDiskRoundtrip(t *testing.T) {
	dir := t.TempDir()
	prog := tiny(t)
	key := KeyOf(prog)

	a, err := NewDiskStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	pre := a.Predecode(key, prog)
	an := a.Analysis(key, prog)
	seed := jit.NewWarmSeed()
	seed.Entries[0x1000] = jit.WarmEntry{Execs: 64, HotExit: 0x1008, HotCount: 63}
	a.MergeSeed(key, seed)
	if st := a.Stats(); st.DiskWrites != 3 || st.DiskHits != 0 {
		t.Fatalf("populate stats = %+v, want 3 writes, 0 hits", st)
	}

	b, err := NewDiskStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	pre2 := b.Predecode(key, prog)
	an2 := b.Analysis(key, prog)
	seed2 := b.Seed(key)
	if st := b.Stats(); st.DiskHits != 3 || st.DiskErrors != 0 {
		t.Fatalf("warm stats = %+v, want 3 disk hits, 0 errors", st)
	}
	if pre2.Pages() != pre.Pages() {
		t.Fatalf("loaded predecode pages = %d, want %d", pre2.Pages(), pre.Pages())
	}
	if !reflect.DeepEqual(an.Diags(), an2.Diags()) ||
		an.NumBlocks() != an2.NumBlocks() ||
		an.LiveIn(0x1000) != an2.LiveIn(0x1000) {
		t.Fatal("loaded analysis differs from computed analysis")
	}
	if seed2.Len() != 1 || seed2.Entries[0x1000].Execs != 64 {
		t.Fatalf("loaded seed = %+v, want the persisted entry", seed2)
	}
}

// TestDiskCorruptCorpus seeds one corruption per entry, sa-verifier
// corpus style: every damaged cache file must fall back silently to the
// cold path — identical results, a counted disk error, no crash, and
// never a poisoned artifact.
func TestDiskCorruptCorpus(t *testing.T) {
	prog := tiny(t)
	key := KeyOf(prog)

	// Reference artifacts from a clean store.
	ref, err := NewDiskStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	refAn := ref.Analysis(key, prog)
	refPre := ref.Predecode(key, prog)

	corruptions := []struct {
		name    string
		mutate  func(path string) error
		recover bool // expect DiskErrors (false: counted as miss)
	}{
		{"truncated to header", func(p string) error {
			return os.Truncate(p, headerSize)
		}, true},
		{"truncated mid-payload", func(p string) error {
			fi, err := os.Stat(p)
			if err != nil {
				return err
			}
			return os.Truncate(p, fi.Size()-7)
		}, true},
		{"payload bit flip", func(p string) error {
			data, err := os.ReadFile(p)
			if err != nil {
				return err
			}
			data[headerSize] ^= 0x40
			return os.WriteFile(p, data, 0o644)
		}, true},
		{"wrong magic", func(p string) error {
			data, err := os.ReadFile(p)
			if err != nil {
				return err
			}
			copy(data, "NOPE")
			return os.WriteFile(p, data, 0o644)
		}, true},
		{"stale format version", func(p string) error {
			data, err := os.ReadFile(p)
			if err != nil {
				return err
			}
			data[4], data[5] = 0xFF, 0xFF
			return os.WriteFile(p, data, 0o644)
		}, true},
		{"key mismatch (misfiled entry)", func(p string) error {
			data, err := os.ReadFile(p)
			if err != nil {
				return err
			}
			data[7] ^= 0xFF
			return os.WriteFile(p, data, 0o644)
		}, true},
		{"empty file", func(p string) error {
			return os.WriteFile(p, nil, 0o644)
		}, true},
		{"garbage file", func(p string) error {
			return os.WriteFile(p, []byte("not a cache entry at all"), 0o644)
		}, true},
		{"deleted", os.Remove, false},
	}

	for _, kd := range []kind{kindPredecode, kindSA, kindSeed} {
		for _, tc := range corruptions {
			t.Run(kd.String()+"/"+tc.name, func(t *testing.T) {
				dir := t.TempDir()
				w, err := NewDiskStore(dir)
				if err != nil {
					t.Fatal(err)
				}
				w.Predecode(key, prog)
				w.Analysis(key, prog)
				seed := jit.NewWarmSeed()
				seed.Entries[0x1000] = jit.WarmEntry{Execs: 64, HotExit: 0x1008, HotCount: 63}
				w.MergeSeed(key, seed)

				if err := tc.mutate(w.entryPath(key, kd)); err != nil {
					t.Fatalf("mutate: %v", err)
				}

				v, err := NewDiskStore(dir)
				if err != nil {
					t.Fatal(err)
				}
				pre := v.Predecode(key, prog)
				an := v.Analysis(key, prog)
				v.Seed(key)
				if pre.Pages() != refPre.Pages() {
					t.Fatalf("fallback predecode pages = %d, want %d", pre.Pages(), refPre.Pages())
				}
				if an.NumBlocks() != refAn.NumBlocks() || an.LiveIn(0x1000) != refAn.LiveIn(0x1000) {
					t.Fatal("fallback analysis differs from a cold compute")
				}
				st := v.Stats()
				if tc.recover && st.DiskErrors == 0 {
					t.Fatalf("corruption was not counted: %+v", st)
				}
				if !tc.recover && st.DiskMisses == 0 {
					t.Fatalf("deleted entry not counted as miss: %+v", st)
				}
			})
		}
	}
}

// TestDiskSAWrongImage: an sa entry copied under another image's key (or
// an image rebuilt differently at the same path) is rejected by the
// structural validation, not silently adopted.
// TestDiskSAStaleVersion: an SA entry written by an older encoding
// version must fall back to a cold analysis — counted as a disk error,
// never a decode panic or a wrong Analysis. Two stale shapes: a v1
// payload (no magic/version header) and a v2 payload (version word 2
// and a trailing interprocedural value tier).
func TestDiskSAStaleVersion(t *testing.T) {
	prog := tiny(t)
	key := KeyOf(prog)
	cur := sa.Analyze(prog).Encode()
	v2 := append([]byte{}, cur...)
	binary.LittleEndian.PutUint32(v2[4:], 2)
	v2 = append(append(v2, 1, 0), make([]byte, 16)...)
	for _, tc := range []struct {
		name  string
		stale []byte
	}{{"v1", cur[8:]}, {"v2", v2}} {
		name, stale := tc.name, tc.stale
		dir := t.TempDir()
		w, err := NewDiskStore(dir)
		if err != nil {
			t.Fatal(err)
		}
		w.writeDisk(key, kindSA, stale)

		v, err := NewDiskStore(dir)
		if err != nil {
			t.Fatal(err)
		}
		an := v.Analysis(key, prog)
		ref := sa.Analyze(prog)
		if an.NumBlocks() != ref.NumBlocks() || an.LiveIn(0x1000) != ref.LiveIn(0x1000) {
			t.Fatalf("%s: stale-version fallback differs from a cold compute", name)
		}
		if st := v.Stats(); st.DiskErrors == 0 {
			t.Fatalf("%s: stale version not counted as a disk error: %+v", name, st)
		}
		if st := v.Stats(); st.SAComputes == 0 {
			t.Fatalf("%s: stale version did not trigger a cold compute: %+v", name, st)
		}
	}
}

func TestDiskSAWrongImage(t *testing.T) {
	dir := t.TempDir()
	prog := tiny(t)
	other := buildProg(t, "gzip")
	key, okey := KeyOf(prog), KeyOf(other)

	w, err := NewDiskStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	w.Analysis(key, prog)
	// Forge: rewrite tiny's sa payload under gzip's key with a matching
	// header, simulating a misdirected-but-internally-consistent entry.
	payload := sa.Analyze(prog).Encode()
	w2, err := NewDiskStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	w2.writeDisk(okey, kindSA, payload)

	v, err := NewDiskStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	an := v.Analysis(okey, other)
	if an.NumBlocks() != sa.Analyze(other).NumBlocks() {
		t.Fatal("forged entry poisoned the analysis")
	}
	if st := v.Stats(); st.DiskErrors == 0 {
		t.Fatalf("structural rejection not counted: %+v", st)
	}
}
