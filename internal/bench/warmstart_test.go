package bench

import "testing"

func TestRunWarmstartSmall(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Scale = 0.02
	cfg.Benchmarks = []string{"gzip"}
	res, err := RunWarmstart(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.ColdSec <= 0 || res.WarmSec <= 0 || res.DiskSec <= 0 {
		t.Fatalf("missing pass timings: %+v", res)
	}
	if res.ColdTTFP > 0 && res.WarmTTFP >= res.ColdTTFP {
		t.Fatalf("warm TTFP %d not below cold %d", res.WarmTTFP, res.ColdTTFP)
	}
}
