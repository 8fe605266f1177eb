package storage

import (
	"sync"
	"testing"
)

// BenchmarkPoolConcurrentGet measures 8 goroutines hammering the hit
// path of a fully warmed pool: every Get and Release takes the pool's
// one lock once. Metered charges are those of a serial run.
func BenchmarkPoolConcurrentGet(b *testing.B) {
	const nPages = 1024
	const workers = 8
	d := NewDisk(256)
	m := NewMeter()
	p := NewPool(d, m, nPages)
	f := d.Open("r")
	for i := 0; i < nPages; i++ {
		f.Alloc()
	}
	for i := 0; i < nPages; i++ { // warm: every access below is a hit
		fr, err := p.Get(f, PageNum(i))
		if err != nil {
			b.Fatal(err)
		}
		p.Release(fr)
	}
	b.ResetTimer()
	var wg sync.WaitGroup
	per := b.N/workers + 1
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(rng uint32) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				rng = rng*1664525 + 1013904223 // LCG: cheap page scatter
				fr, err := p.Get(f, PageNum(rng%nPages))
				if err != nil {
					panic(err)
				}
				if err := p.Release(fr); err != nil {
					panic(err)
				}
			}
		}(uint32(w + 1))
	}
	wg.Wait()
	elapsed := b.Elapsed()
	if s := elapsed.Seconds(); s > 0 {
		b.ReportMetric(float64(per*workers)/s, "gets/s")
	}
}
