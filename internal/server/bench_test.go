package server

import (
	"fmt"
	"sync"
	"testing"

	"viewmat/internal/client"
	"viewmat/internal/core"
	"viewmat/internal/pred"
	"viewmat/internal/tuple"
)

// BenchmarkWideMat is the system benchmark's wide-mat workload in one
// process, the read path's profile target: two clients over loopback,
// each issuing 1 000-row range reads of the Immediate Model-1 view of a
// 20 000-row relation at ranges spread over the view.
func BenchmarkWideMat(b *testing.B) {
	const n, clients = 20000, 2
	_, addr := startServer(b, wideMat(b, n), Config{})
	conns := make([]*client.Client, clients)
	for i := range conns {
		conns[i] = dialClient(b, addr)
	}
	var wg sync.WaitGroup
	per := b.N/clients + 1
	b.ResetTimer()
	for i, c := range conns {
		wg.Add(1)
		go func(i int, c *client.Client) {
			defer wg.Done()
			for j := 0; j < per; j++ {
				lo := int64((i*per+j)*7919) % (n/2 - 1000)
				rows, err := c.QueryView("v1", wideRange(lo).Range)
				if err != nil || len(rows) != 1000 {
					b.Errorf("client %d: %d rows, %v", i, len(rows), err)
					return
				}
			}
		}(i, c)
	}
	wg.Wait()
	b.StopTimer()
	b.ReportMetric(float64(per*clients)/b.Elapsed().Seconds(), "req/s")
}

// BenchmarkServerThroughput measures end-to-end request throughput
// through the socket layer — framing, codec, admission, engine — for a
// mixed read workload, contrasting one connection against sixteen.
func BenchmarkServerThroughput(b *testing.B) {
	for _, nClients := range []int{1, 16} {
		b.Run(fmt.Sprintf("clients=%d", nClients), func(b *testing.B) {
			db := core.NewDatabase(core.Options{PageSize: 4000, PoolFrames: 256})
			if _, err := db.CreateRelationBTree("r", baseSchema(), 0); err != nil {
				b.Fatal(err)
			}
			tx := db.Begin()
			for i := 0; i < 2000; i++ {
				if _, err := tx.Insert("r", tuple.I(int64(i)), tuple.I(int64(i*2)), tuple.S("s")); err != nil {
					b.Fatal(err)
				}
			}
			if err := tx.Commit(); err != nil {
				b.Fatal(err)
			}
			if err := db.CreateView(spDef("v", 0, 2000), core.Deferred); err != nil {
				b.Fatal(err)
			}
			if err := db.RefreshAll(); err != nil {
				b.Fatal(err)
			}
			_, addr := startServer(b, db, Config{MaxInflight: 64})

			clients := make([]*client.Client, nClients)
			for i := range clients {
				c, err := client.Dial(addr)
				if err != nil {
					b.Fatal(err)
				}
				defer c.Close()
				clients[i] = c
			}

			start := make(chan struct{})
			var wg sync.WaitGroup
			per := b.N/nClients + 1
			b.ResetTimer()
			for i, c := range clients {
				wg.Add(1)
				go func(i int, c *client.Client) {
					defer wg.Done()
					<-start
					for j := 0; j < per; j++ {
						lo := int64((i*per + j) % 1900)
						rg := pred.NewRange(tuple.I(lo), tuple.I(lo+20), true, false)
						if _, err := c.QueryView("v", rg); err != nil {
							b.Errorf("client %d: %v", i, err)
							return
						}
					}
				}(i, c)
			}
			close(start)
			wg.Wait()
			b.StopTimer()
			b.ReportMetric(float64(per*nClients)/b.Elapsed().Seconds(), "req/s")
		})
	}
}
