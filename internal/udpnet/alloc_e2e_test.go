package udpnet_test

import (
	"fmt"
	"runtime"
	"testing"
	"time"

	"cmtos/internal/core"
	"cmtos/internal/qos"
	"cmtos/internal/transport"
	"cmtos/internal/udpnet"
)

// TestTransportSteadyStateAllocs extends TestSteadyStateAllocs' contract
// from the substrate to the whole data path: application Write → shared
// buffer → segmentation and encode → UDP loopback → decode and reassembly
// → shared buffer → application Read must cost at most one heap object per
// OSDU once buffers are warm, with and without retransmission armed,
// single- and four-fragment. What remains is the shard loops' park timers
// and pool refills after a collection, amortised over the OSDUs in
// flight; the per-TPDU encode buffers, decoded PDUs, payload copies and
// reassembly records this path used to allocate (a dozen objects per
// single-fragment OSDU) are all recycled.
func TestTransportSteadyStateAllocs(t *testing.T) {
	if udpnet.RaceEnabled {
		t.Skip("race instrumentation allocates, and sync.Pool drops a quarter of its Puts under it")
	}
	const warm, measured, batch = 2000, 10000, 8
	for _, class := range []qos.Class{qos.ClassDetectIndicate, qos.ClassDetectCorrect} {
		for _, frags := range []int{1, 4} {
			t.Run(fmt.Sprintf("%v/%d-fragment", class, frags), func(t *testing.T) {
				src := newUDPEnd(t, 1, nil, udpnet.Config{LineRate: 1.25e10})
				dst := newUDPEnd(t, 2, nil, udpnet.Config{LineRate: 1.25e10})
				if err := src.net.AddPeer(2, dst.net.Addr().String()); err != nil {
					t.Fatal(err)
				}
				if err := dst.net.AddPeer(1, src.net.Addr().String()); err != nil {
					t.Fatal(err)
				}
				recvCh := make(chan *transport.RecvVC, 1)
				if err := dst.ent.Attach(20, transport.UserCallbacks{
					OnRecvReady: func(rv *transport.RecvVC) { recvCh <- rv },
				}); err != nil {
					t.Fatal(err)
				}
				size := frags * src.ent.Config().MaxTPDU
				send, err := src.ent.Connect(transport.ConnectRequest{
					SrcTSAP: 10, Dest: core.Addr{Host: 2, TSAP: 20}, Class: class,
					Spec: qos.Spec{
						// Far above the offered rate: the pacer stays out of it.
						Throughput:  qos.Tolerance{Preferred: 1e6, Acceptable: 1},
						MaxOSDUSize: size,
						Delay:       qos.CeilTolerance{Preferred: 0.001, Acceptable: 2},
						Jitter:      qos.CeilTolerance{Preferred: 0.001, Acceptable: 1},
						PER:         qos.CeilTolerance{Preferred: 0, Acceptable: 0.5},
						BER:         qos.CeilTolerance{Preferred: 0, Acceptable: 1e-2},
						Guarantee:   qos.Soft,
					},
				})
				if err != nil {
					t.Fatal(err)
				}
				var rv *transport.RecvVC
				select {
				case rv = <-recvCh:
				case <-time.After(5 * time.Second):
					t.Fatal("sink handle never arrived")
				}

				// Half a ring of OSDUs written, then read back: nothing is
				// ever dropped, so every class delivers exactly 0..N-1.
				payload := make([]byte, size)
				next := core.OSDUSeq(0)
				run := func(n int) {
					for done := 0; done < n; done += batch {
						for i := 0; i < batch; i++ {
							if _, err := send.Write(payload, 0); err != nil {
								t.Fatalf("Write: %v", err)
							}
						}
						for i := 0; i < batch; i++ {
							u, err := rv.Read()
							if err != nil {
								t.Fatalf("Read: %v", err)
							}
							if u.Seq != next || len(u.Payload) != size {
								t.Fatalf("read seq %d (%d bytes), want seq %d (%d bytes)", u.Seq, len(u.Payload), next, size)
							}
							next++
						}
					}
				}
				run(warm)
				var before, after runtime.MemStats
				runtime.ReadMemStats(&before)
				run(measured)
				runtime.ReadMemStats(&after)
				per := float64(after.Mallocs-before.Mallocs) / measured
				t.Logf("%.3f allocations per OSDU", per)
				if per > 1.0 {
					t.Errorf("%.2f allocations per OSDU end to end, want at most 1.0", per)
				}
			})
		}
	}
}
