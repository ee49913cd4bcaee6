package pdu

import (
	"bytes"
	"slices"
	"testing"
	"time"

	"cmtos/internal/core"
	"cmtos/internal/qos"
)

// addSeeds gives a fuzz target the shared corpus: one marshalled message
// of every kind, so the fuzzer starts from deep, checksum-valid inputs and
// mutates field contents rather than spending its budget rediscovering the
// CRC, plus a few structurally hostile strings.
func addSeeds(f *testing.F) {
	seeds := []Message{
		&Data{
			VC: 7, Seq: 42, OSDU: 3, Frag: 1, FragCount: 4, OSDUSize: 4000,
			Event: 0x10, SentAt: time.Unix(12345, 678), Payload: []byte("fragment payload"),
		},
		&Ack{VC: 7, CumSeq: 41, Naks: []uint64{35, 38}, Window: 16},
		&Control{
			Kind: KindConnReq, VC: 9,
			Tuple: core.ConnectTuple{
				Initiator: core.Addr{Host: 1, TSAP: 10},
				Source:    core.Addr{Host: 1, TSAP: 10},
				Dest:      core.Addr{Host: 2, TSAP: 20},
			},
			Class: qos.ClassDetectCorrectIndicate,
			Spec: qos.Spec{
				Throughput:  qos.Tolerance{Preferred: 200, Acceptable: 20},
				MaxOSDUSize: 4096,
				Guarantee:   qos.Soft,
			},
			Token: 99,
		},
		&Control{Kind: KindDiscReq, VC: 9, Reason: core.ReasonNone},
		&Control{Kind: KindRemoteConnResult, VC: 9, Token: 99},
		&Control{Kind: KindFlowOff, VC: 9},
		&Control{Kind: KindKeepalive, Token: 7},
		&Control{Kind: KindKeepaliveAck, Token: 7},
		&Control{Kind: KindResumeReq, VC: 9, Token: 12},
		&Control{Kind: KindResumeConf, VC: 9, Token: 12, Seq: 4096},
		&Orch{Op: OrchPing, Session: 5, Token: 4},
		&Orch{
			Op: OrchRegulate, Session: 5, VC: 9, Token: 3,
			TargetOSDU: 120, MaxDrop: 2, Interval: time.Second, IntervalID: 8,
			VCs: []core.VCID{9, 11},
		},
		&Orch{
			Op: OrchReport, Session: 5, VC: 9, OSDU: 117, Dropped: 1,
			Blocks: BlockTimes{AppSource: time.Millisecond, ProtoSink: 2 * time.Millisecond},
		},
		&QoSReport{
			VC: 9,
			Report: qos.Report{
				Period: time.Second, Delivered: 100, Bytes: 100000,
				Throughput: 100, PER: 0.01,
			},
			Violated: []qos.Param{qos.Throughput, qos.PER},
		},
		&Datagram{SrcTSAP: 10, DstTSAP: 20, Payload: []byte("rpc call")},
	}
	for _, m := range seeds {
		f.Add(m.Marshal(nil))
	}
	// Structurally hostile seeds: empty, short, bad kind, bad checksum.
	f.Add([]byte{})
	f.Add([]byte{byte(KindData), 0, 0, 0, 0})
	f.Add([]byte{0xff, 0, 0, 0, 0, 0, 0, 0, 0})
}

// FuzzDecode throws arbitrary byte strings at the wire decoder. Decode
// must never panic and never over-allocate: any input is either a valid
// message or a clean error.
func FuzzDecode(f *testing.F) {
	addSeeds(f)

	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := Decode(data)
		if err != nil {
			if m != nil {
				t.Fatalf("Decode returned both message %T and error %v", m, err)
			}
			return
		}
		// A message that decodes must survive a marshal/decode round trip
		// (the codec is self-consistent on everything it accepts).
		again, err := Decode(m.Marshal(nil))
		if err != nil {
			t.Fatalf("re-decode of re-marshalled %T failed: %v", m, err)
		}
		if again.MessageKind() != m.MessageKind() {
			t.Fatalf("kind changed across round trip: %v -> %v", m.MessageKind(), again.MessageKind())
		}
	})
}

// FuzzDecodeDataAck is the differential check on the in-place decoders:
// for every input, DecodeData and DecodeAck must report exactly what Decode
// reports — the same fields for a data or ack TPDU, the same error for a
// damaged or truncated one — and ErrBadKind for an intact message of any
// other kind.
func FuzzDecodeDataAck(f *testing.F) {
	addSeeds(f)
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := Decode(data)
		var d Data
		derr := DecodeData(data, &d)
		a := Ack{Naks: make([]uint64, 1, 4)} // a dirty reused backing, as the transport keeps one
		aerr := DecodeAck(data, &a)

		wantD, wantA := ErrBadKind, ErrBadKind
		if _, verr := verify(data); verr != nil {
			wantD, wantA = err, err // damaged: no decoder may look past the trailer
		} else if kind, _ := PeekKind(data); kind == KindData {
			wantD = err
		} else if kind == KindAck {
			wantA = err
		}
		if derr != wantD || aerr != wantA {
			t.Fatalf("Decode: %v; DecodeData: %v, want %v; DecodeAck: %v, want %v", err, derr, wantD, aerr, wantA)
		}
		if derr != nil && (d.VC != 0 || d.Seq != 0 || d.Payload != nil) {
			t.Fatalf("DecodeData left fields behind on error: %+v", d)
		}
		if aerr != nil && (a.VC != 0 || a.CumSeq != 0 || len(a.Naks) != 0) {
			t.Fatalf("DecodeAck left fields behind on error: %+v", a)
		}
		switch want := m.(type) {
		case *Data:
			if derr != nil {
				t.Fatalf("Decode accepted a data TPDU that DecodeData refused: %v", derr)
			}
			if d.VC != want.VC || d.Seq != want.Seq || d.OSDU != want.OSDU || d.Frag != want.Frag ||
				d.FragCount != want.FragCount || d.OSDUSize != want.OSDUSize || d.Event != want.Event ||
				!d.SentAt.Equal(want.SentAt) || !bytes.Equal(d.Payload, want.Payload) {
				t.Fatalf("DecodeData %+v, Decode %+v", d, *want)
			}
		case *Ack:
			if aerr != nil {
				t.Fatalf("Decode accepted an ack that DecodeAck refused: %v", aerr)
			}
			if a.VC != want.VC || a.CumSeq != want.CumSeq || a.Window != want.Window || !slices.Equal(a.Naks, want.Naks) {
				t.Fatalf("DecodeAck %+v, Decode %+v", a, *want)
			}
		}
	})
}
