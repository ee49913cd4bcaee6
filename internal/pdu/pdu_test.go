package pdu

import (
	"bytes"
	"math"
	"reflect"
	"testing"
	"testing/quick"
	"time"

	"cmtos/internal/core"
	"cmtos/internal/qos"
)

func roundTrip(t *testing.T, m Message) Message {
	t.Helper()
	buf := m.Marshal(nil)
	got, err := Decode(buf)
	if err != nil {
		t.Fatalf("Decode(%s): %v", m.MessageKind(), err)
	}
	return got
}

func TestDataRoundTrip(t *testing.T) {
	d := &Data{
		VC:        9,
		Seq:       12345,
		OSDU:      777,
		Frag:      2,
		FragCount: 5,
		OSDUSize:  40960,
		Event:     0xDEADBEEF,
		SentAt:    time.Unix(100, 250),
		Payload:   []byte("a video fragment"),
	}
	got := roundTrip(t, d).(*Data)
	if !got.SentAt.Equal(d.SentAt) {
		t.Errorf("SentAt = %v, want %v", got.SentAt, d.SentAt)
	}
	got.SentAt = d.SentAt
	if !reflect.DeepEqual(got, d) {
		t.Fatalf("round trip mismatch:\n got %+v\nwant %+v", got, d)
	}
}

func TestDataEmptyPayload(t *testing.T) {
	d := &Data{VC: 1, Seq: 1, SentAt: time.Unix(0, 0)}
	got := roundTrip(t, d).(*Data)
	if len(got.Payload) != 0 {
		t.Fatalf("payload = %v, want empty", got.Payload)
	}
}

func TestAckRoundTrip(t *testing.T) {
	a := &Ack{VC: 3, CumSeq: 88, Naks: []uint64{90, 92, 95}, Window: 64}
	got := roundTrip(t, a).(*Ack)
	if !reflect.DeepEqual(got, a) {
		t.Fatalf("round trip mismatch:\n got %+v\nwant %+v", got, a)
	}
}

func TestAckNoNaks(t *testing.T) {
	a := &Ack{VC: 3, CumSeq: 88}
	got := roundTrip(t, a).(*Ack)
	if len(got.Naks) != 0 {
		t.Fatalf("naks = %v, want none", got.Naks)
	}
}

func fullControl(kind Kind) *Control {
	return &Control{
		Kind: kind,
		VC:   42,
		Tuple: core.ConnectTuple{
			Initiator: core.Addr{Host: 3, TSAP: 30},
			Source:    core.Addr{Host: 1, TSAP: 10},
			Dest:      core.Addr{Host: 2, TSAP: 20},
		},
		Profile: qos.ProfileCMRate,
		Class:   qos.ClassDetectCorrectIndicate,
		Spec: qos.Spec{
			Throughput:  qos.Tolerance{Preferred: 25, Acceptable: 15},
			MaxOSDUSize: 65536,
			Delay:       qos.CeilTolerance{Preferred: 0.05, Acceptable: 0.25},
			Jitter:      qos.CeilTolerance{Preferred: 0.005, Acceptable: 0.05},
			PER:         qos.CeilTolerance{Acceptable: 0.05},
			BER:         qos.CeilTolerance{Acceptable: 1e-6},
			Guarantee:   qos.Soft,
		},
		Contract: qos.Contract{
			Throughput:  25,
			MaxOSDUSize: 65536,
			Delay:       50 * time.Millisecond,
			Jitter:      5 * time.Millisecond,
			PER:         0.01,
			BER:         1e-9,
			Guarantee:   qos.Soft,
		},
		Reason: core.ReasonQoSUnattainable,
		Token:  7,
	}
}

func TestControlRoundTripAllKinds(t *testing.T) {
	kinds := []Kind{
		KindConnReq, KindConnConf, KindConnRej, KindDiscReq, KindDiscConf,
		KindRenegReq, KindRenegConf, KindRenegRej,
		KindRemoteConnReq, KindRemoteConnResult, KindRemoteDiscReq,
		KindResumeReq, KindResumeConf,
	}
	for _, k := range kinds {
		c := fullControl(k)
		if k == KindResumeConf {
			c.Seq = 1234567
		}
		got := roundTrip(t, c).(*Control)
		if !reflect.DeepEqual(got, c) {
			t.Fatalf("%s: round trip mismatch:\n got %+v\nwant %+v", k, got, c)
		}
	}
}

func TestOrchRoundTrip(t *testing.T) {
	o := &Orch{
		Op:         OrchRegulate,
		Flush:      true,
		Session:    5,
		VC:         9,
		Reason:     core.ReasonNone,
		OK:         true,
		Token:      3,
		TargetOSDU: 250,
		MaxDrop:    4,
		Interval:   100 * time.Millisecond,
		IntervalID: 17,
		OSDU:       246,
		Dropped:    2,
		Blocks: BlockTimes{
			AppSource:   time.Millisecond,
			AppSink:     2 * time.Millisecond,
			ProtoSource: 3 * time.Millisecond,
			ProtoSink:   4 * time.Millisecond,
		},
		AtSource:    true,
		OSDUsBehind: 6,
		Event:       0xABCD,
		VCs:         []core.VCID{1, 2, 3},
	}
	got := roundTrip(t, o).(*Orch)
	if !reflect.DeepEqual(got, o) {
		t.Fatalf("round trip mismatch:\n got %+v\nwant %+v", got, o)
	}
}

func TestOrchEmptyVCList(t *testing.T) {
	o := &Orch{Op: OrchStart, Session: 1}
	got := roundTrip(t, o).(*Orch)
	if len(got.VCs) != 0 {
		t.Fatalf("VCs = %v, want none", got.VCs)
	}
}

func TestDecodeDetectsBitErrors(t *testing.T) {
	d := &Data{VC: 1, Seq: 7, SentAt: time.Unix(0, 0), Payload: bytes.Repeat([]byte{0x55}, 64)}
	buf := d.Marshal(nil)
	for _, bit := range []int{0, 37, len(buf)*8 - 1} {
		mut := append([]byte(nil), buf...)
		mut[bit/8] ^= 1 << (bit % 8)
		if _, err := Decode(mut); err != ErrChecksum {
			t.Fatalf("bit %d flip: err = %v, want ErrChecksum", bit, err)
		}
	}
}

func TestDecodeTruncated(t *testing.T) {
	d := &Data{VC: 1, SentAt: time.Unix(0, 0), Payload: []byte("hello")}
	buf := d.Marshal(nil)
	for _, n := range []int{0, 1, 4, len(buf) / 2} {
		if _, err := Decode(buf[:n]); err == nil {
			t.Fatalf("Decode of %d-byte prefix succeeded", n)
		}
	}
}

func TestDecodeBadKind(t *testing.T) {
	w := writer{}
	w.u8(200)
	buf := w.trailer(nil)
	if _, err := Decode(buf); err != ErrBadKind {
		t.Fatalf("err = %v, want ErrBadKind", err)
	}
}

func TestDecodeRejectsLyingNakCount(t *testing.T) {
	// An Ack whose nak count claims more entries than bytes remain must
	// fail cleanly rather than allocate.
	w := writer{}
	w.u8(uint8(KindAck))
	w.u32(1)
	w.u64(10)
	w.u32(0)
	w.u16(65535) // claims 65535 naks, provides none
	buf := w.trailer(nil)
	if _, err := Decode(buf); err != ErrTruncated {
		t.Fatalf("err = %v, want ErrTruncated", err)
	}
}

func TestDecodeRejectsLyingVCCount(t *testing.T) {
	o := &Orch{Op: OrchSetup, Session: 1, VCs: []core.VCID{1}}
	buf := o.Marshal(nil)
	// Corrupt the VC count (last 2 bytes before the 4-byte VC and 4-byte CRC).
	n := len(buf)
	buf[n-10], buf[n-9] = 0xFF, 0xFF
	// Recompute nothing: checksum now fails first, which is also safe.
	if _, err := Decode(buf); err == nil {
		t.Fatal("Decode accepted corrupted VC count")
	}
}

func TestPeekKind(t *testing.T) {
	d := &Data{VC: 1, SentAt: time.Unix(0, 0)}
	buf := d.Marshal(nil)
	k, ok := PeekKind(buf)
	if !ok || k != KindData {
		t.Fatalf("PeekKind = %v/%v", k, ok)
	}
	if _, ok := PeekKind(nil); ok {
		t.Fatal("PeekKind of empty buffer reported ok")
	}
}

func TestMarshalAppends(t *testing.T) {
	prefix := []byte("prefix")
	d := &Data{VC: 1, SentAt: time.Unix(0, 0), Payload: []byte("x")}
	buf := d.Marshal(append([]byte(nil), prefix...))
	if !bytes.HasPrefix(buf, prefix) {
		t.Fatal("Marshal did not append to dst")
	}
	if _, err := Decode(buf[len(prefix):]); err != nil {
		t.Fatalf("Decode of appended message: %v", err)
	}
}

func TestKindStrings(t *testing.T) {
	if KindData.String() != "DT" || KindRemoteConnReq.String() != "XCR" {
		t.Error("Kind strings")
	}
	if OrchPrime.String() != "prime" || OrchReport.String() != "report" {
		t.Error("OrchKind strings")
	}
}

// Property: Data PDUs round-trip for arbitrary field values.
func TestQuickDataRoundTrip(t *testing.T) {
	f := func(vc uint32, seq, osdu uint64, frag, fragCount uint16, size uint32, event uint64, ns int64, payload []byte) bool {
		d := &Data{
			VC: core.VCID(vc), Seq: seq, OSDU: core.OSDUSeq(osdu),
			Frag: frag, FragCount: fragCount, OSDUSize: size,
			Event: core.EventPattern(event), SentAt: time.Unix(0, ns%(1<<60)),
			Payload: payload,
		}
		buf := d.Marshal(nil)
		m, err := Decode(buf)
		if err != nil {
			return false
		}
		got := m.(*Data)
		if !got.SentAt.Equal(d.SentAt) {
			return false
		}
		got.SentAt = d.SentAt
		if len(got.Payload) == 0 && len(d.Payload) == 0 {
			got.Payload, d.Payload = nil, nil
		}
		return reflect.DeepEqual(got, d)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// Property: Orch PDUs round-trip for arbitrary field values.
func TestQuickOrchRoundTrip(t *testing.T) {
	f := func(op uint8, sess, vc uint32, tgt uint64, maxDrop uint32, iv int64, ivID uint32, osdu uint64, dropped uint32, b1, b2, b3, b4 int64, atSrc bool, behind uint32, ev uint64, vcs []uint32) bool {
		o := &Orch{
			Op: OrchKind(op%20 + 1), Session: core.SessionID(sess), VC: core.VCID(vc),
			TargetOSDU: core.OSDUSeq(tgt), MaxDrop: maxDrop,
			Interval: time.Duration(iv), IntervalID: core.IntervalID(ivID),
			OSDU: core.OSDUSeq(osdu), Dropped: dropped,
			Blocks: BlockTimes{
				AppSource: time.Duration(b1), AppSink: time.Duration(b2),
				ProtoSource: time.Duration(b3), ProtoSink: time.Duration(b4),
			},
			AtSource: atSrc, OSDUsBehind: behind, Event: core.EventPattern(ev),
		}
		if len(vcs) > 100 {
			vcs = vcs[:100]
		}
		for _, v := range vcs {
			o.VCs = append(o.VCs, core.VCID(v))
		}
		m, err := Decode(o.Marshal(nil))
		if err != nil {
			return false
		}
		got := m.(*Orch)
		if len(got.VCs) == 0 && len(o.VCs) == 0 {
			got.VCs, o.VCs = nil, nil
		}
		return reflect.DeepEqual(got, o)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// Property: Control PDUs round-trip for arbitrary spec/contract values,
// including NaN-free floats and negative durations clamped by encoding.
func TestQuickControlRoundTrip(t *testing.T) {
	f := func(kind uint8, vc uint32, h1, h2, h3 uint32, t1, t2, t3 uint16, tp, ta float64, size uint32, reason uint8, token uint32) bool {
		if math.IsNaN(tp) || math.IsNaN(ta) {
			return true
		}
		kinds := []Kind{KindConnReq, KindConnConf, KindConnRej, KindDiscReq,
			KindDiscConf, KindRenegReq, KindRenegConf, KindRenegRej,
			KindRemoteConnReq, KindRemoteConnResult, KindRemoteDiscReq}
		c := fullControl(kinds[int(kind)%len(kinds)])
		c.VC = core.VCID(vc)
		c.Tuple = core.ConnectTuple{
			Initiator: core.Addr{Host: core.HostID(h1), TSAP: core.TSAP(t1)},
			Source:    core.Addr{Host: core.HostID(h2), TSAP: core.TSAP(t2)},
			Dest:      core.Addr{Host: core.HostID(h3), TSAP: core.TSAP(t3)},
		}
		c.Spec.Throughput = qos.Tolerance{Preferred: tp, Acceptable: ta}
		c.Spec.MaxOSDUSize = int(size)
		c.Reason = core.Reason(reason)
		c.Token = token
		m, err := Decode(c.Marshal(nil))
		if err != nil {
			return false
		}
		return reflect.DeepEqual(m.(*Control), c)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestQoSReportRoundTrip(t *testing.T) {
	q := &QoSReport{
		VC: 11,
		Tuple: core.ConnectTuple{
			Initiator: core.Addr{Host: 3, TSAP: 30},
			Source:    core.Addr{Host: 1, TSAP: 10},
			Dest:      core.Addr{Host: 2, TSAP: 20},
		},
		Report: qos.Report{
			Period:     time.Second,
			Delivered:  240,
			Lost:       10,
			BitErrors:  3,
			Bytes:      240000,
			Throughput: 240,
			MeanDelay:  20 * time.Millisecond,
			MaxDelay:   45 * time.Millisecond,
			Jitter:     25 * time.Millisecond,
			PER:        0.04,
			BER:        1.5e-6,
		},
		Violated: []qos.Param{qos.Throughput, qos.Jitter, qos.BER},
	}
	got := roundTrip(t, q).(*QoSReport)
	if !reflect.DeepEqual(got, q) {
		t.Fatalf("round trip mismatch:\n got %+v\nwant %+v", got, q)
	}
}

func TestQoSReportNoViolations(t *testing.T) {
	q := &QoSReport{VC: 1}
	got := roundTrip(t, q).(*QoSReport)
	if len(got.Violated) != 0 {
		t.Fatalf("violated = %v, want none", got.Violated)
	}
}

func TestFlowControlKindsRoundTrip(t *testing.T) {
	for _, k := range []Kind{KindFlowOff, KindFlowOn} {
		c := &Control{Kind: k, VC: 5}
		got := roundTrip(t, c).(*Control)
		if got.Kind != k || got.VC != 5 {
			t.Fatalf("%s: got %+v", k, got)
		}
	}
	if KindFlowOff.String() != "XOFF" || KindQoSReport.String() != "QR" {
		t.Error("new kind strings")
	}
}

func TestDatagramRoundTrip(t *testing.T) {
	d := &Datagram{SrcTSAP: 7, DstTSAP: 9, Payload: []byte("rpc call")}
	got := roundTrip(t, d).(*Datagram)
	if got.SrcTSAP != 7 || got.DstTSAP != 9 || string(got.Payload) != "rpc call" {
		t.Fatalf("round trip: %+v", got)
	}
	if KindDatagram.String() != "UD" {
		t.Error("datagram kind string")
	}
}

func TestDatagramEmptyPayload(t *testing.T) {
	d := &Datagram{SrcTSAP: 1, DstTSAP: 2}
	got := roundTrip(t, d).(*Datagram)
	if len(got.Payload) != 0 {
		t.Fatalf("payload = %v", got.Payload)
	}
}

// TestDataAckCodecAllocations pins the per-TPDU allocation budget the
// transport's data path is built on: a sized encode (one allocation into a
// nil dst, none into a recycled one) and in-place decodes that allocate
// nothing and alias, rather than copy, the caller's bytes.
func TestDataAckCodecAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates")
	}
	d := &Data{VC: 9, Seq: 4, OSDU: 2, FragCount: 1, OSDUSize: 1024, SentAt: time.Unix(5, 6), Payload: make([]byte, 1024)}
	a := &Ack{VC: 9, CumSeq: 5, Naks: []uint64{2, 3}, Window: 16}
	if got := len(d.Marshal(nil)); got != dataOverhead+len(d.Payload) {
		t.Fatalf("encoded data TPDU is %d bytes, dataOverhead says %d", got, dataOverhead+len(d.Payload))
	}
	dst := make([]byte, 0, dataOverhead+len(d.Payload))
	for name, c := range map[string]struct {
		fn   func()
		want float64
	}{
		"Data.Marshal(nil)":      {func() { _ = d.Marshal(nil) }, 1},
		"Data.Marshal(recycled)": {func() { _ = d.Marshal(dst[:0]) }, 0},
		"Ack.Marshal(nil)":       {func() { _ = a.Marshal(nil) }, 1},
		"Ack.Marshal(recycled)":  {func() { _ = a.Marshal(dst[:0]) }, 0},
	} {
		if got := testing.AllocsPerRun(100, c.fn); got != c.want {
			t.Errorf("%s allocates %.0f, want %.0f", name, got, c.want)
		}
	}

	wire, ackWire := d.Marshal(nil), a.Marshal(nil)
	var gotD Data
	gotA := Ack{Naks: make([]uint64, 0, 8)}
	if n := testing.AllocsPerRun(100, func() {
		if DecodeData(wire, &gotD) != nil || DecodeAck(ackWire, &gotA) != nil {
			t.Fatal("in-place decode failed")
		}
	}); n != 0 {
		t.Errorf("DecodeData+DecodeAck allocate %.0f, want 0", n)
	}
	if &gotD.Payload[0] != &wire[dataOverhead-4] {
		t.Error("DecodeData copied the payload instead of aliasing buf")
	}
	if gotD.Seq != d.Seq || gotD.OSDU != d.OSDU || !gotD.SentAt.Equal(d.SentAt) || !reflect.DeepEqual(gotA.Naks, a.Naks) || gotA.CumSeq != a.CumSeq {
		t.Errorf("in-place decode: data %+v ack %+v", gotD, gotA)
	}
	if err := DecodeData(ackWire, &gotD); err != ErrBadKind || gotD.Payload != nil {
		t.Errorf("DecodeData of an ack: err %v, payload %v; want ErrBadKind and a zeroed Data", err, gotD.Payload)
	}
	if err := DecodeAck(wire, &gotA); err != ErrBadKind || len(gotA.Naks) != 0 || cap(gotA.Naks) != 8 {
		t.Errorf("DecodeAck of a data TPDU: err %v, naks %v; want ErrBadKind and the backing kept", err, gotA.Naks)
	}
}
