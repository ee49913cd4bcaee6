// Package pdu defines the wire formats exchanged by transport entities and
// low-level orchestrators: data TPDUs carrying OSDU fragments with their
// piggy-backed OPDU fields (OSDU sequence number and event field, §5),
// acknowledgement TPDUs for the error-correcting classes, connection
// management TPDUs (including the remote-connect relays of §3.5), and
// orchestration PDUs (OPDUs) carried on the out-of-band control channels
// (§5). All messages are length-delimited, big-endian, and carry a CRC-32
// trailer so that injected bit errors are detectable (§3.4).
package pdu

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"slices"
	"time"

	"cmtos/internal/core"
	"cmtos/internal/qos"
)

// Kind discriminates the top-level message types.
type Kind uint8

// Message kinds.
const (
	KindData             Kind = iota + 1 // Data: OSDU fragment
	KindAck                              // Ack: cumulative + selective acknowledgement
	KindConnReq                          // Control: CR, source entity → destination entity
	KindConnConf                         // Control: CC, destination → source
	KindConnRej                          // Control: connection rejected
	KindDiscReq                          // Control: DR
	KindDiscConf                         // Control: DC
	KindRenegReq                         // Control: T-Renegotiate request
	KindRenegConf                        // Control: T-Renegotiate confirm
	KindRenegRej                         // Control: T-Renegotiate reject (old VC intact)
	KindRemoteConnReq                    // Control: initiator → source relay (§3.5)
	KindRemoteConnResult                 // Control: source → initiator result relay
	KindRemoteDiscReq                    // Control: initiator → source/dest disconnect relay
	KindOrch                             // Orch: orchestration PDU on a control channel
	KindFlowOff                          // Control: sink buffers full, pause sending
	KindFlowOn                           // Control: sink buffers drained, resume sending
	KindQoSReport                        // QoSReport: measured QoS relay (Table 2)
	KindDatagram                         // Datagram: connectionless user data (platform RPC)
	KindKeepalive                        // Control: peer-liveness probe on an idle control channel
	KindKeepaliveAck                     // Control: liveness probe response
	KindResumeReq                        // Control: session-layer resume of a failed VC
	KindResumeConf                       // Control: resume accepted; Seq advertises the sink's next-expected OSDU
)

var kindNames = [...]string{
	KindData:             "DT",
	KindAck:              "AK",
	KindConnReq:          "CR",
	KindConnConf:         "CC",
	KindConnRej:          "CJ",
	KindDiscReq:          "DR",
	KindDiscConf:         "DC",
	KindRenegReq:         "RN",
	KindRenegConf:        "RC",
	KindRenegRej:         "RJ",
	KindRemoteConnReq:    "XCR",
	KindRemoteConnResult: "XCC",
	KindRemoteDiscReq:    "XDR",
	KindOrch:             "OP",
	KindFlowOff:          "XOFF",
	KindFlowOn:           "XON",
	KindQoSReport:        "QR",
	KindDatagram:         "UD",
	KindKeepalive:        "KA",
	KindKeepaliveAck:     "KAA",
	KindResumeReq:        "RSR",
	KindResumeConf:       "RSC",
}

// String returns the mnemonic of the kind (DT, AK, CR, ...).
func (k Kind) String() string {
	if int(k) < len(kindNames) && kindNames[k] != "" {
		return kindNames[k]
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// Message is implemented by every top-level PDU.
type Message interface {
	// MessageKind returns the message's kind discriminant.
	MessageKind() Kind
	// Marshal appends the encoded message (with trailer) to dst.
	Marshal(dst []byte) []byte
}

// Decode errors.
var (
	ErrTruncated = errors.New("pdu: truncated message")
	ErrChecksum  = errors.New("pdu: checksum mismatch")
	ErrBadKind   = errors.New("pdu: unknown message kind")
)

// Data is a data TPDU carrying one fragment of an OSDU together with the
// OPDU fields that accompany every OSDU (§5). OSDU boundaries are
// preserved: a fragment states its index and the fragment count, and the
// receiver reassembles exactly OSDUSize bytes.
type Data struct {
	VC        core.VCID
	Seq       uint64 // TPDU sequence number (per VC)
	OSDU      core.OSDUSeq
	Frag      uint16 // fragment index within the OSDU
	FragCount uint16 // total fragments in the OSDU
	OSDUSize  uint32 // total OSDU size in bytes
	Event     core.EventPattern
	SentAt    time.Time // source-clock send timestamp (delay measurement)
	Payload   []byte
}

// MessageKind implements Message.
func (d *Data) MessageKind() Kind { return KindData }

// dataOverhead is the encoded size of a data TPDU beyond its payload: the
// fixed header fields plus the CRC-32 trailer.
const dataOverhead = 1 + 4 + 8 + 8 + 2 + 2 + 4 + 8 + 8 + 4 + 4

// Marshal implements Message. The encoded size is known up front, so dst
// grows at most once: Marshal(nil) costs one allocation, and a dst with
// dataOverhead+len(Payload) spare capacity costs none.
func (d *Data) Marshal(dst []byte) []byte {
	w := writer{buf: slices.Grow(dst, dataOverhead+len(d.Payload))}
	w.u8(uint8(KindData))
	w.u32(uint32(d.VC))
	w.u64(d.Seq)
	w.u64(uint64(d.OSDU))
	w.u16(d.Frag)
	w.u16(d.FragCount)
	w.u32(d.OSDUSize)
	w.u64(uint64(d.Event))
	w.u64(uint64(d.SentAt.UnixNano()))
	w.u32(uint32(len(d.Payload)))
	w.bytes(d.Payload)
	return w.trailer(dst)
}

// decode fills d from a checksum-verified body positioned just past the
// kind byte. Payload aliases the body.
func (d *Data) decode(r *reader) error {
	d.VC = core.VCID(r.u32())
	d.Seq = r.u64()
	d.OSDU = core.OSDUSeq(r.u64())
	d.Frag = r.u16()
	d.FragCount = r.u16()
	d.OSDUSize = r.u32()
	d.Event = core.EventPattern(r.u64())
	d.SentAt = time.Unix(0, int64(r.u64()))
	d.Payload = r.take(int(r.u32()))
	return r.err
}

// DecodeData parses one data TPDU from buf into the caller's d without
// allocating: the length, CRC-32 and truncation checks are Decode's, but
// d.Payload aliases buf (valid only as long as buf is) instead of being
// copied. A well-formed message of another kind is ErrBadKind. On error d
// is left zeroed.
func DecodeData(buf []byte, d *Data) error {
	r, err := open(buf, KindData)
	if err == nil {
		err = d.decode(&r)
	}
	if err != nil {
		*d = Data{}
	}
	return err
}

// Ack acknowledges data TPDUs for the error-correcting classes: CumSeq is
// the highest TPDU sequence below which everything arrived; Naks lists
// individual missing sequence numbers for selective retransmission. Window
// carries the receiver's credit for the window-based baseline profile.
type Ack struct {
	VC     core.VCID
	CumSeq uint64
	Naks   []uint64
	Window uint32
}

// MessageKind implements Message.
func (a *Ack) MessageKind() Kind { return KindAck }

// Marshal implements Message; like Data's it sizes dst once.
func (a *Ack) Marshal(dst []byte) []byte {
	w := writer{buf: slices.Grow(dst, 1+4+8+4+2+8*len(a.Naks)+4)}
	w.u8(uint8(KindAck))
	w.u32(uint32(a.VC))
	w.u64(a.CumSeq)
	w.u32(a.Window)
	w.u16(uint16(len(a.Naks)))
	for _, n := range a.Naks {
		w.u64(n)
	}
	return w.trailer(dst)
}

// decode fills a from a checksum-verified body positioned just past the
// kind byte, appending the NAK list to a.Naks[:0].
func (a *Ack) decode(r *reader) error {
	a.VC = core.VCID(r.u32())
	a.CumSeq = r.u64()
	a.Window = r.u32()
	a.Naks = a.Naks[:0]
	n := int(r.u16())
	if r.err == nil && n > r.remaining()/8 {
		return ErrTruncated
	}
	for i := 0; i < n; i++ {
		a.Naks = append(a.Naks, r.u64())
	}
	return r.err
}

// DecodeAck parses one acknowledgement TPDU from buf into the caller's a
// with Decode's checks. The NAK list is appended to a.Naks[:0], so a
// caller that keeps a across calls decodes without allocating; an ack
// with no NAKs leaves a.Naks empty (nil if it was nil). A well-formed
// message of another kind is ErrBadKind. On error a keeps only its Naks
// backing.
func DecodeAck(buf []byte, a *Ack) error {
	r, err := open(buf, KindAck)
	if err == nil {
		err = a.decode(&r)
	}
	if err != nil {
		*a = Ack{Naks: a.Naks[:0]}
	}
	return err
}

// Control is the connection-management TPDU, shared by every
// establishment, release and renegotiation exchange of Tables 1 and 3,
// including the three-address remote-connect relays of §3.5. Token
// correlates a relay's result with its request.
type Control struct {
	Kind     Kind
	VC       core.VCID
	Tuple    core.ConnectTuple
	Profile  qos.Profile
	Class    qos.Class
	Spec     qos.Spec
	Contract qos.Contract
	Reason   core.Reason
	Token    uint32
	// Seq carries an OSDU sequence where the exchange needs one: the
	// sink's next-expected OSDU on KindResumeConf (the sender replays
	// retained OSDUs from here), and the mid-stream starting sequence on
	// KindConnReq when a relay splices a new leaf onto a stream already
	// in flight (zero for a from-the-top connect).
	Seq uint64
}

// MessageKind implements Message.
func (c *Control) MessageKind() Kind { return c.Kind }

func putAddr(w *writer, a core.Addr) {
	w.u32(uint32(a.Host))
	w.u16(uint16(a.TSAP))
}

func getAddr(r *reader) core.Addr {
	return core.Addr{Host: core.HostID(r.u32()), TSAP: core.TSAP(r.u16())}
}

func putSpec(w *writer, s qos.Spec) {
	w.f64(s.Throughput.Preferred)
	w.f64(s.Throughput.Acceptable)
	w.u32(uint32(s.MaxOSDUSize))
	w.f64(s.Delay.Preferred)
	w.f64(s.Delay.Acceptable)
	w.f64(s.Jitter.Preferred)
	w.f64(s.Jitter.Acceptable)
	w.f64(s.PER.Preferred)
	w.f64(s.PER.Acceptable)
	w.f64(s.BER.Preferred)
	w.f64(s.BER.Acceptable)
	w.u8(uint8(s.Guarantee))
}

func getSpec(r *reader) qos.Spec {
	var s qos.Spec
	s.Throughput.Preferred = r.f64()
	s.Throughput.Acceptable = r.f64()
	s.MaxOSDUSize = int(r.u32())
	s.Delay.Preferred = r.f64()
	s.Delay.Acceptable = r.f64()
	s.Jitter.Preferred = r.f64()
	s.Jitter.Acceptable = r.f64()
	s.PER.Preferred = r.f64()
	s.PER.Acceptable = r.f64()
	s.BER.Preferred = r.f64()
	s.BER.Acceptable = r.f64()
	s.Guarantee = qos.Guarantee(r.u8())
	return s
}

func putContract(w *writer, c qos.Contract) {
	w.f64(c.Throughput)
	w.u32(uint32(c.MaxOSDUSize))
	w.u64(uint64(c.Delay))
	w.u64(uint64(c.Jitter))
	w.f64(c.PER)
	w.f64(c.BER)
	w.u8(uint8(c.Guarantee))
}

func getContract(r *reader) qos.Contract {
	var c qos.Contract
	c.Throughput = r.f64()
	c.MaxOSDUSize = int(r.u32())
	c.Delay = time.Duration(r.u64())
	c.Jitter = time.Duration(r.u64())
	c.PER = r.f64()
	c.BER = r.f64()
	c.Guarantee = qos.Guarantee(r.u8())
	return c
}

// Marshal implements Message.
func (c *Control) Marshal(dst []byte) []byte {
	w := writer{buf: dst}
	w.u8(uint8(c.Kind))
	w.u32(uint32(c.VC))
	putAddr(&w, c.Tuple.Initiator)
	putAddr(&w, c.Tuple.Source)
	putAddr(&w, c.Tuple.Dest)
	w.u8(uint8(c.Profile))
	w.u8(uint8(c.Class))
	putSpec(&w, c.Spec)
	putContract(&w, c.Contract)
	w.u8(uint8(c.Reason))
	w.u32(c.Token)
	w.u64(c.Seq)
	return w.trailer(dst)
}

func decodeControl(kind Kind, r *reader) (*Control, error) {
	c := &Control{Kind: kind}
	c.VC = core.VCID(r.u32())
	c.Tuple.Initiator = getAddr(r)
	c.Tuple.Source = getAddr(r)
	c.Tuple.Dest = getAddr(r)
	c.Profile = qos.Profile(r.u8())
	c.Class = qos.Class(r.u8())
	c.Spec = getSpec(r)
	c.Contract = getContract(r)
	c.Reason = core.Reason(r.u8())
	c.Token = r.u32()
	c.Seq = r.u64()
	return c, r.err
}

// OrchKind discriminates orchestration PDU roles within KindOrch.
type OrchKind uint8

// Orchestration PDU kinds, covering Tables 4-6. Each request kind has a
// matching reply carrying OK or a deny reason.
const (
	OrchSetup       OrchKind = iota + 1 // establish orchestration for a VC set (Table 4)
	OrchSetupAck                        // accept/deny reply
	OrchRelease                         // release the session
	OrchPrime                           // prime a VC (fill receive buffers, hold delivery)
	OrchPrimed                          // sink reports buffers full (or deny)
	OrchStart                           // atomically release delivery
	OrchStartAck                        // start acknowledged
	OrchStop                            // freeze data flow
	OrchStopAck                         // stop acknowledged
	OrchAdd                             // add VC to the session
	OrchAddAck                          // add acknowledged
	OrchRemove                          // remove VC from the session
	OrchRemoveAck                       // remove acknowledged
	OrchRegulate                        // set per-interval flow-rate target (Table 6)
	OrchReport                          // end-of-interval Orch.Regulate.indication payload
	OrchDelayed                         // Orch.Delayed relay toward the lagging thread
	OrchDelayedAck                      // Orch.Delayed response/deny
	OrchEventReg                        // register an event pattern at the sink
	OrchEventHit                        // matched event notification toward the agent
	OrchDeny                            // generic denial with reason
	OrchPing                            // agent → participant liveness probe
	OrchPingAck                         // participant liveness response
	OrchForecast                        // source guard → agent: predicted QoS violation, shed request
	OrchForecastAck                     // forecast acknowledged (OK = budget shifted)
)

var orchKindNames = [...]string{
	OrchSetup:       "setup",
	OrchSetupAck:    "setup-ack",
	OrchRelease:     "release",
	OrchPrime:       "prime",
	OrchPrimed:      "primed",
	OrchStart:       "start",
	OrchStartAck:    "start-ack",
	OrchStop:        "stop",
	OrchStopAck:     "stop-ack",
	OrchAdd:         "add",
	OrchAddAck:      "add-ack",
	OrchRemove:      "remove",
	OrchRemoveAck:   "remove-ack",
	OrchRegulate:    "regulate",
	OrchReport:      "report",
	OrchDelayed:     "delayed",
	OrchDelayedAck:  "delayed-ack",
	OrchEventReg:    "event-reg",
	OrchEventHit:    "event-hit",
	OrchDeny:        "deny",
	OrchPing:        "ping",
	OrchPingAck:     "ping-ack",
	OrchForecast:    "forecast",
	OrchForecastAck: "forecast-ack",
}

// String returns the orchestration kind's name.
func (k OrchKind) String() string {
	if int(k) < len(orchKindNames) && orchKindNames[k] != "" {
		return orchKindNames[k]
	}
	return fmt.Sprintf("orchkind(%d)", uint8(k))
}

// BlockTimes carries the shared-circular-buffer blocking statistics
// reported at the end of each regulation interval (§3.7, §6.3.1.2): how
// long the application and protocol threads spent blocked at each end.
type BlockTimes struct {
	AppSource   time.Duration
	AppSink     time.Duration
	ProtoSource time.Duration
	ProtoSink   time.Duration
}

// Orch is an orchestration PDU exchanged between LLO instances on the
// out-of-band control channels. A single layout serves all kinds; unused
// fields are zero.
type Orch struct {
	Op      OrchKind
	Session core.SessionID
	VC      core.VCID
	Reason  core.Reason
	OK      bool
	Token   uint32 // request/reply correlation

	// Regulation (Table 6).
	TargetOSDU core.OSDUSeq
	MaxDrop    uint32
	Interval   time.Duration
	IntervalID core.IntervalID

	// Report (Orch.Regulate.indication).
	OSDU    core.OSDUSeq
	Dropped uint32
	Blocks  BlockTimes

	// Orch.Delayed.
	AtSource    bool
	OSDUsBehind uint32

	// Orch.Event.
	Event core.EventPattern

	// Orch.Prime option: discard buffered data before refilling
	// (stop-then-seek cleanup, §6.2.1).
	Flush bool

	// Session setup: the VCs to orchestrate.
	VCs []core.VCID

	// Predictive guard (OrchForecast): the forecast probability of a QoS
	// violation and the horizon, in sample periods, it covers.
	Probability float64
	Horizon     uint32
}

// MessageKind implements Message.
func (o *Orch) MessageKind() Kind { return KindOrch }

// Marshal implements Message.
func (o *Orch) Marshal(dst []byte) []byte {
	w := writer{buf: dst}
	w.u8(uint8(KindOrch))
	w.u8(uint8(o.Op))
	w.u32(uint32(o.Session))
	w.u32(uint32(o.VC))
	w.u8(uint8(o.Reason))
	w.bool(o.OK)
	w.u32(o.Token)
	w.u64(uint64(o.TargetOSDU))
	w.u32(o.MaxDrop)
	w.u64(uint64(o.Interval))
	w.u32(uint32(o.IntervalID))
	w.u64(uint64(o.OSDU))
	w.u32(o.Dropped)
	w.u64(uint64(o.Blocks.AppSource))
	w.u64(uint64(o.Blocks.AppSink))
	w.u64(uint64(o.Blocks.ProtoSource))
	w.u64(uint64(o.Blocks.ProtoSink))
	w.bool(o.AtSource)
	w.u32(o.OSDUsBehind)
	w.u64(uint64(o.Event))
	w.bool(o.Flush)
	w.u16(uint16(len(o.VCs)))
	for _, vc := range o.VCs {
		w.u32(uint32(vc))
	}
	w.u64(math.Float64bits(o.Probability))
	w.u32(o.Horizon)
	return w.trailer(dst)
}

func decodeOrch(r *reader) (*Orch, error) {
	o := &Orch{}
	o.Op = OrchKind(r.u8())
	o.Session = core.SessionID(r.u32())
	o.VC = core.VCID(r.u32())
	o.Reason = core.Reason(r.u8())
	o.OK = r.bool()
	o.Token = r.u32()
	o.TargetOSDU = core.OSDUSeq(r.u64())
	o.MaxDrop = r.u32()
	o.Interval = time.Duration(r.u64())
	o.IntervalID = core.IntervalID(r.u32())
	o.OSDU = core.OSDUSeq(r.u64())
	o.Dropped = r.u32()
	o.Blocks.AppSource = time.Duration(r.u64())
	o.Blocks.AppSink = time.Duration(r.u64())
	o.Blocks.ProtoSource = time.Duration(r.u64())
	o.Blocks.ProtoSink = time.Duration(r.u64())
	o.AtSource = r.bool()
	o.OSDUsBehind = r.u32()
	o.Event = core.EventPattern(r.u64())
	o.Flush = r.bool()
	n := int(r.u16())
	if r.err == nil && n > 0 {
		if n > r.remaining()/4 {
			return nil, ErrTruncated
		}
		o.VCs = make([]core.VCID, n)
		for i := range o.VCs {
			o.VCs[i] = core.VCID(r.u32())
		}
	}
	o.Probability = math.Float64frombits(r.u64())
	o.Horizon = r.u32()
	return o, r.err
}

// verify checks buf's minimum length and CRC-32 trailer and returns a
// reader over the body (kind byte onward, trailer stripped).
func verify(buf []byte) (reader, error) {
	if len(buf) < 5 {
		return reader{}, ErrTruncated
	}
	body, trailer := buf[:len(buf)-4], buf[len(buf)-4:]
	if crc32.ChecksumIEEE(body) != binary.BigEndian.Uint32(trailer) {
		return reader{}, ErrChecksum
	}
	return reader{buf: body}, nil
}

// open verifies buf and consumes its kind byte, which must be want.
func open(buf []byte, want Kind) (reader, error) {
	r, err := verify(buf)
	if err == nil && Kind(r.u8()) != want {
		err = ErrBadKind
	}
	return r, err
}

// Decode parses one message from buf. It verifies the CRC-32 trailer and
// returns ErrChecksum on corruption, so callers implement the "error
// detection" half of every class of service by construction. The returned
// message owns its bytes (payloads are copied out of buf); the transport's
// per-packet path uses DecodeData and DecodeAck instead, which do not
// allocate.
func Decode(buf []byte) (Message, error) {
	r, err := verify(buf)
	if err != nil {
		return nil, err
	}
	var m Message
	switch kind := Kind(r.u8()); kind {
	case KindData:
		d := &Data{}
		if err = d.decode(&r); err == nil {
			d.Payload = slices.Clone(d.Payload)
		}
		m = d
	case KindAck:
		a := &Ack{}
		err = a.decode(&r)
		m = a
	case KindConnReq, KindConnConf, KindConnRej, KindDiscReq, KindDiscConf,
		KindRenegReq, KindRenegConf, KindRenegRej,
		KindRemoteConnReq, KindRemoteConnResult, KindRemoteDiscReq,
		KindFlowOff, KindFlowOn, KindKeepalive, KindKeepaliveAck,
		KindResumeReq, KindResumeConf:
		m, err = decodeControl(kind, &r)
	case KindOrch:
		m, err = decodeOrch(&r)
	case KindQoSReport:
		m, err = decodeQoSReport(&r)
	case KindDatagram:
		m, err = decodeDatagram(&r)
	default:
		return nil, ErrBadKind
	}
	if err != nil {
		return nil, err
	}
	return m, nil
}

// PeekKind returns the kind byte of an encoded message without verifying
// the checksum, for cheap demultiplexing.
func PeekKind(buf []byte) (Kind, bool) {
	if len(buf) == 0 {
		return 0, false
	}
	return Kind(buf[0]), true
}

// Datagram is a connectionless user-data unit addressed TSAP to TSAP —
// the datagram service of the standard protocol matrix (§4) that the
// platform's invocation protocol (REX, §2.2) rides on.
type Datagram struct {
	SrcTSAP core.TSAP
	DstTSAP core.TSAP
	Payload []byte
}

// MessageKind implements Message.
func (d *Datagram) MessageKind() Kind { return KindDatagram }

// Marshal implements Message.
func (d *Datagram) Marshal(dst []byte) []byte {
	w := writer{buf: dst}
	w.u8(uint8(KindDatagram))
	w.u16(uint16(d.SrcTSAP))
	w.u16(uint16(d.DstTSAP))
	w.u32(uint32(len(d.Payload)))
	w.bytes(d.Payload)
	return w.trailer(dst)
}

func decodeDatagram(r *reader) (*Datagram, error) {
	d := &Datagram{
		SrcTSAP: core.TSAP(r.u16()),
		DstTSAP: core.TSAP(r.u16()),
	}
	n := r.u32()
	d.Payload = r.bytes(int(n))
	return d, r.err
}

// writer appends big-endian fields to a buffer.
type writer struct{ buf []byte }

func (w *writer) u8(v uint8)   { w.buf = append(w.buf, v) }
func (w *writer) u16(v uint16) { w.buf = binary.BigEndian.AppendUint16(w.buf, v) }
func (w *writer) u32(v uint32) { w.buf = binary.BigEndian.AppendUint32(w.buf, v) }
func (w *writer) u64(v uint64) { w.buf = binary.BigEndian.AppendUint64(w.buf, v) }
func (w *writer) f64(v float64) {
	w.u64(math.Float64bits(v))
}
func (w *writer) bool(v bool) {
	if v {
		w.u8(1)
	} else {
		w.u8(0)
	}
}
func (w *writer) bytes(p []byte) { w.buf = append(w.buf, p...) }

// trailer appends the CRC-32 of everything written after dst's original
// length and returns the completed buffer.
func (w *writer) trailer(dst []byte) []byte {
	sum := crc32.ChecksumIEEE(w.buf[len(dst):])
	return binary.BigEndian.AppendUint32(w.buf, sum)
}

// reader consumes big-endian fields from a buffer, latching the first
// error.
type reader struct {
	buf []byte
	off int
	err error
}

func (r *reader) remaining() int { return len(r.buf) - r.off }

func (r *reader) take(n int) []byte {
	if r.err != nil {
		return nil
	}
	if n < 0 || r.remaining() < n {
		r.err = ErrTruncated
		return nil
	}
	b := r.buf[r.off : r.off+n]
	r.off += n
	return b
}

func (r *reader) u8() uint8 {
	b := r.take(1)
	if b == nil {
		return 0
	}
	return b[0]
}

func (r *reader) u16() uint16 {
	b := r.take(2)
	if b == nil {
		return 0
	}
	return binary.BigEndian.Uint16(b)
}

func (r *reader) u32() uint32 {
	b := r.take(4)
	if b == nil {
		return 0
	}
	return binary.BigEndian.Uint32(b)
}

func (r *reader) u64() uint64 {
	b := r.take(8)
	if b == nil {
		return 0
	}
	return binary.BigEndian.Uint64(b)
}

func (r *reader) f64() float64 { return math.Float64frombits(r.u64()) }

func (r *reader) bool() bool { return r.u8() != 0 }

func (r *reader) bytes(n int) []byte {
	b := r.take(n)
	if b == nil {
		return nil
	}
	out := make([]byte, n)
	copy(out, b)
	return out
}
