package main

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"math/rand"

	"cmtos/internal/cbuf"
)

// Every generated OSDU starts with this header, followed by the stream's
// seed-derived body:
//
//	[0:8]   due time, ns since the harness base instant
//	[8:12]  stream index
//	[12:20] OSDU sequence number within the stream
//	[20:24] CRC-32 of bytes [0:20]
//
// The due time rides in the payload so a reader can compute latency
// without any per-OSDU table shared with the generator.
const hdrLen = 24

// streamBody returns the body every OSDU of one stream carries: size-hdrLen
// bytes drawn from the seed and the stream index.
func streamBody(seed int64, stream, size int) []byte {
	b := make([]byte, size-hdrLen)
	rand.New(rand.NewSource(seed*1000003 + int64(stream))).Read(b)
	return b
}

// putHeader stamps buf (a full OSDU whose body is already in place).
func putHeader(buf []byte, due int64, stream uint32, seq uint64) {
	binary.BigEndian.PutUint64(buf[0:], uint64(due))
	binary.BigEndian.PutUint32(buf[8:], stream)
	binary.BigEndian.PutUint64(buf[12:], seq)
	binary.BigEndian.PutUint32(buf[20:], crc32.ChecksumIEEE(buf[:20]))
}

// oracle judges the OSDUs one sink reads from one stream. An OSDU is good
// when it is byte-identical to what the generator wrote and its sequence
// number is above every one read before; anything else the sink read is a
// violation. OSDUs that never arrive are found by the caller as
// accepted − good.
type oracle struct {
	stream uint32
	body   []byte
	next   uint64 // one past the highest good sequence read

	good       uint64
	firstGap   int64  // sequence number of the first OSDU that was skipped, -1 if none
	corrupt    uint64 // header or body differs from what was written
	duplicate  uint64 // the sequence read immediately before, again
	outOfOrder uint64 // a sequence below one already read
}

// check judges one OSDU and returns its due time when it is good.
func (o *oracle) check(u cbuf.OSDU) (due int64, ok bool) {
	p := u.Payload
	if len(p) != hdrLen+len(o.body) ||
		binary.BigEndian.Uint32(p[20:]) != crc32.ChecksumIEEE(p[:20]) ||
		binary.BigEndian.Uint32(p[8:]) != o.stream ||
		binary.BigEndian.Uint64(p[12:]) != uint64(u.Seq) ||
		!bytes.Equal(p[hdrLen:], o.body) {
		o.corrupt++
		return 0, false
	}
	seq := uint64(u.Seq)
	switch {
	case seq >= o.next:
		if seq > o.next && o.firstGap < 0 {
			o.firstGap = int64(o.next)
		}
		o.next = seq + 1
		o.good++
		return int64(binary.BigEndian.Uint64(p)), true
	case seq == o.next-1:
		o.duplicate++
	default:
		o.outOfOrder++
	}
	return 0, false
}

// violations is the count of OSDUs the sink read that it should not have.
func (o *oracle) violations() uint64 { return o.corrupt + o.duplicate + o.outOfOrder }
