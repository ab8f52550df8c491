// Fixed-width binary codec for recorded instruction slabs. The in-memory
// isa.Inst struct is 40 bytes with padding; the wire form packs the same
// nine fields into 30 bytes, so a paper-scale recording (millions of
// instructions per benchmark) costs 30 B/inst of file-backed pages instead
// of 40 B/inst of heap. Decode(Encode(x)) == x for every field, which is
// what keeps mmap replay bit-identical to live generation.
package workload

import (
	"context"
	"encoding/binary"
	"fmt"
	"io"

	"gals/internal/isa"
)

// EncodedInstSize is the fixed wire size of one instruction.
const EncodedInstSize = 30

// appendInst appends the 30-byte encoding of in to dst.
func appendInst(dst []byte, in *isa.Inst) []byte {
	var buf [EncodedInstSize]byte
	binary.LittleEndian.PutUint64(buf[0:], in.PC)
	binary.LittleEndian.PutUint64(buf[8:], in.Addr)
	binary.LittleEndian.PutUint64(buf[16:], in.Target)
	buf[24] = byte(in.Class)
	buf[25] = byte(in.Dest)
	buf[26] = byte(in.Src1)
	buf[27] = byte(in.Src2)
	buf[28] = in.Size
	if in.Taken {
		buf[29] = 1
	}
	return append(dst, buf[:]...)
}

// decodeInst fills in from the 30-byte encoding at src[:EncodedInstSize].
func decodeInst(src []byte, in *isa.Inst) {
	_ = src[EncodedInstSize-1]
	in.PC = binary.LittleEndian.Uint64(src[0:])
	in.Addr = binary.LittleEndian.Uint64(src[8:])
	in.Target = binary.LittleEndian.Uint64(src[16:])
	in.Class = isa.OpClass(src[24])
	in.Dest = isa.Reg(src[25])
	in.Src1 = isa.Reg(src[26])
	in.Src2 = isa.Reg(src[27])
	in.Size = src[28]
	in.Taken = src[29] != 0
}

// RecordToContext streams the first n instructions of the benchmark's
// deterministic trace to w in the fixed wire encoding, without ever
// materializing the slab: peak memory is one buffer, independent of n. The
// byte stream is exactly what RecordingFromEncoded replays. ctx bounds the
// stream: cancellation is observed once per buffer flush (4096
// instructions), so a deadline aborts a paper-scale recording within
// microseconds rather than after the full stream. A nil or
// never-cancellable ctx costs one nil check per flush — the encoded bytes
// are identical either way.
func (s Spec) RecordToContext(ctx context.Context, w io.Writer, n int64) error {
	if n <= 0 {
		return fmt.Errorf("workload: non-positive recording length %d", n)
	}
	var done <-chan struct{}
	if ctx != nil {
		done = ctx.Done()
	}
	tr := s.NewTrace()
	var in isa.Inst
	buf := make([]byte, 0, 4096*EncodedInstSize)
	for i := int64(0); i < n; i++ {
		tr.Next(&in)
		buf = appendInst(buf, &in)
		if len(buf) == cap(buf) {
			if done != nil {
				select {
				case <-done:
					return ctx.Err()
				default:
				}
			}
			if _, err := w.Write(buf); err != nil {
				return err
			}
			buf = buf[:0]
		}
	}
	if len(buf) > 0 {
		if _, err := w.Write(buf); err != nil {
			return err
		}
	}
	return nil
}

// RecordingFromEncoded wraps an encoded slab (produced by RecordToContext)
// as a replayable Recording without decoding it up front: replays decode on
// the fly in small chunks, so an mmap'd slab costs file-backed pages plus
// one chunk buffer per replay cursor. raw must hold a whole number of encoded
// instructions and must not be mutated afterwards.
func RecordingFromEncoded(spec Spec, raw []byte) (*Recording, error) {
	if len(raw) == 0 || len(raw)%EncodedInstSize != 0 {
		return nil, fmt.Errorf("workload: encoded slab of %d bytes is not a whole number of %d-byte instructions", len(raw), EncodedInstSize)
	}
	return &Recording{spec: spec, raw: raw, count: int64(len(raw) / EncodedInstSize)}, nil
}
