package wire

import (
	"bytes"
	"encoding/gob"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"repro/internal/ids"
)

// fillRandom populates v with deterministic pseudo-random content covering
// the codec's edge cases: empty and non-empty strings/slices, nil and
// non-nil pointers, zero and non-zero times.
func fillRandom(rng *rand.Rand, v reflect.Value, depth int) {
	switch v.Kind() {
	case reflect.Bool:
		v.SetBool(rng.Intn(2) == 0)
	case reflect.Int, reflect.Int64:
		v.SetInt(rng.Int63() - rng.Int63())
	case reflect.Uint8:
		v.SetUint(uint64(rng.Intn(3)))
	case reflect.Uint32:
		v.SetUint(uint64(rng.Uint32()))
	case reflect.Uint64:
		v.SetUint(rng.Uint64())
	case reflect.Float64:
		v.SetFloat(rng.NormFloat64()) // never NaN
	case reflect.String:
		n := rng.Intn(12)
		b := make([]byte, n)
		for i := range b {
			b[i] = byte('a' + rng.Intn(26))
		}
		v.SetString(string(b))
	case reflect.Slice:
		n := rng.Intn(4)
		if n == 0 {
			v.Set(reflect.Zero(v.Type())) // nil, like gob's omitted zero field
			return
		}
		s := reflect.MakeSlice(v.Type(), n, n)
		for i := 0; i < n; i++ {
			fillRandom(rng, s.Index(i), depth+1)
		}
		v.Set(s)
	case reflect.Array: // ids.SegID
		for i := 0; i < v.Len(); i++ {
			v.Index(i).SetUint(uint64(rng.Intn(256)))
		}
	case reflect.Ptr:
		if depth > 3 || rng.Intn(2) == 0 {
			v.Set(reflect.Zero(v.Type()))
			return
		}
		v.Set(reflect.New(v.Type().Elem()))
		fillRandom(rng, v.Elem(), depth+1)
	case reflect.Struct:
		if v.Type() == reflect.TypeOf(time.Time{}) {
			if rng.Intn(3) == 0 {
				v.Set(reflect.ValueOf(time.Time{}))
			} else {
				v.Set(reflect.ValueOf(time.Unix(rng.Int63n(1<<33), rng.Int63n(1e9))))
			}
			return
		}
		for i := 0; i < v.NumField(); i++ {
			fillRandom(rng, v.Field(i), depth+1)
		}
	default:
		panic("fillRandom: unhandled kind " + v.Kind().String())
	}
}

// semanticEqual compares two messages with gob's equivalences: nil and
// empty slices are equal, and times compare by instant rather than by
// internal representation.
func semanticEqual(a, b reflect.Value) bool {
	if a.Type() != b.Type() {
		return false
	}
	switch a.Kind() {
	case reflect.Slice:
		if a.Len() != b.Len() {
			return false
		}
		for i := 0; i < a.Len(); i++ {
			if !semanticEqual(a.Index(i), b.Index(i)) {
				return false
			}
		}
		return true
	case reflect.Ptr:
		if a.IsNil() != b.IsNil() {
			return false
		}
		if a.IsNil() {
			return true
		}
		return semanticEqual(a.Elem(), b.Elem())
	case reflect.Struct:
		if a.Type() == reflect.TypeOf(time.Time{}) {
			return a.Interface().(time.Time).Equal(b.Interface().(time.Time))
		}
		for i := 0; i < a.NumField(); i++ {
			if !semanticEqual(a.Field(i), b.Field(i)) {
				return false
			}
		}
		return true
	case reflect.Array:
		return a.Interface() == b.Interface()
	default:
		return a.Interface() == b.Interface()
	}
}

// registerGob registers every message type with encoding/gob, which the
// package itself no longer does: gob survives here only as the reference
// implementation the binary codec is checked and benchmarked against.
// (Registering a type again under the same name is a no-op.)
func registerGob() {
	for _, m := range Messages() {
		gob.Register(m)
	}
}

// TestCodecDifferentialVsGob is the correctness backstop for the binary
// codec: for every registered message type and many random instances, the
// binary round trip must agree with the gob round trip (the previous wire
// format) and with the original value, and EncodedSize must be exact.
func TestCodecDifferentialVsGob(t *testing.T) {
	registerGob()
	rng := rand.New(rand.NewSource(7))
	for _, zero := range Messages() {
		typ := reflect.TypeOf(zero)
		for trial := 0; trial < 50; trial++ {
			mv := reflect.New(typ).Elem()
			if trial > 0 { // trial 0 keeps the zero value itself
				fillRandom(rng, mv, 0)
			}
			in := mv.Interface()

			// Binary round trip, with exact-size check.
			enc, err := Append(nil, in)
			if err != nil {
				t.Fatalf("%s: Append: %v", typ, err)
			}
			if want, _ := EncodedSize(in); want != len(enc) {
				t.Fatalf("%s: EncodedSize %d but Append produced %d bytes", typ, want, len(enc))
			}
			if pn, _ := EncodedSize(mv.Addr().Interface()); pn != len(enc) {
				t.Fatalf("%s: pointer EncodedSize %d != value %d", typ, pn, len(enc))
			}
			binOut, err := Decode(enc)
			if err != nil {
				t.Fatalf("%s: Decode: %v", typ, err)
			}

			// Gob round trip of the same value (through an interface, as the
			// old transport shipped it).
			var buf bytes.Buffer
			if err := gob.NewEncoder(&buf).Encode(&in); err != nil {
				t.Fatalf("%s: gob encode: %v", typ, err)
			}
			var gobOut any
			if err := gob.NewDecoder(&buf).Decode(&gobOut); err != nil {
				t.Fatalf("%s: gob decode: %v", typ, err)
			}

			if !semanticEqual(reflect.ValueOf(binOut), reflect.ValueOf(gobOut)) {
				t.Fatalf("%s: binary and gob round trips disagree:\nbinary: %+v\ngob:    %+v",
					typ, binOut, gobOut)
			}
			if !semanticEqual(reflect.ValueOf(binOut), mv) {
				t.Fatalf("%s: binary round trip changed the message:\nin:  %+v\nout: %+v",
					typ, in, binOut)
			}
		}
	}
}

func TestCodecAppendDoesNotAllocate(t *testing.T) {
	// Box the message once: converting a value type to `any` per call would
	// itself allocate, and real call sites already hold messages as `any`.
	var msg any = SegWrite{Owner: "sess-42", Seg: [16]byte{1, 2}, Offset: 4096,
		Data: bytes.Repeat([]byte{0xAB}, 8192)}
	n, _ := EncodedSize(msg)
	buf := make([]byte, 0, n)
	allocs := testing.AllocsPerRun(100, func() {
		var err error
		buf, err = Append(buf[:0], msg)
		if err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("steady-state Append allocates %v per op, want 0", allocs)
	}
}

func TestCodecRejectsCorruptInput(t *testing.T) {
	enc, _ := Append(nil, SegWrite{Owner: "s", Data: []byte("abcdef")})
	if _, err := Decode(enc[:len(enc)-1]); err == nil {
		t.Error("truncated message decoded without error")
	}
	if _, err := Decode(append(append([]byte{}, enc...), 0)); err == nil {
		t.Error("trailing byte decoded without error")
	}
	if _, err := Decode([]byte{0xFF, 0xFF}); err == nil {
		t.Error("unknown tag decoded without error")
	}
	if _, err := Decode(nil); err == nil {
		t.Error("empty input decoded without error")
	}
	// A corrupt element count must not cause a huge allocation: flip the
	// count field of a Prepare2PC segs list to 2^32-1.
	p2pc, _ := Append(nil, Prepare2PC{Owner: "o", Segs: make([]ids.SegID, 1)})
	copy(p2pc[len(p2pc)-16-4:len(p2pc)-16], []byte{0xFF, 0xFF, 0xFF, 0xFF})
	if _, err := Decode(p2pc); err == nil {
		t.Error("absurd element count decoded without error")
	}
}

func TestEnvelopeRoundTrip(t *testing.T) {
	msg := SegRead{Seg: [16]byte{9}, Version: 3, Offset: 100, Length: 200}
	b, err := AppendEnvelope(nil, "n1:9000", 111, 222, msg)
	if err != nil {
		t.Fatal(err)
	}
	if n, ok := EnvelopeSize("n1:9000", msg); !ok || n != len(b) {
		t.Fatalf("EnvelopeSize = %d,%v; encoded %d bytes", n, ok, len(b))
	}
	from, trace, span, out, err := DecodeEnvelope(b)
	if err != nil {
		t.Fatal(err)
	}
	if from != "n1:9000" || trace != 111 || span != 222 || !reflect.DeepEqual(out, msg) {
		t.Fatalf("envelope round trip: %q %d %d %+v", from, trace, span, out)
	}

	// Reply with a message.
	rb, err := AppendReply(nil, SegReadResp{OK: true, Data: []byte("xyz")}, "")
	if err != nil {
		t.Fatal(err)
	}
	if n, ok := ReplySize(SegReadResp{OK: true, Data: []byte("xyz")}, ""); !ok || n != len(rb) {
		t.Fatalf("ReplySize = %d,%v; encoded %d bytes", n, ok, len(rb))
	}
	rmsg, errStr, err := DecodeReply(rb)
	if err != nil || errStr != "" {
		t.Fatalf("reply round trip: %v %q", err, errStr)
	}
	if rr, ok := rmsg.(SegReadResp); !ok || !rr.OK || string(rr.Data) != "xyz" {
		t.Fatalf("reply message: %+v", rmsg)
	}

	// Error-only reply.
	rb, err = AppendReply(nil, nil, "boom")
	if err != nil {
		t.Fatal(err)
	}
	rmsg, errStr, err = DecodeReply(rb)
	if err != nil || rmsg != nil || errStr != "boom" {
		t.Fatalf("error reply round trip: %v %v %q", rmsg, err, errStr)
	}
}

// FuzzDecode asserts the decoder never panics or over-allocates on
// arbitrary input, seeded with valid encodings of every message type.
func FuzzDecode(f *testing.F) {
	rng := rand.New(rand.NewSource(11))
	for _, zero := range Messages() {
		mv := reflect.New(reflect.TypeOf(zero)).Elem()
		fillRandom(rng, mv, 0)
		enc, err := Append(nil, mv.Interface())
		if err != nil {
			f.Fatal(err)
		}
		f.Add(enc)
		env, _ := AppendEnvelope(nil, "p1", 1, 2, mv.Interface())
		f.Add(env)
		rep, _ := AppendReply(nil, mv.Interface(), "err")
		f.Add(rep)
	}
	// Retired tag slots stay reserved: a peer still sending one must be
	// refused, bare, in a call envelope and in a reply.
	for tag := uint16(1); tag < tagMax; tag++ {
		if codecTable[tag].zero != nil {
			continue
		}
		bare := appendU16(nil, tag)
		env := appendU16(appendU64(appendU64(appendStr(nil, "p1"), 1), 2), tag)
		rep := appendU16(append(appendStr(nil, "err"), 1), tag)
		if _, err := Decode(bare); err == nil {
			f.Fatalf("reserved tag %d decoded", tag)
		}
		if _, _, _, _, err := DecodeEnvelope(env); err == nil {
			f.Fatalf("reserved tag %d decoded in an envelope", tag)
		}
		if _, _, err := DecodeReply(rep); err == nil {
			f.Fatalf("reserved tag %d decoded in a reply", tag)
		}
		f.Add(bare)
		f.Add(env)
		f.Add(rep)
	}
	f.Add([]byte{})
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF})
	f.Fuzz(func(t *testing.T, data []byte) {
		msg, err := Decode(data)
		if err == nil {
			// Anything that decodes must re-encode to the same bytes.
			re, err := Append(nil, msg)
			if err != nil {
				t.Fatalf("re-encode of decoded %T: %v", msg, err)
			}
			if !bytes.Equal(re, data) {
				t.Fatalf("decode/re-encode of %T not canonical:\nin:  %x\nout: %x", msg, data, re)
			}
		}
		// The view decoder (payloads alias the input) must accept exactly
		// what the copying decoder accepts, and decode the same message.
		// Messages are compared re-encoded: a NaN field is not DeepEqual to
		// itself.
		view, verr := decodeWhole(&wireReader{b: data, view: true})
		if (err == nil) != (verr == nil) || !sameEncoding(t, msg, view) {
			t.Fatalf("view decode (%T, %v) differs from copying decode (%T, %v)", view, verr, msg, err)
		}
		from, trace, span, msg, err := DecodeEnvelope(data)
		vfrom, vtrace, vspan, view, verr := DecodeEnvelopeView(data)
		if (err == nil) != (verr == nil) || from != vfrom || trace != vtrace || span != vspan || !sameEncoding(t, msg, view) {
			t.Fatalf("view envelope (%q %d %d %T, %v) differs from copying envelope (%q %d %d %T, %v)",
				vfrom, vtrace, vspan, view, verr, from, trace, span, msg, err)
		}
		_, _, _ = DecodeReply(data)
	})
}

// sameEncoding reports whether a and b are both nil or encode to the same
// bytes.
func sameEncoding(t *testing.T, a, b any) bool {
	if a == nil || b == nil {
		return a == nil && b == nil
	}
	ea, err := Append(nil, a)
	if err != nil {
		t.Fatal(err)
	}
	eb, err := Append(nil, b)
	if err != nil {
		t.Fatal(err)
	}
	return bytes.Equal(ea, eb)
}

// TestDecodeEnvelopeViewAliasesPayloads: a view-decoded request's payload
// is the frame's own bytes, clipped so an append cannot run into the rest
// of the frame; DecodeEnvelope still copies.
func TestDecodeEnvelopeViewAliasesPayloads(t *testing.T) {
	payload := bytes.Repeat([]byte{0xAB}, 300)
	frame, err := AppendEnvelope(nil, "p1", 1, 2, SegWrite{Owner: "o", Data: payload, Direct: true})
	if err != nil {
		t.Fatal(err)
	}
	_, _, _, msg, err := DecodeEnvelopeView(frame)
	if err != nil {
		t.Fatal(err)
	}
	w := msg.(SegWrite)
	at := bytes.Index(frame, payload)
	if !bytes.Equal(w.Data, payload) || &w.Data[0] != &frame[at] || cap(w.Data) != len(payload) || !w.Direct {
		t.Fatalf("view payload does not alias the frame clipped to its length (cap %d)", cap(w.Data))
	}
	_, _, _, msg, _ = DecodeEnvelope(frame)
	if c := msg.(SegWrite); &c.Data[0] == &frame[at] {
		t.Fatal("DecodeEnvelope aliased the frame")
	}
}

// ---------------------------------------------------------------------------
// Benchmarks: gob (previous wire format) vs binary codec, encode+decode per
// op on the top-traffic message types.

func benchMsgs() map[string]any {
	return map[string]any{
		"SegRead":  SegRead{Seg: [16]byte{1, 2, 3}, Version: 9, Offset: 1 << 20, Length: 1 << 16},
		"SegWrite": SegWrite{Owner: "sess-7", Seg: [16]byte{4, 5}, Offset: 4096, Data: bytes.Repeat([]byte{0xCD}, 4096)},
		"Heartbeat": Heartbeat{From: "p17", Seq: 12345,
			Load: LoadInfo{Rack: "r2", Load: 0.42, IOWaitEWMA: 0.1, FreeBytes: 1 << 36, TotalBytes: 1 << 37}},
		"LocRefresh": LocRefresh{From: "p17", Entries: func() []LocEntry {
			es := make([]LocEntry, 16)
			for i := range es {
				es[i] = LocEntry{Seg: [16]byte{byte(i)}, Version: uint64(i), Size: 1 << 20, ReplDeg: 2}
			}
			return es
		}()},
	}
}

var sinkMsg any

// BenchmarkCodecBinary measures Append + Decode, the pair both transports
// run per message.
func BenchmarkCodecBinary(b *testing.B) {
	for name, msg := range benchMsgs() {
		b.Run(name, func(b *testing.B) {
			enc, err := Append(nil, msg)
			if err != nil {
				b.Fatal(err)
			}
			buf := make([]byte, 0, len(enc))
			b.SetBytes(int64(len(enc)))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				buf = buf[:0]
				buf, err = Append(buf, msg)
				if err != nil {
					b.Fatal(err)
				}
				if sinkMsg, err = Decode(buf); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkCodecGob(b *testing.B) {
	registerGob()
	for name, msg := range benchMsgs() {
		b.Run(name, func(b *testing.B) {
			// Persistent encoder/decoder over one stream: gob's best case
			// (type info transmitted once), matching a long-lived connection.
			var buf bytes.Buffer
			enc := gob.NewEncoder(&buf)
			dec := gob.NewDecoder(&buf)
			sz, _ := EncodedSize(msg)
			b.SetBytes(int64(sz))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				in := msg
				if err := enc.Encode(&in); err != nil {
					b.Fatal(err)
				}
				var out any
				if err := dec.Decode(&out); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
