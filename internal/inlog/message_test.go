package inlog

import (
	"bytes"
	"testing"
)

func TestMessageCodec(t *testing.T) {
	long := bytes.Repeat([]byte{0xA5}, 300) // key length needs a 2-byte uvarint
	cases := []Message{
		{Op: OpRMW, Key: []byte("k1234567"), Value: []byte{1, 0, 0, 0, 0, 0, 0, 0}},
		{Op: OpUpsert, Key: []byte("k"), Value: []byte("value")},
		{Op: OpUpsert, Key: []byte("k"), Value: nil},
		{Op: OpDelete, Key: []byte("gone"), Value: nil},
		{Op: OpRMW, Key: long[:127], Value: long},
		{Op: OpRMW, Key: long[:128], Value: long},
		{Op: OpRMW, Key: long, Value: nil},
	}
	for i, m := range cases {
		enc := EncodeMessage([]byte("prefix"), m)
		if !bytes.HasPrefix(enc, []byte("prefix")) {
			t.Fatalf("case %d: EncodeMessage clobbered dst", i)
		}
		enc = enc[len("prefix"):]
		if want := 1 + uvarintLen(len(m.Key)) + len(m.Key) + len(m.Value); len(enc) != want {
			t.Fatalf("case %d: encoded to %d bytes, want %d", i, len(enc), want)
		}
		got, err := DecodeMessage(enc)
		if err != nil {
			t.Fatalf("case %d: %v", i, err)
		}
		if got.Op != m.Op || !bytes.Equal(got.Key, m.Key) || !bytes.Equal(got.Value, m.Value) {
			t.Fatalf("case %d: round trip = %+v, want %+v", i, got, m)
		}
	}
	// The 16-byte key+value message of the ingest workloads is 18 bytes.
	if n := len(EncodeMessage(nil, cases[0])); n != 18 {
		t.Fatalf("8-byte key + 8-byte value encodes to %d bytes, want 18", n)
	}

	malformed := map[string][]byte{
		"empty":                    {},
		"op only":                  {byte(OpRMW)},
		"unknown op":               {9, 1, 'k'},
		"op zero":                  {0, 1, 'k'},
		"key longer than message":  {byte(OpRMW), 5, 'a', 'b'},
		"unterminated key length":  {byte(OpRMW), 0x80},
		"key length overflows u64": append([]byte{byte(OpRMW)}, bytes.Repeat([]byte{0xFF}, 10)...),
		"huge key length":          {byte(OpRMW), 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x7F, 'k'},
		"empty key":                EncodeMessage(nil, Message{Op: OpUpsert, Key: nil, Value: []byte("keyless")}),
		"key longer than a record": EncodeMessage(nil, Message{Op: OpUpsert, Key: make([]byte, 1<<16), Value: []byte("v")}),
	}
	for name, buf := range malformed {
		if m, err := DecodeMessage(buf); err == nil {
			t.Fatalf("%s: decoded to %+v, want an error", name, m)
		}
	}
}

func uvarintLen(n int) int {
	w := 1
	for ; n >= 0x80; n >>= 7 {
		w++
	}
	return w
}

// FuzzMessage: arbitrary bytes either fail to decode or decode to a message
// that re-encodes to exactly those bytes (the uvarint key length must be in
// its shortest form for that, so a padded one may differ — then the decoded
// fields must still round-trip).
func FuzzMessage(f *testing.F) {
	f.Add([]byte{})
	f.Add(EncodeMessage(nil, Message{Op: OpRMW, Key: []byte("k1234567"), Value: []byte{1, 0, 0, 0, 0, 0, 0, 0}}))
	f.Add(EncodeMessage(nil, Message{Op: OpDelete, Key: bytes.Repeat([]byte("k"), 200)}))
	f.Add([]byte{byte(OpUpsert), 0x80, 0x00, 'v'}) // padded zero key length
	f.Add([]byte{byte(OpRMW), 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x7F})
	f.Add([]byte{1, 8, 0, 0, 0, 'o', 'l', 'd'}) // the old op|u32 klen header

	f.Fuzz(func(t *testing.T, raw []byte) {
		m, err := DecodeMessage(raw)
		if err != nil {
			return
		}
		if len(m.Key)+len(m.Value) > len(raw)-2 {
			t.Fatalf("decoded %d key + %d value bytes out of %d", len(m.Key), len(m.Value), len(raw))
		}
		again, err := DecodeMessage(EncodeMessage(nil, m))
		if err != nil || again.Op != m.Op || !bytes.Equal(again.Key, m.Key) || !bytes.Equal(again.Value, m.Value) {
			t.Fatalf("re-encoded message decodes to (%+v, %v), want %+v", again, err, m)
		}
	})
}
