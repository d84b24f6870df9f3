package shard

import (
	"bytes"
	"errors"
	"testing"

	"subtab/internal/query"
)

type marshaler interface{ Marshal() []byte }

// decoded drops a failed decode's typed nil, so callers see a nil message.
func decoded[T marshaler](m T, err error) (marshaler, error) {
	if err != nil {
		return nil, err
	}
	return m, nil
}

// wireDecoders dispatches a frame to its decoder by magic.
var wireDecoders = map[[4]byte]func([]byte) (marshaler, error){
	reqMagic:       func(b []byte) (marshaler, error) { return decoded(UnmarshalSampleRequest(b)) },
	respMagic:      func(b []byte) (marshaler, error) { return decoded(UnmarshalSampleResponse(b)) },
	cellsReqMagic:  func(b []byte) (marshaler, error) { return decoded(UnmarshalCellsRequest(b)) },
	cellsRespMagic: func(b []byte) (marshaler, error) { return decoded(UnmarshalCellsResponse(b)) },
}

// FuzzWire feeds arbitrary bytes to the four shard-exec decoders (sample
// and cells, request and response), chosen by the frame's magic, as read
// and again with the trailing checksum recomputed, so mutations reach the
// body decode instead of stopping at the CRC. A decoder must return a
// message or an error wrapping ErrCorrupt and never panic, and a message it
// accepts must re-marshal to exactly the bytes it came from. Seeds are
// marshalled valid messages of every kind.
func FuzzWire(f *testing.F) {
	for _, m := range []marshaler{
		&SampleRequest{Checksum: 0xabad1dea, Seed: -42, Budget: 256, Cols: []int{0, 3, 7}},
		&SampleRequest{Checksum: 1, Seed: 2, Budget: 3, Cols: []int{4}, Preds: []query.Predicate{
			{Col: "DISTANCE", Op: query.Lt, Num: 1234.5},
			{Col: "AIRLINE", Op: query.Eq, Str: "DL"},
		}},
		&SampleResponse{
			Summary: Summary{
				Strata: []StratumMin{{Row: -1}, {Row: 5, Hash: 99}},
				Cand:   []HashRow{{Hash: 3, Row: 12}, {Hash: 3, Row: 14}},
			},
			Rows:    []int64{5, 12, 14},
			Codes:   [][]uint16{{1, 2, 3}, {9, 8, 7}},
			Matched: 40,
		},
		&SampleResponse{Codes: make([][]uint16, 3)},
		&CellsRequest{Checksum: 7, Cols: []int{0, 2}, Rows: []int64{1, 5, 9}},
		&CellsResponse{Cells: [][]string{{"a", "", "ccc"}, {"1.5", "2", "NaN"}}},
	} {
		f.Add(m.Marshal())
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		variants := [][]byte{data}
		if len(data) >= 4 {
			variants = append(variants, appendCRC(bytes.Clone(data[:len(data)-4])))
		}
		for _, raw := range variants {
			if len(raw) < 4 {
				continue
			}
			decode, ok := wireDecoders[[4]byte(raw[:4])]
			if !ok {
				continue
			}
			msg, err := decode(raw)
			if err != nil {
				if !errors.Is(err, ErrCorrupt) {
					t.Fatalf("error outside ErrCorrupt: %v", err)
				}
				continue
			}
			if again := msg.Marshal(); !bytes.Equal(again, raw) {
				t.Fatalf("decoded %x, re-marshalled %x", raw, again)
			}
		}
	})
}
