package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
)

// selfTimeByLayer decodes a runtime/pprof CPU profile and returns each
// layer's self CPU seconds: every sample's CPU time is charged to the
// layer of its leaf frame (the innermost inlined function), so the layers
// sum to the profile's sampled CPU.
func selfTimeByLayer(gz []byte) (map[string]float64, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("gunzip: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("gunzip: %w", err)
	}

	type sample struct{ locs, vals []uint64 }
	var (
		strs      []string
		types     []uint64 // sample_type name string indices
		samples   []sample
		leafFn    = map[uint64]uint64{} // location id -> innermost function id
		fnNameIdx = map[uint64]uint64{} // function id -> name string index
	)
	err = fields(raw, func(f int, v uint64, b []byte) error {
		switch f {
		case 1: // sample_type
			return fields(b, func(f int, v uint64, _ []byte) error {
				if f == 1 {
					types = append(types, v)
				}
				return nil
			})
		case 2: // sample
			var s sample
			err := fields(b, func(f int, v uint64, b []byte) error {
				switch f {
				case 1:
					s.locs = scalars(s.locs, v, b)
				case 2:
					s.vals = scalars(s.vals, v, b)
				}
				return nil
			})
			samples = append(samples, s)
			return err
		case 4: // location
			var id, fn uint64
			first := true
			err := fields(b, func(f int, v uint64, b []byte) error {
				switch f {
				case 1:
					id = v
				case 4: // line; the first one is the innermost inlined call
					if !first {
						return nil
					}
					first = false
					return fields(b, func(f int, v uint64, _ []byte) error {
						if f == 1 {
							fn = v
						}
						return nil
					})
				}
				return nil
			})
			leafFn[id] = fn
			return err
		case 5: // function
			var id, name uint64
			err := fields(b, func(f int, v uint64, _ []byte) error {
				switch f {
				case 1:
					id = v
				case 2:
					name = v
				}
				return nil
			})
			fnNameIdx[id] = name
			return err
		case 6: // string_table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}

	cpu := -1
	for i, t := range types {
		if t < uint64(len(strs)) && strs[t] == "cpu" {
			cpu = i
		}
	}
	if cpu < 0 {
		return nil, errors.New("profile has no cpu sample type")
	}
	self := map[string]float64{}
	for _, s := range samples {
		if cpu >= len(s.vals) {
			return nil, errors.New("sample lacks a cpu value")
		}
		layer := "other"
		if len(s.locs) > 0 {
			if n := fnNameIdx[leafFn[s.locs[0]]]; n < uint64(len(strs)) {
				layer = layerOf(strs[n])
			}
		}
		self[layer] += float64(s.vals[cpu]) / 1e9
	}
	return self, nil
}

// fields walks one protobuf message, passing each field's number with its
// varint value or its length-delimited body.
func fields(b []byte, visit func(field int, v uint64, body []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errors.New("pprof: bad field key")
		}
		b = b[n:]
		var v uint64
		var body []byte
		switch key & 7 {
		case 0:
			v, n = binary.Uvarint(b)
			if n <= 0 {
				return errors.New("pprof: bad varint")
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errors.New("pprof: short fixed64")
			}
			b = b[8:]
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errors.New("pprof: bad length")
			}
			body, b = b[n:n+int(l)], b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errors.New("pprof: short fixed32")
			}
			b = b[4:]
		default:
			return fmt.Errorf("pprof: wire type %d", key&7)
		}
		if err := visit(int(key>>3), v, body); err != nil {
			return err
		}
	}
	return nil
}

// scalars appends a repeated varint field's values, packed (body) or not.
func scalars(dst []uint64, v uint64, body []byte) []uint64 {
	if body == nil {
		return append(dst, v)
	}
	for len(body) > 0 {
		x, n := binary.Uvarint(body)
		if n <= 0 {
			break
		}
		dst = append(dst, x)
		body = body[n:]
	}
	return dst
}
