// Command sdrcompress is a file-level front end to the three
// error-bounded scientific codecs (sz, zfp, mgard). Input files hold raw
// little-endian float64 values; compressed files use the library's
// self-describing container, so decompression needs no flags.
//
// Usage:
//
//	sdrcompress c -codec sz -mode abs-linf -tol 1e-4 -dims 512x512 in.f64 out.sdrc
//	sdrcompress d in.sdrc out.f64
//	sdrcompress info in.sdrc
package main

import (
	"encoding/binary"
	"flag"
	"fmt"
	"math"
	"os"
	"strconv"
	"strings"

	"github.com/scidata/errprop/internal/compress"
	_ "github.com/scidata/errprop/internal/compress/mgard"
	_ "github.com/scidata/errprop/internal/compress/sz"
	_ "github.com/scidata/errprop/internal/compress/zfp"
	"github.com/scidata/errprop/internal/integrity"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	var err error
	switch os.Args[1] {
	case "c":
		err = compressCmd(os.Args[2:])
	case "d":
		err = decompressCmd(os.Args[2:])
	case "info":
		err = infoCmd(os.Args[2:])
	default:
		usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "sdrcompress:", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprint(os.Stderr, `sdrcompress — error-bounded lossy compression for float64 scientific data

  sdrcompress c -codec <sz|zfp|mgard> -mode <abs-linf|rel-linf|l2|rel-l2> -tol <v> -dims NxM in.f64 out.sdrc
  sdrcompress d in.sdrc out.f64
  sdrcompress info in.sdrc
`)
}

func parseMode(s string) (compress.Mode, error) {
	for _, m := range []compress.Mode{compress.AbsLinf, compress.RelLinf, compress.L2, compress.RelL2} {
		if m.String() == s {
			return m, nil
		}
	}
	return 0, fmt.Errorf("unknown mode %q", s)
}

func parseDims(s string) ([]int, error) {
	parts := strings.Split(s, "x")
	dims := make([]int, 0, len(parts))
	for _, p := range parts {
		d, err := strconv.Atoi(p)
		if err != nil || d <= 0 {
			return nil, fmt.Errorf("bad dims %q", s)
		}
		dims = append(dims, d)
	}
	return dims, nil
}

func readF64(path string) ([]float64, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	if len(raw)%8 != 0 {
		return nil, fmt.Errorf("%s: size %d is not a multiple of 8", path, len(raw))
	}
	out := make([]float64, len(raw)/8)
	for i := range out {
		out[i] = math.Float64frombits(binary.LittleEndian.Uint64(raw[i*8:]))
	}
	return out, nil
}

func writeF64(path string, data []float64) error {
	raw := make([]byte, len(data)*8)
	for i, v := range data {
		binary.LittleEndian.PutUint64(raw[i*8:], math.Float64bits(v))
	}
	return integrity.WriteFileAtomic(path, raw)
}

func compressCmd(args []string) error {
	fs := flag.NewFlagSet("c", flag.ContinueOnError)
	codec := fs.String("codec", "sz", "codec: sz, zfp, mgard")
	modeS := fs.String("mode", "abs-linf", "error mode")
	tol := fs.Float64("tol", 1e-4, "error tolerance")
	dimsS := fs.String("dims", "", "grid dims, e.g. 512x512 (default: flat 1-D)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 2 {
		return fmt.Errorf("usage: sdrcompress c [flags] in.f64 out.sdrc")
	}
	data, err := readF64(fs.Arg(0))
	if err != nil {
		return err
	}
	dims := []int{len(data)}
	if *dimsS != "" {
		if dims, err = parseDims(*dimsS); err != nil {
			return err
		}
	}
	mode, err := parseMode(*modeS)
	if err != nil {
		return err
	}
	blob, err := compress.Encode(*codec, data, dims, mode, *tol)
	if err != nil {
		return err
	}
	if err := integrity.WriteFileAtomic(fs.Arg(1), blob); err != nil {
		return err
	}
	fmt.Printf("%s: %d -> %d bytes (ratio %.2f)\n", *codec, len(data)*8, len(blob),
		compress.Ratio(len(data), blob))
	return nil
}

func decompressCmd(args []string) error {
	if len(args) != 2 {
		return fmt.Errorf("usage: sdrcompress d in.sdrc out.f64")
	}
	blob, err := os.ReadFile(args[0])
	if err != nil {
		return err
	}
	data, meta, err := compress.Decode(blob)
	if err != nil {
		return err
	}
	if err := writeF64(args[1], data); err != nil {
		return err
	}
	fmt.Printf("%s: %d values, dims %v, %s tol %g\n", meta.CodecName, len(data), meta.Dims, meta.Mode, meta.Tol)
	return nil
}

func infoCmd(args []string) error {
	if len(args) != 1 {
		return fmt.Errorf("usage: sdrcompress info in.sdrc")
	}
	blob, err := os.ReadFile(args[0])
	if err != nil {
		return err
	}
	data, meta, err := compress.Decode(blob)
	if err != nil {
		return err
	}
	fmt.Printf("codec:  %s\nmode:   %s\ntol:    %g\ndims:   %v\nvalues: %d\nratio:  %.2f\n",
		meta.CodecName, meta.Mode, meta.Tol, meta.Dims, len(data), compress.Ratio(len(data), blob))
	return nil
}
