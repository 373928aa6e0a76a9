// Package spec parses the small configuration grammars the irs daemons
// share on their command lines: dataset specs ("name[:weighted|:unweighted]",
// used by both daemons) and partition specs ("addr@lo:hi", used by
// irsrouter). Each parser returns typed errors and each parsed value
// round-trips through String(), so flag defaults, log lines, and error
// messages all speak the same grammar.
package spec

import (
	"fmt"
	"math"
	"strconv"
	"strings"
)

// Errors shared by the parsers. Concrete parse failures wrap one of these,
// so callers can errors.Is without matching message text.
var (
	// ErrEmptySpec rejects an empty spec or an empty spec list.
	ErrEmptySpec = fmt.Errorf("spec: empty spec")
	// ErrBadName rejects a dataset name CheckName does not accept.
	ErrBadName = fmt.Errorf("spec: invalid dataset name")
	// ErrBadKind rejects a dataset kind outside weighted/unweighted.
	ErrBadKind = fmt.Errorf("spec: unknown dataset kind")
	// ErrBadPartition rejects a malformed partition spec.
	ErrBadPartition = fmt.Errorf("spec: malformed partition")
	// ErrBadRange rejects a partition whose bounds are NaN or inverted.
	ErrBadRange = fmt.Errorf("spec: invalid partition range")
)

// Dataset is one parsed "name[:weighted|:unweighted]" spec.
type Dataset struct {
	Name     string
	Weighted bool
}

// String renders the spec in canonical form, always spelling the kind —
// ParseDataset(d.String()) == d.
func (d Dataset) String() string {
	if d.Weighted {
		return d.Name + ":weighted"
	}
	return d.Name + ":unweighted"
}

// CheckName is the one dataset-name rule, applied wherever a name enters
// the system (flags, config files, POST /datasets). A name is a single
// path element — a durable irsd stores the dataset under <data-dir>/<name>
// — that fits the binary frames' u8 length prefix and survives this
// package's grammar: non-empty, at most 255 bytes, not "." or "..", and
// free of '/', '\\', control bytes (NUL included) and the separators
// ':' ',' '@' '#'.
func CheckName(name string) error {
	switch {
	case name == "":
		return fmt.Errorf("%w: empty", ErrBadName)
	case len(name) > 255:
		return fmt.Errorf("%w: %d bytes (max 255)", ErrBadName, len(name))
	case name == "." || name == "..":
		return fmt.Errorf("%w: %q", ErrBadName, name)
	}
	for i := 0; i < len(name); i++ {
		if c := name[i]; c < 0x20 || c == 0x7f || strings.IndexByte(`/\:,@#`, c) >= 0 {
			return fmt.Errorf("%w: %q contains %q", ErrBadName, name, c)
		}
	}
	return nil
}

// ParseDataset parses one "name[:kind]" spec; an omitted kind means
// unweighted.
func ParseDataset(raw string) (Dataset, error) {
	raw = strings.TrimSpace(raw)
	if raw == "" {
		return Dataset{}, ErrEmptySpec
	}
	name, kind, ok := strings.Cut(raw, ":")
	if name == "" {
		return Dataset{}, fmt.Errorf("%w: %q has no dataset name", ErrEmptySpec, raw)
	}
	if err := CheckName(name); err != nil {
		return Dataset{}, err
	}
	if !ok || kind == "" {
		return Dataset{Name: name}, nil
	}
	switch kind {
	case "unweighted":
		return Dataset{Name: name}, nil
	case "weighted":
		return Dataset{Name: name, Weighted: true}, nil
	default:
		return Dataset{}, fmt.Errorf("%w: dataset %q kind %q (want weighted or unweighted)", ErrBadKind, name, kind)
	}
}

// ParseDatasets parses a comma-separated spec list, skipping empty
// elements (so trailing commas are harmless) but rejecting an empty list.
func ParseDatasets(raw string) ([]Dataset, error) {
	var out []Dataset
	for _, part := range strings.Split(raw, ",") {
		if strings.TrimSpace(part) == "" {
			continue
		}
		d, err := ParseDataset(part)
		if err != nil {
			return nil, err
		}
		out = append(out, d)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("%w: no datasets in %q", ErrEmptySpec, raw)
	}
	return out, nil
}

// Partition is one parsed "addr@lo:hi" spec: the node at Addr owns keys in
// [Lo, Hi]. The separator is '@' because addresses themselves contain ':'
// ("127.0.0.1:8080@0:1000"). Bounds may be -inf/+inf (any case) for
// unbounded edge partitions.
type Partition struct {
	Addr   string
	Lo, Hi float64
}

// String renders the spec in canonical form — ParsePartition(p.String())
// == p. Infinities render as -inf/+inf.
func (p Partition) String() string {
	return fmt.Sprintf("%s@%s:%s", p.Addr, formatBound(p.Lo), formatBound(p.Hi))
}

func formatBound(v float64) string {
	switch {
	case math.IsInf(v, -1):
		return "-inf"
	case math.IsInf(v, 1):
		return "+inf"
	default:
		return strconv.FormatFloat(v, 'g', -1, 64)
	}
}

func parseBound(s string) (float64, error) {
	switch strings.ToLower(s) {
	case "-inf":
		return math.Inf(-1), nil
	case "inf", "+inf":
		return math.Inf(1), nil
	}
	return strconv.ParseFloat(s, 64)
}

// ParsePartition parses one "addr@lo:hi" spec.
func ParsePartition(raw string) (Partition, error) {
	raw = strings.TrimSpace(raw)
	if raw == "" {
		return Partition{}, ErrEmptySpec
	}
	// Split on the LAST '@' so IPv6-ish or userinfo-bearing addresses
	// survive as long as the range itself has none.
	at := strings.LastIndexByte(raw, '@')
	if at < 0 {
		return Partition{}, fmt.Errorf("%w: %q has no '@' (want addr@lo:hi)", ErrBadPartition, raw)
	}
	addr, rng := raw[:at], raw[at+1:]
	if addr == "" {
		return Partition{}, fmt.Errorf("%w: %q has no address", ErrBadPartition, raw)
	}
	loS, hiS, ok := strings.Cut(rng, ":")
	if !ok {
		return Partition{}, fmt.Errorf("%w: %q range %q has no ':' (want lo:hi)", ErrBadPartition, raw, rng)
	}
	lo, err := parseBound(loS)
	if err != nil {
		return Partition{}, fmt.Errorf("%w: %q lower bound %q: %v", ErrBadRange, raw, loS, err)
	}
	hi, err := parseBound(hiS)
	if err != nil {
		return Partition{}, fmt.Errorf("%w: %q upper bound %q: %v", ErrBadRange, raw, hiS, err)
	}
	if math.IsNaN(lo) || math.IsNaN(hi) || hi < lo {
		return Partition{}, fmt.Errorf("%w: %q has [%v, %v]", ErrBadRange, raw, lo, hi)
	}
	return Partition{Addr: addr, Lo: lo, Hi: hi}, nil
}

// ParsePartitions parses a comma-separated partition list, skipping empty
// elements but rejecting an empty list. It does not check contiguity —
// that is cluster.NewMap's job, which owns the ordering contract.
func ParsePartitions(raw string) ([]Partition, error) {
	var out []Partition
	for _, part := range strings.Split(raw, ",") {
		if strings.TrimSpace(part) == "" {
			continue
		}
		p, err := ParsePartition(part)
		if err != nil {
			return nil, err
		}
		out = append(out, p)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("%w: no partitions in %q", ErrEmptySpec, raw)
	}
	return out, nil
}
