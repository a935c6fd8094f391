package arrivals

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// ParseTrace reads an arrival trace in the two-column text format
//
//	# comment lines and blank lines are ignored
//	<slot> <count>
//	<slot>,<count>        (comma also accepted)
//
// with nondecreasing slots and positive counts, and returns a replayable
// Trace source. This is the on-disk companion of NewTrace, used by the
// "file" arrival kind to replay recorded or hand-crafted workloads.
func ParseTrace(r io.Reader) (*Trace, error) {
	var batches []TraceBatch
	sc := bufio.NewScanner(r)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.FieldsFunc(line, func(r rune) bool { return r == ',' || r == ' ' || r == '\t' })
		if len(fields) != 2 {
			return nil, fmt.Errorf("arrivals: trace line %d: want 2 fields, got %d (%q)", lineNo, len(fields), line)
		}
		slot, err := strconv.ParseInt(fields[0], 10, 64)
		if err != nil {
			return nil, fmt.Errorf("arrivals: trace line %d: bad slot %q: %v", lineNo, fields[0], err)
		}
		if slot < 0 {
			return nil, fmt.Errorf("arrivals: trace line %d: negative slot %d", lineNo, slot)
		}
		count, err := strconv.ParseInt(fields[1], 10, 64)
		if err != nil {
			return nil, fmt.Errorf("arrivals: trace line %d: bad count %q: %v", lineNo, fields[1], err)
		}
		batches = append(batches, TraceBatch{Slot: slot, Count: count})
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("arrivals: reading trace: %v", err)
	}
	return NewTrace(batches)
}

// FormatTrace writes batches in the format ParseTrace reads, one batch per
// line.
func FormatTrace(w io.Writer, batches []TraceBatch) error {
	for _, b := range batches {
		if _, err := fmt.Fprintf(w, "%d %d\n", b.Slot, b.Count); err != nil {
			return err
		}
	}
	return nil
}
