package faults

import (
	"fmt"
	"strconv"
	"strings"
)

// Script is an exact outage timetable. Its text form — the one ParseScript
// reads and FormatScript writes — is also its JSON form, so a Profile
// travels over the daemon's admin API with its timetable in flag syntax.
type Script []ScriptedFault

// MarshalText renders the script in its text form (FormatScript).
func (s Script) MarshalText() ([]byte, error) { return []byte(FormatScript(s)), nil }

// UnmarshalText parses the script from its text form (ParseScript).
func (s *Script) UnmarshalText(text []byte) error {
	script, err := ParseScript(string(text))
	if err != nil {
		return err
	}
	*s = script
	return nil
}

// FormatScript renders a script back into the textual form ParseScript
// accepts, for echoing armed scenarios over the admin API. A nil script
// yields the empty string.
func FormatScript(script Script) string {
	parts := make([]string, len(script))
	for i, ev := range script {
		target := "fiber"
		if ev.Node {
			target = "node"
		}
		parts[i] = fmt.Sprintf("%d:%s:%d:%d", ev.Slot, target, ev.ID, ev.Duration)
	}
	return strings.Join(parts, ",")
}

// ParseScript parses a scripted outage timetable from its textual CLI/API
// form: comma-separated SLOT:fiber|node:ID:DURATION entries ("cut fiber 3 at
// slot 40 for 60 slots" is 40:fiber:3:60). An empty or all-space string
// yields a nil script. Shared by cmd/faultsim (-script), cmd/surfnetd
// (-fault-script), and the daemon's POST /v1/faults admin endpoint.
func ParseScript(arg string) (Script, error) {
	if strings.TrimSpace(arg) == "" {
		return nil, nil
	}
	var script Script
	for _, part := range strings.Split(arg, ",") {
		fields := strings.Split(strings.TrimSpace(part), ":")
		if len(fields) != 4 {
			return nil, fmt.Errorf("bad script entry %q (want SLOT:fiber|node:ID:DURATION)", part)
		}
		slot, err1 := strconv.Atoi(fields[0])
		id, err2 := strconv.Atoi(fields[2])
		dur, err3 := strconv.Atoi(fields[3])
		if err1 != nil || err2 != nil || err3 != nil {
			return nil, fmt.Errorf("bad script entry %q (want SLOT:fiber|node:ID:DURATION)", part)
		}
		var node bool
		switch fields[1] {
		case "fiber":
		case "node":
			node = true
		default:
			return nil, fmt.Errorf("bad script target %q (want fiber or node)", fields[1])
		}
		script = append(script, ScriptedFault{Slot: slot, Duration: dur, Node: node, ID: id})
	}
	return script, nil
}
