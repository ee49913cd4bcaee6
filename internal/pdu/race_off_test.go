//go:build !race

package pdu

const raceEnabled = false
