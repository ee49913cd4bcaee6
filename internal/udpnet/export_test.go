package udpnet

// RaceEnabled lets the external test package skip allocation assertions
// under the race detector.
const RaceEnabled = raceEnabled
