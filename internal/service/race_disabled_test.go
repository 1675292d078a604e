//go:build !race

package service

const raceEnabled = false
