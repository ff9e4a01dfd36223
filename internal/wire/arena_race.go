//go:build race

package wire

// poisonReleased makes an arena's final Release fill its whole buffer with
// poisonByte before pooling it. Race builds pay for it so that a view read
// after its arena's last reference went — a missing Ref at some retention
// point — decodes garbage at once, where a normal build would read the stale
// bytes until the pool handed the buffer to the next message.
const poisonReleased = true
