package util

import "hash/crc32"

// castagnoli is the CRC-32C table used by most storage systems (iSCSI, ext4)
// for data integrity; it is hardware-accelerated on amd64.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Checksum returns the CRC-32C of b. Chunk servers stamp journal records and
// replication payloads with it so corruption is detected on replay and
// recovery rather than propagated to backups.
func Checksum(b []byte) uint32 {
	return crc32.Checksum(b, castagnoli)
}
