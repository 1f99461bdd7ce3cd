package cluster

import (
	"fmt"
	"time"

	"ursa/internal/client"
	"ursa/internal/core"
	"ursa/internal/linearize"
	"ursa/internal/simdisk"
	"ursa/internal/util"
)

// ChaosKind names one fault action the chaos harness can take.
type ChaosKind int

// Chaos event kinds.
const (
	// ChaosKillJournals arms write faults over every journal region on a
	// machine: the journals die on their next flush while replay reads keep
	// working, exercising the re-route → bypass degradation ladder.
	ChaosKillJournals ChaosKind = iota
	// ChaosKillDisk kills one device outright (reads and writes fail).
	ChaosKillDisk
	// ChaosHealDisk clears every fault on one device. Dead journals stay
	// dead by design; the data path recovers.
	ChaosHealDisk
	// ChaosStallDisk arms a fixed per-op delay on one device (limping disk).
	ChaosStallDisk
	// ChaosCrashServer makes one chunk server unreachable on the fabric.
	ChaosCrashServer
	// ChaosRestartServer brings a crashed server's node back.
	ChaosRestartServer
	// ChaosCorruptDisk silently flips bytes on one device: reads of the
	// [Lo, Hi) range keep succeeding but return rotted payloads (bit-rot).
	// Hi <= Lo corrupts the whole device.
	ChaosCorruptDisk
	// ChaosKillMaster crashes master replica Master (fabric node and
	// process); a standby promotes itself after the primacy TTL.
	ChaosKillMaster
	// ChaosHealMaster restarts a killed master as a fresh standby that
	// catches up from the current primary's log.
	ChaosHealMaster
	// ChaosPartition drops all traffic between every fabric node of
	// machines Machine and MachineB until healed.
	ChaosPartition
	// ChaosHealPartition restores the Machine–MachineB links.
	ChaosHealPartition
	// ChaosObjstoreStall arms a fixed extra delay on every object-store
	// request (a limping cold tier).
	ChaosObjstoreStall
	// ChaosObjstoreFault makes object-store PUTs and GETs fail until healed.
	ChaosObjstoreFault
	// ChaosObjstoreCorrupt flips the payload of the next Count GETs:
	// transient transfer rot the per-extent CRCs must catch and retry.
	ChaosObjstoreCorrupt
	// ChaosObjstoreHeal clears every armed object-store fault.
	ChaosObjstoreHeal
	// ChaosObjstorePartition cuts machine Machine's links to the object
	// store node (demand fetches from that machine black-hole).
	ChaosObjstorePartition
	// ChaosObjstoreHealPartition restores them.
	ChaosObjstoreHealPartition
)

func (k ChaosKind) String() string {
	switch k {
	case ChaosKillJournals:
		return "kill-journals"
	case ChaosKillDisk:
		return "kill-disk"
	case ChaosHealDisk:
		return "heal-disk"
	case ChaosStallDisk:
		return "stall-disk"
	case ChaosCrashServer:
		return "crash-server"
	case ChaosRestartServer:
		return "restart-server"
	case ChaosCorruptDisk:
		return "corrupt-disk"
	case ChaosKillMaster:
		return "kill-master"
	case ChaosHealMaster:
		return "heal-master"
	case ChaosPartition:
		return "partition"
	case ChaosHealPartition:
		return "heal-partition"
	case ChaosObjstoreStall:
		return "objstore-stall"
	case ChaosObjstoreFault:
		return "objstore-fault"
	case ChaosObjstoreCorrupt:
		return "objstore-corrupt"
	case ChaosObjstoreHeal:
		return "objstore-heal"
	case ChaosObjstorePartition:
		return "objstore-partition"
	case ChaosObjstoreHealPartition:
		return "objstore-heal-partition"
	default:
		return fmt.Sprintf("chaos-kind-%d", int(k))
	}
}

// ChaosEvent is one scheduled fault: when the workload's operation counter
// reaches AtOp the action fires. Device-targeted kinds address a device by
// (Machine, Disk, HDD); server kinds address a fabric node by Server.
type ChaosEvent struct {
	AtOp    int
	Kind    ChaosKind
	Machine int
	Disk    int
	HDD     bool // target the machine's HDDs instead of its SSDs
	Server  string
	// Master indexes the master replica for ChaosKillMaster/ChaosHealMaster.
	Master int
	// MachineB is the second machine of a ChaosPartition/ChaosHealPartition
	// pair.
	MachineB int
	Stall    time.Duration // ChaosStallDisk and ChaosObjstoreStall
	// ChaosCorruptDisk only: the rotting byte range (Hi <= Lo = whole
	// device) and whether the rot persists across re-reads or strikes once.
	Lo, Hi     int64
	Persistent bool
	// Count is how many GETs ChaosObjstoreCorrupt rots (0 = 1).
	Count int
}

// ChaosOptions parameterizes a chaos run.
type ChaosOptions struct {
	// Ops is the number of workload operations (default 400).
	Ops int
	// Region is the working-set size in bytes, sector-aligned (default
	// 128 KiB — small enough for heavy overwrites).
	Region int64
	// WriteFrac is the fraction of write operations (default 0.6).
	WriteFrac float64
	// MaxSectors bounds each op's size in sectors (default 4).
	MaxSectors int
	// Seed drives the deterministic op stream.
	Seed uint64
	// Schedule lists the faults to inject, fired as the op counter passes
	// each AtOp. Events need not be sorted.
	Schedule []ChaosEvent
	// FinalSweep heals every device, restarts schedule-crashed servers, and
	// read-checks the whole region after the op stream.
	FinalSweep bool
	// Checker continues an existing linearizability history (nil = fresh).
	// Chained runs over the same vdisk region must share one checker: a
	// fresh checker assumes unwritten sectors read as zeros, which is false
	// once a previous run has written them.
	Checker *linearize.Checker
}

// ChaosReport summarizes a chaos run. Any linearizability violation is
// returned as an error instead — a report means the history checked out.
type ChaosReport struct {
	Ops         int
	Writes      int
	Reads       int
	WriteErrors int // writes with unknown outcome (availability, not safety)
	ReadErrors  int // failed reads (availability, not safety)
	EventsFired int
	Sectors     int // distinct sectors the checker tracked
}

// RunChaos drives a deterministic mixed read/write workload against vd
// while injecting the scheduled faults into c, and checks every read the
// client acks against a per-sector linearizability model. I/O errors are
// availability loss and only counted; stale or lost data fails the run.
func RunChaos(c *core.Cluster, vd client.Device, opts ChaosOptions) (*ChaosReport, error) {
	if opts.Ops <= 0 {
		opts.Ops = 400
	}
	if opts.Region <= 0 {
		opts.Region = 128 * util.KiB
	}
	if opts.WriteFrac <= 0 {
		opts.WriteFrac = 0.6
	}
	if opts.MaxSectors <= 0 {
		opts.MaxSectors = 4
	}
	region := util.AlignDown(opts.Region, util.SectorSize)
	if region > vd.Size() {
		region = util.AlignDown(vd.Size(), util.SectorSize)
	}

	checker := opts.Checker
	if checker == nil {
		checker = linearize.New()
	}
	r := util.NewRand(opts.Seed)
	rep := &ChaosReport{}

	// Pending events, fired in op order; ties fire in schedule order.
	pending := make([]ChaosEvent, len(opts.Schedule))
	copy(pending, opts.Schedule)

	for i := 0; i < opts.Ops; i++ {
		rest := pending[:0]
		for _, ev := range pending {
			if ev.AtOp <= i {
				fireChaos(c, ev)
				rep.EventsFired++
			} else {
				rest = append(rest, ev)
			}
		}
		pending = rest

		n := (1 + int(r.Int63n(int64(opts.MaxSectors)))) * util.SectorSize
		off := util.AlignDown(r.Int63n(region), util.SectorSize)
		if off+int64(n) > region {
			off = region - int64(n)
		}
		rep.Ops++
		if r.Float64() < opts.WriteFrac {
			rep.Writes++
			data := make([]byte, n)
			r.Fill(data)
			if err := vd.WriteAt(data, off); err != nil {
				rep.WriteErrors++
				checker.WriteUnresolved(off, data)
			} else {
				checker.WriteCommitted(off, data)
			}
		} else {
			rep.Reads++
			buf := make([]byte, n)
			if err := vd.ReadAt(buf, off); err != nil {
				rep.ReadErrors++
				continue
			}
			if err := checker.CheckRead(off, buf); err != nil {
				return nil, fmt.Errorf("cluster: chaos op %d: %w", i, err)
			}
		}
	}

	if opts.FinalSweep {
		HealAll(c)
		for _, ev := range opts.Schedule {
			if ev.Kind == ChaosCrashServer {
				c.RestartServer(ev.Server)
			}
		}
		buf := make([]byte, util.SectorSize)
		for off := int64(0); off < region; off += util.SectorSize {
			if err := vd.ReadAt(buf, off); err != nil {
				return nil, fmt.Errorf("cluster: chaos final sweep at %d: %w", off, err)
			}
			if err := checker.CheckRead(off, buf); err != nil {
				return nil, fmt.Errorf("cluster: chaos final sweep at %d: %w", off, err)
			}
		}
	}
	rep.Sectors = checker.Sectors()
	return rep, nil
}

// fireChaos applies one event to the cluster.
func fireChaos(c *core.Cluster, ev ChaosEvent) {
	switch ev.Kind {
	case ChaosKillJournals:
		if ev.Machine < len(c.Machines) {
			for _, jr := range c.Machines[ev.Machine].JournalRegions {
				jr.Disk.FailWriteRange(nil, jr.Base, jr.Base+jr.Size)
			}
		}
	case ChaosKillDisk, ChaosHealDisk, ChaosStallDisk:
		if fi := chaosDisk(c, ev); fi != nil {
			switch ev.Kind {
			case ChaosKillDisk:
				fi.Kill()
			case ChaosHealDisk:
				fi.Heal()
			case ChaosStallDisk:
				fi.Stall(ev.Stall)
			}
		}
	case ChaosCorruptDisk:
		if fi := chaosDisk(c, ev); fi != nil {
			lo, hi := ev.Lo, ev.Hi
			if hi <= lo {
				lo, hi = 0, fi.Size()
			}
			fi.CorruptRange(lo, hi, ev.Persistent)
		}
	case ChaosCrashServer:
		c.CrashServer(ev.Server)
	case ChaosRestartServer:
		c.RestartServer(ev.Server)
	case ChaosKillMaster:
		if ev.Master < len(c.Masters) {
			c.KillMaster(ev.Master)
		}
	case ChaosHealMaster:
		if ev.Master < len(c.Masters) {
			_ = c.HealMaster(ev.Master)
		}
	case ChaosPartition, ChaosHealPartition:
		if ev.Machine >= len(c.Machines) || ev.MachineB >= len(c.Machines) {
			return
		}
		for _, sa := range c.Machines[ev.Machine].Servers {
			for _, sb := range c.Machines[ev.MachineB].Servers {
				if ev.Kind == ChaosPartition {
					c.Net.Partition(sa.Addr(), sb.Addr())
				} else {
					c.Net.Heal(sa.Addr(), sb.Addr())
				}
			}
		}
	case ChaosObjstoreStall:
		c.Objstore.Stall(ev.Stall)
	case ChaosObjstoreFault:
		c.Objstore.FailPuts()
		c.Objstore.FailGets()
	case ChaosObjstoreCorrupt:
		n := ev.Count
		if n <= 0 {
			n = 1
		}
		c.Objstore.CorruptReads(n)
	case ChaosObjstoreHeal:
		c.Objstore.Heal()
	case ChaosObjstorePartition, ChaosObjstoreHealPartition:
		if ev.Machine >= len(c.Machines) {
			return
		}
		for _, s := range c.Machines[ev.Machine].Servers {
			if ev.Kind == ChaosObjstorePartition {
				c.Net.Partition(s.Addr(), core.ObjstoreAddr)
			} else {
				c.Net.Heal(s.Addr(), core.ObjstoreAddr)
			}
		}
	}
}

func chaosDisk(c *core.Cluster, ev ChaosEvent) *simdisk.FaultInjector {
	if ev.Machine >= len(c.Machines) {
		return nil
	}
	m := c.Machines[ev.Machine]
	disks := m.SSDFaults
	if ev.HDD {
		disks = m.HDDFaults
	}
	if ev.Disk >= len(disks) {
		return nil
	}
	return disks[ev.Disk]
}

// HealAll clears the armed faults on every device in the cluster and
// restores every partitioned link. Journals already marked dead stay out of
// the striping set — their backup servers keep running on the bypass path.
func HealAll(c *core.Cluster) {
	for _, m := range c.Machines {
		for _, fi := range m.SSDFaults {
			fi.Heal()
		}
		for _, fi := range m.HDDFaults {
			fi.Heal()
		}
	}
	if c.Objstore != nil {
		c.Objstore.Heal()
	}
	c.Net.HealAllPartitions()
}

// RandomSchedule builds a seeded fault schedule over an ops-long run:
// a journal massacre, a dead HDD, a stalled SSD, a server crash, and the
// matching heals/restart — spread across distinct machines so the cluster
// keeps a quorum everywhere.
func RandomSchedule(c *core.Cluster, seed uint64, ops int) []ChaosEvent {
	r := util.NewRand(seed)
	nm := len(c.Machines)
	if nm == 0 || ops < 10 {
		return nil
	}
	perm := r.Perm(nm)
	at := func(frac float64) int { return int(float64(ops) * frac) }

	mJournal := perm[0]
	mHDD := perm[1%nm]
	mSSD := perm[2%nm]
	hddPick := int(r.Int63n(int64(len(c.Machines[mHDD].HDDFaults))))
	ssdPick := int(r.Int63n(int64(len(c.Machines[mSSD].SSDFaults))))
	evs := []ChaosEvent{
		{AtOp: at(0.10), Kind: ChaosKillJournals, Machine: mJournal},
		{AtOp: at(0.25), Kind: ChaosKillDisk, Machine: mHDD, HDD: true, Disk: hddPick},
		{AtOp: at(0.40), Kind: ChaosStallDisk, Machine: mSSD, Disk: ssdPick,
			Stall: 200 * time.Microsecond},
		// One-shot bit-rot on the stalled machine's SSD store region (the
		// front half keeps clear of the journal tail): the next read of any
		// rotted sector sees garbage once; the checksummed read path must
		// absorb it with a re-read instead of serving it.
		{AtOp: at(0.55), Kind: ChaosCorruptDisk, Machine: mSSD, Disk: ssdPick,
			Lo: 0, Hi: c.Machines[mSSD].SSDFaults[ssdPick].Size() / 2},
		{AtOp: at(0.70), Kind: ChaosHealDisk, Machine: mSSD, Disk: ssdPick},
	}
	// Crash and later restart one backup server on a fourth machine.
	if srvs := c.Machines[perm[3%nm]].Servers; len(srvs) > 0 {
		addr := srvs[int(r.Int63n(int64(len(srvs))))].Addr()
		evs = append(evs,
			ChaosEvent{AtOp: at(0.50), Kind: ChaosCrashServer, Server: addr},
			ChaosEvent{AtOp: at(0.85), Kind: ChaosRestartServer, Server: addr},
		)
	}
	// Cut one machine pair's links for a stretch of the run.
	if nm >= 2 {
		a, b := perm[0], perm[1%nm]
		evs = append(evs,
			ChaosEvent{AtOp: at(0.45), Kind: ChaosPartition, Machine: a, MachineB: b},
			ChaosEvent{AtOp: at(0.65), Kind: ChaosHealPartition, Machine: a, MachineB: b},
		)
	}
	// The object store misbehaves for a stretch: stalled requests, then a
	// transient read-rot burst. Harmless without cold data; cold reads must
	// ride it out on the CRC-verify-and-retry fetch path.
	if c.Objstore != nil {
		evs = append(evs,
			ChaosEvent{AtOp: at(0.35), Kind: ChaosObjstoreStall, Stall: 500 * time.Microsecond},
			ChaosEvent{AtOp: at(0.55), Kind: ChaosObjstoreCorrupt, Count: 4},
			ChaosEvent{AtOp: at(0.75), Kind: ChaosObjstoreHeal},
		)
	}
	// With replicated masters, kill the bootstrap primary mid-run and bring
	// it back as a standby near the end.
	if len(c.Masters) > 1 {
		evs = append(evs,
			ChaosEvent{AtOp: at(0.30), Kind: ChaosKillMaster, Master: 0},
			ChaosEvent{AtOp: at(0.80), Kind: ChaosHealMaster, Master: 0},
		)
	}
	return evs
}
