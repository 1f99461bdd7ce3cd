package bench

// Entry pairs a figure id with its generator for enumeration by
// cmd/ursa-bench.
type Entry struct {
	ID  string
	Run func(Config) Table
}

// All lists every regenerable table and figure in paper order.
func All() []Entry {
	return []Entry{
		{"1", Fig01},
		{"2", Fig02},
		{"t1", Tab01},
		{"6a", Fig06a},
		{"6b", Fig06b},
		{"6c", Fig06c},
		{"7", Fig07},
		{"8", Fig08},
		{"9", Fig09},
		{"10", Fig10},
		{"11", Fig11},
		{"12", Fig12},
		{"13a", Fig13a},
		{"13b", Fig13b},
		{"13c", Fig13c},
		{"14", Fig14},
		{"15", Fig15},
		{"16", Fig16},
		{"journal", FigJournal},
		{"ceiling", FigCeiling},
		{"ledger", FigAllocLedger},
		{"hotchunk", FigHotchunk},
		{"recovery", FigRecovery},
		{"scrub", FigScrub},
		{"ec", FigEC},
		{"failover", FigFailover},
		{"coldtier", FigColdtier},
		{"a1", AblJournalMedia},
		{"a2", AblClientDirected},
		{"a3", AblIndexLevels},
		{"a4", AblBypassThreshold},
	}
}
