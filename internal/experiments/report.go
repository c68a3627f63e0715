package experiments

import (
	"encoding/csv"
	"io"
	"strconv"
)

// WriteFig8CSV exports the detailed-simulation sweep as CSV: one row per
// (set, policy) with absolute and relative metrics, suitable for external
// plotting of Figs. 8 and 9.
func WriteFig8CSV(w io.Writer, r *Fig8Fig9Result) error {
	cw := csv.NewWriter(w)
	defer cw.Flush()
	header := []string{"set", "policy", "l2_accesses", "l2_misses", "miss_ratio",
		"mean_cpi", "rel_miss_vs_none", "rel_cpi_vs_none"}
	if err := cw.Write(header); err != nil {
		return err
	}
	f := func(v float64) string { return strconv.FormatFloat(v, 'f', 6, 64) }
	u := func(v uint64) string { return strconv.FormatUint(v, 10) }
	for _, s := range r.Sets {
		type row struct {
			policy           string
			accesses, misses uint64
			missRatio, cpi   float64
			relMiss, relCPI  float64
		}
		emit := []row{
			{"none", s.None.TotalL2Accesses, s.None.TotalL2Misses, s.None.MissRatio, s.None.MeanCPI, 1, 1},
			{"equal", s.Equal.TotalL2Accesses, s.Equal.TotalL2Misses, s.Equal.MissRatio, s.Equal.MeanCPI, s.RelMissEqual, s.RelCPIEqual},
			{"bankaware", s.Bank.TotalL2Accesses, s.Bank.TotalL2Misses, s.Bank.MissRatio, s.Bank.MeanCPI, s.RelMissBank, s.RelCPIBank},
		}
		for _, e := range emit {
			rec := []string{
				strconv.Itoa(s.Set), e.policy, u(e.accesses), u(e.misses),
				f(e.missRatio), f(e.cpi), f(e.relMiss), f(e.relCPI),
			}
			if err := cw.Write(rec); err != nil {
				return err
			}
		}
	}
	cw.Flush()
	return cw.Error()
}
