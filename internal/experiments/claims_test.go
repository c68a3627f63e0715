package experiments

import (
	"context"
	"flag"
	"fmt"
	"math"
	"os"
	"regexp"
	"strings"
	"testing"

	"bankaware/internal/core"
	"bankaware/internal/montecarlo"
	"bankaware/internal/nuca"
)

var updateClaims = flag.Bool("update", false, "rewrite the claims blocks of EXPERIMENTS.md")

// experimentsDoc is the document whose claims blocks TestPaperClaims owns.
const experimentsDoc = "../../EXPERIMENTS.md"

// claim is the one definition of an experiment EXPERIMENTS.md reports: the
// paper's figure and value, the command that prints the same numbers, and
// run, which executes it at that command's parameters and returns the
// measured table and the predicates the paper's claims make of it.
type claim struct {
	id       string // names the <!-- claims:ID --> block in EXPERIMENTS.md
	figure   string
	paper    string
	command  string
	detailed bool // runs detailed simulations: skipped under -short
	run      func(t *testing.T) (table string, checks []check)
}

// check is one predicate of a claim: what is claimed, the measured
// evidence, and whether it holds. An ok written !(cond) keeps an
// assertion's exact comparison: cond is the condition it fails on.
type check struct {
	claim, measured string
	ok              bool
}

// render formats a claim's block: a header naming the figure, command and
// paper's value, the measured table, and one verdict per predicate.
func (c claim) render(table string, checks []check) string {
	rows := make([][]string, len(checks))
	for i, k := range checks {
		verdict := "reproduced"
		if !k.ok {
			verdict = "**not reproduced**"
		}
		rows[i] = []string{k.claim, k.measured, verdict}
	}
	return fmt.Sprintf("%s · `%s`\n\nPaper: %s.\n\n%s\n%s", c.figure, c.command, c.paper, table,
		mdTable([]string{"Claim", "Measured", "Result"}, rows))
}

// mdTable renders a Markdown table.
func mdTable(header []string, rows [][]string) string {
	var b strings.Builder
	line := func(cells []string) { b.WriteString("| " + strings.Join(cells, " | ") + " |\n") }
	line(header)
	b.WriteString(strings.Repeat("|---", len(header)) + "|\n")
	for _, r := range rows {
		line(r)
	}
	return b.String()
}

// row formats table cells: floats to three decimals, the rest as printed.
func row(cells ...any) []string {
	out := make([]string, len(cells))
	for i, c := range cells {
		if v, ok := c.(float64); ok {
			out[i] = fmt.Sprintf("%.3f", v)
		} else {
			out[i] = fmt.Sprint(c)
		}
	}
	return out
}

func fatalIf(t *testing.T, err error) {
	t.Helper()
	if err != nil {
		t.Fatal(err)
	}
}

// claims is every experiment EXPERIMENTS.md reports, in document order.
var claims = []claim{
	{
		id: "fig2", figure: "Fig. 2", command: "go run ./cmd/bankaware profile -fig2",
		paper: "the MRU position holds a significant share of the hits over the LRU one",
		run: func(t *testing.T) (string, []check) {
			h, err := Fig2Histogram(context.Background(), ProfileAccesses)
			fatalIf(t, err)
			var total uint64
			counts, monotone := []any{"Accesses"}, true
			for i, v := range h {
				total += v
				counts = append(counts, v)
				monotone = monotone && (i == 0 || i == 8 || v <= h[i-1])
			}
			if total == 0 {
				t.Fatal("empty histogram")
			}
			header := []string{"Counter", "C1 (MRU)", "C2", "C3", "C4", "C5", "C6", "C7", "C8 (LRU)", "C9 (misses)"}
			return mdTable(header, [][]string{row(counts...)}), []check{
				{"the MRU counter dominates the LRU one", fmt.Sprintf("C1 %d > 3 × C8 %d; C1 holds %.1f %% of hits, C9 %.1f %% of accesses", h[0], h[7], 100*float64(h[0])/float64(total-h[8]), 100*float64(h[8])/float64(total)), !(h[0] <= h[7]*3)},
				{"hits decay monotonically from MRU to LRU", "C1 ≥ C2 ≥ … ≥ C8", monotone},
			}
		},
	},
	{
		id: "fig3", figure: "Fig. 3", command: "go run ./cmd/bankaware profile -fig3",
		paper: "sixtrack has many misses below 6 ways and close to zero after, applu improves to ~10 ways and then stays flat, bzip2 keeps improving out to ~45 ways",
		run: func(t *testing.T) (string, []check) {
			curves, err := Fig3CurvesContext(context.Background(), Fig3Exemplars, ProfileAccesses, ScaleModel, Options{})
			fatalIf(t, err)
			if len(curves) != 3 {
				t.Fatalf("%d curves", len(curves))
			}
			ways := []int{4, 8, 16, 32, 48, 72}
			var table [][]string
			byName := map[string][]float64{}
			monotone := true
			for _, c := range curves {
				byName[c.Workload] = c.Ratio
				for w := 1; w < len(c.Ratio); w++ {
					monotone = monotone && !(c.Ratio[w] > c.Ratio[w-1]+1e-9)
				}
				cells := []any{c.Workload}
				for _, w := range ways {
					cells = append(cells, c.Ratio[w])
				}
				table = append(table, row(cells...))
			}
			six, ap, bz := byName["sixtrack"], byName["applu"], byName["bzip2"]
			checks := []check{
				{"every curve is non-increasing in ways", "3 curves, 0–72 ways", monotone},
				{"sixtrack is close to zero past its knee", fmt.Sprintf("%.3f at 10 ways ≤ 0.1", six[10]), !(six[10] > 0.1)},
				{"applu is flat past its knee", fmt.Sprintf("%.3f at 16 ways − %.3f at 64 ≤ 0.05", ap[16], ap[64]), !(ap[16]-ap[64] > 0.05)},
				{"applu's residual stays high", fmt.Sprintf("%.3f at 64 ways ≥ 0.2", ap[64]), !(ap[64] < 0.2)},
				{"bzip2 improves out to ~45 ways", fmt.Sprintf("%.3f > %.3f > %.3f at 8, 24, 44 ways", bz[8], bz[24], bz[44]), bz[8] > bz[24] && bz[24] > bz[44]},
			}
			for _, p := range []struct {
				workload string
				way      int
				lo, hi   float64
			}{{"sixtrack", 8, 0.0, 0.08}, {"sixtrack", 4, 0.6, 1.0}, {"applu", 32, 0.3, 0.5}, {"bzip2", 48, 0.05, 0.2}} {
				got := byName[p.workload][p.way]
				checks = append(checks, check{fmt.Sprintf("%s at %d ways stays in its pinned range", p.workload, p.way),
					fmt.Sprintf("%.3f in [%.2f, %.2f]", got, p.lo, p.hi), !(got < p.lo || got > p.hi)})
			}
			return mdTable([]string{"Workload", "4 ways", "8 ways", "16 ways", "32 ways", "48 ways", "72 ways"}, table), checks
		},
	},
	{
		id: "table2", figure: "Table II", command: "go run ./cmd/bankaware overhead",
		paper: "54, 27 and 2.25 kbits per profiler, approximately 0.4 % of the 16 MB LLC for 8 profilers",
		run: func(t *testing.T) (string, []check) {
			rows, pct := TableII()
			if len(rows) != 3 {
				t.Fatalf("%d rows", len(rows))
			}
			var table [][]string
			var checks []check
			for _, r := range rows {
				rel := r.Kbits / r.PaperKbit
				table = append(table, []string{r.Structure, fmt.Sprintf("%.2f kbits", r.PaperKbit), fmt.Sprintf("%.2f kbits", r.Kbits)})
				checks = append(checks, check{r.Structure + " within 5 % of the paper", fmt.Sprintf("%.2f / %.2f = %.3f", r.Kbits, r.PaperKbit, rel), !(rel < 0.95 || rel > 1.05)})
			}
			table = append(table, []string{"Chip total (8 profilers) vs 16 MB LLC", "~0.4 %", fmt.Sprintf("%.3f %%", pct)})
			checks = append(checks, check{"chip overhead near the paper's ~0.4 %", fmt.Sprintf("%.3f %% in [0.3, 0.6]", pct), !(pct < 0.3 || pct > 0.6)})
			return mdTable([]string{"Structure", "Paper", "Measured"}, table), checks
		},
	},
	{
		id: "fig4", figure: "Fig. 4", command: "go run ./cmd/bankaware sweep -aggregation",
		paper: "Cascade emulates LRU best but migrates prohibitively; AddressHash and Parallel never migrate, Parallel at the cost of wider directory look-ups; the adopted two-level structure (Fig. 4c) caps migration",
		run: func(t *testing.T) (string, []check) {
			rows, err := AggregationComparison(context.Background(), SweepAccesses)
			fatalIf(t, err)
			if FormatAggregation(rows) == "" {
				t.Error("empty rendering")
			}
			byScheme := map[nuca.Scheme]AggregationRow{}
			var table [][]string
			for _, r := range rows {
				byScheme[r.Scheme] = r
				table = append(table, row(r.Scheme, r.MissRatio, r.MigrationRate, r.LookupsPerAccess))
			}
			cas, hash, par, two := byScheme[nuca.Cascade], byScheme[nuca.AddressHash], byScheme[nuca.Parallel], byScheme[nuca.TwoLevel]
			return mdTable([]string{"Scheme", "Miss ratio", "Migrations/access", "Lookups/access"}, table), []check{
				{"Cascade has the lowest miss ratio", fmt.Sprintf("%.4f", cas.MissRatio), cas.MissRatio <= min(hash.MissRatio, par.MissRatio, two.MissRatio)},
				{"Cascade migrates more than the two-level structure", fmt.Sprintf("%.4f vs %.4f per access (%.1f×)", cas.MigrationRate, two.MigrationRate, cas.MigrationRate/two.MigrationRate), !(cas.MigrationRate <= two.MigrationRate)},
				{"AddressHash and Parallel never migrate", fmt.Sprintf("%.4f and %.4f", hash.MigrationRate, par.MigrationRate), !(hash.MigrationRate != 0 || par.MigrationRate != 0)},
				{"Parallel pays more directory look-ups than AddressHash", fmt.Sprintf("%.3f vs %.3f (%.1f×)", par.LookupsPerAccess, hash.LookupsPerAccess, par.LookupsPerAccess/hash.LookupsPerAccess), !(par.LookupsPerAccess <= hash.LookupsPerAccess)},
				{"two-level recovers most of Cascade's miss-ratio advantage over AddressHash", fmt.Sprintf("%.0f %% of %.4f", 100*(hash.MissRatio-two.MissRatio)/(hash.MissRatio-cas.MissRatio), hash.MissRatio-cas.MissRatio), 2*(hash.MissRatio-two.MissRatio) > hash.MissRatio-cas.MissRatio},
			}
		},
	},
	{
		id: "table3", figure: "Table III", command: "go run ./cmd/bankaware sim -table3",
		paper: "cache-hungry gradual workloads take multi-bank shares (e.g. bzip2(48), facerec(56)); small-knee workloads are held to one bank",
		run: func(t *testing.T) (string, []check) {
			rows, err := TableIIIAssignments()
			fatalIf(t, err)
			if len(rows) != 8 {
				t.Fatalf("%d rows", len(rows))
			}
			s := FormatTableIII(rows)
			if !strings.Contains(s, "set 1:") {
				t.Fatalf("bad rendering: %q", s)
			}
			hungry := map[string]bool{"twolf": true, "bzip2": true, "facerec": true, "mgrid": true}
			smallKnee := map[string]bool{"gcc": true, "eon": true, "galgel": true, "sixtrack": true, "swim": true}
			full, ranked := 0, true
			for _, r := range rows {
				sum := 0
				for c, w := range r.Ways {
					sum += w
					ranked = ranked && !(hungry[r.Workloads[c]] && w <= nuca.WaysPerBank || smallKnee[r.Workloads[c]] && w != nuca.WaysPerBank)
				}
				if sum == 128 {
					full++
				}
			}
			want := [8]int{24, 8, 32, 24, 8, 8, 8, 16}
			return "```\n" + s + "```\n", []check{
				{"every set's assignment fills the 128 ways", fmt.Sprintf("%d of %d sets", full, len(rows)), full == len(rows)},
				{"twolf, bzip2, facerec and mgrid always take more than one bank; gcc, eon, galgel, sixtrack and swim exactly one", fmt.Sprintf("one bank = %d ways", nuca.WaysPerBank), ranked},
				{"set 6 keeps its committed assignment", fmt.Sprint(rows[5].Ways), rows[5].Ways == want},
			}
		},
	},
	{
		id: "fig7", figure: "Fig. 7", command: "go run ./cmd/bankaware montecarlo -trials 1000",
		paper: "Unrestricted and Bank-aware cut misses by 30 % and 27 % on average against the even split over 1000 random mixes",
		run: func(t *testing.T) (string, []check) {
			res, err := montecarlo.RunContext(context.Background(), montecarlo.DefaultConfig(), montecarlo.Options{})
			fatalIf(t, err)
			above := 0
			for _, tr := range res.Trials {
				if tr.BankAwareRatio > 1 {
					above++
				}
			}
			u, b := 100*(1-res.MeanUnrestrictedRatio), 100*(1-res.MeanBankAwareRatio)
			const wantU, wantB = 0.680, 0.752
			dU, dB := res.MeanUnrestrictedRatio-wantU, res.MeanBankAwareRatio-wantB
			table := mdTable([]string{"Quantity", "Paper", "Measured"}, [][]string{
				{"Unrestricted mean miss reduction vs equal split", "30 %", fmt.Sprintf("%.1f %%", u)},
				{"Bank-aware mean miss reduction vs equal split", "27 %", fmt.Sprintf("%.1f %%", b)},
				{"Trials where Bank-aware misses more than the equal split", "never materially", fmt.Sprintf("%d of %d", above, len(res.Trials))},
			})
			return table, []check{
				{"both mean reductions within 3 points of the paper's", fmt.Sprintf("%.1f vs 30, %.1f vs 27", u, b), math.Abs(u-30) <= 3 && math.Abs(b-27) <= 3},
				{"the banking restrictions cost only a few points against Unrestricted", fmt.Sprintf("%.1f points ≤ 8 (TestFig7Envelope's bound)", u-b), u-b <= 8},
				{"Bank-aware is almost never worse than the equal split", fmt.Sprintf("%d of %d trials above 1.0, under 5 %%", above, len(res.Trials)), float64(above) < 0.05*float64(len(res.Trials))},
				{"the means stay at their committed values", fmt.Sprintf("%.4f vs %.3f, %.4f vs %.3f, ±0.02", res.MeanUnrestrictedRatio, wantU, res.MeanBankAwareRatio, wantB), !(dU < -0.02 || dU > 0.02) && !(dB < -0.02 || dB > 0.02)},
			}
		},
	},
	{
		id: "fig8", figure: "Figs. 8 and 9", command: "go run ./cmd/bankaware sim -fig8", detailed: true,
		paper: "Bank-aware cuts misses by 70 % vs No-partitions and 25 % vs Equal, and CPI by 43 % and 11 %",
		run: func(t *testing.T) (string, []check) {
			r, err := RunFig8Fig9Context(context.Background(), ScaleModel, ScaleModel.DefaultInstructions(), Options{})
			fatalIf(t, err)
			if len(r.Sets) != 8 {
				t.Fatalf("%d sets", len(r.Sets))
			}
			if r.String() == "" {
				t.Fatal("empty rendering")
			}
			var sets [][]string
			var decoupled []string
			for _, s := range r.Sets {
				sets = append(sets, row(s.Set, s.RelMissEqual, s.RelMissBank, s.RelCPIEqual, s.RelCPIBank))
				if s.RelMissBank < s.RelMissEqual && s.RelCPIBank >= s.RelCPIEqual {
					decoupled = append(decoupled, fmt.Sprint(s.Set))
				}
			}
			bold := func(v float64) string { return fmt.Sprintf("**%.3f**", v) }
			sets = append(sets, []string{"**GM**", bold(r.GMRelMissEqual), bold(r.GMRelMissBank), bold(r.GMRelCPIEqual), bold(r.GMRelCPIBank)})
			withRatio := func(v float64) string { return fmt.Sprintf("%+.0f %% (%.3f)", 100*(v-1), v) }
			vsEqual := func(a, b float64) string { return fmt.Sprintf("%+.1f %%", 100*(a/b-1)) }
			set := func(n int) string { return vsEqual(r.Sets[n-1].RelMissBank, r.Sets[n-1].RelMissEqual) }
			table := mdTable([]string{"set", "relMiss Equal", "relMiss Bank", "relCPI Equal", "relCPI Bank"}, sets) + "\n" +
				mdTable([]string{"Quantity", "Paper", "Measured"}, [][]string{
					{"Bank-aware misses vs No-partitions", "-70 % (0.30)", withRatio(r.GMRelMissBank)},
					{"Equal misses vs No-partitions", "~-60 % (≈0.40)", withRatio(r.GMRelMissEqual)},
					{"Bank-aware vs Equal, misses", "-25 %", vsEqual(r.GMRelMissBank, r.GMRelMissEqual)},
					{"Bank-aware vs Equal, misses, sets 1, 5 and 7", "-25 %", set(1) + ", " + set(5) + ", " + set(7)},
					{"Bank-aware CPI vs No-partitions", "-43 % (0.57)", withRatio(r.GMRelCPIBank)},
					{"Bank-aware CPI vs Equal", "-11 %", vsEqual(r.GMRelCPIBank, r.GMRelCPIEqual)},
				})
			return table, []check{
				{"Bank ≤ Equal < None on both GM axes", fmt.Sprintf("misses %.3f ≤ %.3f < 1, CPI %.3f ≤ %.3f < 1", r.GMRelMissBank, r.GMRelMissEqual, r.GMRelCPIBank, r.GMRelCPIEqual),
					r.GMRelMissBank <= r.GMRelMissEqual && r.GMRelMissEqual < 1 && r.GMRelCPIBank <= r.GMRelCPIEqual && r.GMRelCPIEqual < 1},
				{"partitioning cuts misses", fmt.Sprintf("GM Bank %.3f < 1, Equal %.3f < 1.1", r.GMRelMissBank, r.GMRelMissEqual), !(r.GMRelMissBank >= 1 || r.GMRelMissEqual >= 1.1)},
				{"Bank-aware misses no more than Equal's, within 0.03", fmt.Sprintf("%.3f ≤ %.3f + 0.03", r.GMRelMissBank, r.GMRelMissEqual), !(r.GMRelMissBank > r.GMRelMissEqual+0.03)},
				{"sharing is clearly slower", fmt.Sprintf("GM Bank CPI ratio %.3f < 0.9", r.GMRelCPIBank), !(r.GMRelCPIBank >= 0.9)},
				{"miss gains do not translate 1:1 into CPI in every set", "Bank beats Equal on misses but not CPI in sets " + strings.Join(decoupled, ", "), len(decoupled) > 0},
			}
		},
	},
	{
		id: "profiler", figure: "Profiler ablation", command: "go run ./cmd/bankaware sweep -ablation profiler",
		paper: "12-bit partial tags with 1-in-32 set sampling stay within 5 % of the full-tag profile",
		run: func(t *testing.T) (string, []check) {
			rows, err := ProfilerAccuracy(context.Background(), SweepAccesses)
			fatalIf(t, err)
			var table [][]string
			for _, r := range rows {
				table = append(table, row(fmt.Sprintf("1-in-%d", r.Sampling), r.TagBits, fmt.Sprintf("%.4f", r.MaxError), fmt.Sprintf("%.1f", r.Kbits)))
			}
			full, design := rows[3], rows[9] // full tags on every set; 12-bit tags, 1-in-32
			if full.Sampling != 1 || full.TagBits != 0 || design.Sampling != 32 || design.TagBits != 12 {
				t.Fatalf("sweep order changed: %+v, %+v", full, design)
			}
			return mdTable([]string{"Sampling", "Tag bits (0 = full)", "Max curve error", "kbits/profiler"}, table), []check{
				{"12-bit tags with 1-in-32 sampling stay within 5 % of the exact profile",
					fmt.Sprintf("%.2f %% worst-case error at %.1f kbits, %.1f %% of full tags on every set", 100*design.MaxError, design.Kbits, 100*design.Kbits/full.Kbits),
					design.MaxError <= 0.05},
			}
		},
	},
	{
		id: "epoch", figure: "Epoch-length ablation", command: "go run ./cmd/bankaware sweep -ablation epoch", detailed: true,
		paper: "repartitioning every 100 M cycles, long enough to cover several revisits of the deepest working set",
		run: func(t *testing.T) (string, []check) {
			rows, err := EpochAblation(context.Background(), Options{})
			fatalIf(t, err)
			var table [][]string
			for _, v := range rows {
				table = append(table, row(v.Label, v.Result.RelMissBank, v.Result.Bank.Epochs))
			}
			short, paper, long := rows[0], rows[2], rows[len(rows)-1]
			if paper.Label != "1500000" {
				t.Fatalf("sweep order changed: row 2 is %s cycles", paper.Label)
			}
			return mdTable([]string{"Epoch cycles", "Bank-aware relMiss", "Epochs"}, table), []check{
				{"the paper-scaled epoch (1.5 M cycles at 1/16 scale) beats both very short and very long epochs",
					fmt.Sprintf("%.3f vs %.3f at %s and %.3f at %s", paper.Result.RelMissBank, short.Result.RelMissBank, short.Label, long.Result.RelMissBank, long.Label),
					paper.Result.RelMissBank < short.Result.RelMissBank && paper.Result.RelMissBank < long.Result.RelMissBank},
			}
		},
	},
	{
		id: "cap", figure: "Capacity-cap ablation", command: "go run ./cmd/bankaware sweep -ablation cap",
		paper: "no core is assigned more than 9/16 of the cache (72 ways), bounding profiler cost",
		run: func(t *testing.T) (string, []check) {
			rows, err := CapAblation(context.Background(), Options{})
			fatalIf(t, err)
			var table [][]string
			for _, r := range rows {
				table = append(table, row(r.Ways, r.MeanUnrestrictedRatio, r.MeanBankAwareRatio))
			}
			capped, free := rows[2], rows[3]
			if capped.Ways != 72 || free.Ways != 128 {
				t.Fatalf("sweep order changed: %+v, %+v", capped, free)
			}
			return mdTable([]string{"Cap (ways)", "Unrestricted", "Bank-aware"}, table), []check{
				{"the 72-way cap costs both allocators under a point against no cap",
					fmt.Sprintf("Unrestricted %.3f vs %.3f, Bank-aware %.3f vs %.3f", capped.MeanUnrestrictedRatio, free.MeanUnrestrictedRatio, capped.MeanBankAwareRatio, free.MeanBankAwareRatio),
					math.Abs(capped.MeanUnrestrictedRatio-free.MeanUnrestrictedRatio) <= 0.01 && math.Abs(capped.MeanBankAwareRatio-free.MeanBankAwareRatio) <= 0.01},
			}
		},
	},
	{
		id: "plru", figure: "Tree pseudo-LRU extension", command: "go run ./cmd/bankaware sweep -ablation plru", detailed: true,
		paper: "true LRU in every bank",
		run: func(t *testing.T) (string, []check) {
			return variantClaim(t, ReplacementAblation, "L2 replacement", "the whole benefit survives tree pseudo-LRU banks",
				func(lru, plru float64) bool { return plru <= lru })
		},
	},
	{
		id: "strict", figure: "Strict way-ownership extension", command: "go run ./cmd/bankaware sweep -ablation strict", detailed: true,
		paper: "Section III.B leaves open whether a core hits in ways it no longer owns",
		run: func(t *testing.T) (string, []check) {
			return variantClaim(t, LookupAblation, "Lookup", "strict own-ways-only lookup costs under a point of relative misses",
				func(lazy, strict float64) bool { return strict-lazy < 0.01 })
		},
	},
	{
		id: "bandwidth", figure: "Bandwidth-aware extension", command: "go test ./internal/experiments -run TestPaperClaims/bandwidth", detailed: true,
		paper: "the authors' follow-up direction: allocate by miss cost rather than raw miss counts",
		run: func(t *testing.T) (string, []check) {
			// A memory-intense mix whose DRAM congestion is symmetric.
			mix := []string{"art", "mcf", "swim", "gzip", "mesa", "equake", "crafty", "applu"}
			specs, err := resolveSpecs(mix)
			fatalIf(t, err)
			cpi := func(p core.Policy) float64 {
				sys, err := NewEngine(FidelityDetailed, ScaleModel.Config(), p, specs)
				fatalIf(t, err)
				run, err := RunEngine(context.Background(), sys, mix, 1_200_000, nil, nil)
				fatalIf(t, err)
				return run.Result.MeanCPI
			}
			bank, bw := cpi(core.NewBankAwarePolicy()), cpi(core.NewBandwidthAwarePolicy())
			return mdTable([]string{"Policy", "Mean CPI"}, [][]string{row("Bank-aware", bank), row("Bandwidth-aware", bw)}), []check{
				{"with symmetric congestion the feedback weights stay near 1: CPI parity with Bank-aware",
					fmt.Sprintf("%.3f vs %.3f (%+.2f %%)", bw, bank, 100*(bw/bank-1)), math.Abs(bw/bank-1) < 0.01},
			}
		},
	},
}

// variantClaim checks a two-variant set ablation, baseline first:
// holds(baseline, variant) on bank-aware's relative misses.
func variantClaim(t *testing.T, ablation func(context.Context, Options) ([]SetVariant, error), labelCol, claimText string, holds func(base, variant float64) bool) (string, []check) {
	rows, err := ablation(context.Background(), Options{})
	fatalIf(t, err)
	if len(rows) != 2 {
		t.Fatalf("%d variants", len(rows))
	}
	base, variant := rows[0], rows[1]
	return mdTable([]string{labelCol, "Bank-aware relMiss"}, [][]string{row(base.Label, base.Result.RelMissBank), row(variant.Label, variant.Result.RelMissBank)}), []check{
		{claimText, fmt.Sprintf("%.3f %s vs %.3f %s", variant.Result.RelMissBank, variant.Label, base.Result.RelMissBank, base.Label),
			holds(base.Result.RelMissBank, variant.Result.RelMissBank)},
	}
}

// TestPaperClaims runs every experiment EXPERIMENTS.md reports, fails on
// any predicate that does not hold, and checks the document's block for
// the experiment equals the rendered one. -update rewrites the blocks.
func TestPaperClaims(t *testing.T) {
	raw, err := os.ReadFile(experimentsDoc)
	fatalIf(t, err)
	doc := string(raw)
	ids := make([]string, len(claims))
	for i, c := range claims {
		ids[i] = c.id
	}
	_, old, err := spliceClaims(doc, ids, nil)
	fatalIf(t, err)
	bodies := map[string]string{}
	for _, c := range claims {
		t.Run(c.id, func(t *testing.T) {
			if c.detailed && testing.Short() {
				t.Skip("detailed simulation in -short mode")
			}
			table, checks := c.run(t)
			requireChecks(t, checks)
			bodies[c.id] = c.render(table, checks)
			if bodies[c.id] != old[c.id] && !*updateClaims {
				t.Errorf("%s block claims:%s is stale; rerun with -update to rewrite it\n%s", experimentsDoc, c.id, firstDiff(old[c.id], bodies[c.id]))
			}
		})
	}
	if *updateClaims {
		out, _, err := spliceClaims(doc, ids, bodies)
		fatalIf(t, err)
		fatalIf(t, os.WriteFile(experimentsDoc, []byte(out), 0o644))
	}
}

// requireChecks fails the test on every predicate that does not hold.
func requireChecks(t *testing.T, checks []check) {
	t.Helper()
	for _, k := range checks {
		if !k.ok {
			t.Errorf("not reproduced: %s (%s)", k.claim, k.measured)
		}
	}
}

// requireClaim runs entry id and requires its predicates checks[from:to].
// The four tests below predate the claims table and keep their names. Each
// runs its entry and requires the predicates it asserted: Fig. 3's five
// shape checks and its four pinned points; Table III's way sums, and the
// way sums through the pinned set-6 assignment.
func requireClaim(t *testing.T, id string, from, to int) {
	t.Helper()
	for _, c := range claims {
		if c.id == id {
			_, checks := c.run(t)
			requireChecks(t, checks[from:to])
			return
		}
	}
	t.Fatalf("no claim %s", id)
}

func TestFig3CurvesShape(t *testing.T)       { requireClaim(t, "fig3", 0, 5) }
func TestGoldenFig3Points(t *testing.T)      { requireClaim(t, "fig3", 5, 9) }
func TestTableIIIAssignments(t *testing.T)   { requireClaim(t, "table3", 0, 1) }
func TestGoldenTableIIIWaySums(t *testing.T) { requireClaim(t, "table3", 0, 3) }

// firstDiff shows the first line where two texts differ.
func firstDiff(want, got string) string {
	w, g := strings.Split(want, "\n"), strings.Split(got, "\n")
	i := 0
	for i < len(w) && i < len(g) && w[i] == g[i] {
		i++
	}
	at := func(lines []string) string { return strings.Join(lines[min(i, len(lines)):min(i+1, len(lines))], "") }
	return fmt.Sprintf("line %d\n  document: %s\n  measured: %s", i+1, at(w), at(g))
}

// claimBlock matches one block: a <!-- claims:ID --> line, the body, and
// the <!-- /claims:ID --> line closing it; claimMarker matches a line that
// starts with either marker.
var (
	claimBlock  = regexp.MustCompile(`(?ms)^<!-- claims:([a-z0-9-]+) -->\n(.*?)^<!-- /claims:([a-z0-9-]+) -->\n`)
	claimMarker = regexp.MustCompile(`(?m)^<!-- /?claims:`)
)

// spliceClaims returns doc with the body of each claims block named in
// bodies replaced, every other byte kept, and the bodies doc had. Every
// marker must pair with one of its own ID, every entry in ids must have
// exactly one block and every block an entry.
func spliceClaims(doc string, ids []string, bodies map[string]string) (string, map[string]string, error) {
	blocks := claimBlock.FindAllStringSubmatchIndex(doc, -1)
	if n := len(claimMarker.FindAllStringIndex(doc, -1)); n != 2*len(blocks) {
		return "", nil, fmt.Errorf("%d claims markers do not pair into %d blocks", n, len(blocks))
	}
	entries := map[string]bool{}
	for _, id := range ids {
		entries[id] = true
	}
	old := map[string]string{}
	var b strings.Builder
	last := 0
	for _, m := range blocks {
		id, body := doc[m[2]:m[3]], doc[m[4]:m[5]]
		switch _, dup := old[id]; {
		case id != doc[m[6]:m[7]]:
			return "", nil, fmt.Errorf("claims:%s is closed by /claims:%s", id, doc[m[6]:m[7]])
		case dup:
			return "", nil, fmt.Errorf("claims:%s appears twice", id)
		case !entries[id]:
			return "", nil, fmt.Errorf("claims block %s has no entry", id)
		}
		old[id] = body
		if nb, ok := bodies[id]; ok {
			b.WriteString(doc[last:m[4]] + nb)
			last = m[5]
		}
	}
	for _, id := range ids {
		if _, ok := old[id]; !ok {
			return "", nil, fmt.Errorf("entry %s has no claims block", id)
		}
	}
	return b.String() + doc[last:], old, nil
}

func TestSpliceClaims(t *testing.T) {
	const doc = "# Title\n\nprose\n<!-- claims:a -->\nold a\n<!-- /claims:a -->\nmiddle\n<!-- claims:b -->\nold b\n<!-- /claims:b -->\ntail"
	ids := []string{"a", "b"}
	got, old, err := spliceClaims(doc, ids, map[string]string{"b": "new b\nline 2\n"})
	want := "# Title\n\nprose\n<!-- claims:a -->\nold a\n<!-- /claims:a -->\nmiddle\n<!-- claims:b -->\nnew b\nline 2\n<!-- /claims:b -->\ntail"
	if err != nil || got != want || old["a"] != "old a\n" || old["b"] != "old b\n" {
		t.Fatalf("splicing block b: err %v, old bodies %q, got\n%q\nwant\n%q", err, old, got, want)
	}
	if got, _, err := spliceClaims(doc, ids, nil); err != nil || got != doc {
		t.Fatalf("splicing no bodies changed the document (err %v):\n%q", err, got)
	}
	for name, tc := range map[string]struct {
		doc string
		ids []string
	}{
		"missing close":       {"<!-- claims:a -->\nx\n", []string{"a"}},
		"missing open":        {"x\n<!-- /claims:a -->\n", []string{"a"}},
		"duplicated":          {"<!-- claims:a -->\n<!-- /claims:a -->\n<!-- claims:a -->\n<!-- /claims:a -->\n", []string{"a"}},
		"nested":              {"<!-- claims:a -->\n<!-- claims:b -->\n<!-- /claims:b -->\n<!-- /claims:a -->\n", []string{"a", "b"}},
		"mismatched close":    {"<!-- claims:a -->\n<!-- /claims:b -->\n", []string{"a", "b"}},
		"entry without block": {"<!-- claims:a -->\n<!-- /claims:a -->\n", []string{"a", "b"}},
		"block without entry": {"<!-- claims:a -->\n<!-- /claims:a -->\n<!-- claims:b -->\n<!-- /claims:b -->\n", []string{"a"}},
	} {
		if _, _, err := spliceClaims(tc.doc, tc.ids, nil); err == nil {
			t.Errorf("%s: accepted %q", name, tc.doc)
		}
	}
}
