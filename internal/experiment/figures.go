package experiment

import (
	"fmt"

	"ldprecover/internal/dataset"
)

// Config controls a figure/table regeneration run.
type Config struct {
	// Scale shrinks the datasets (1 = paper scale, 0.02 = bench scale).
	Scale float64
	// Trials overrides the per-cell trial count (0 = paper default 10).
	Trials int
	// Seed fixes the run's randomness.
	Seed uint64
}

func (c Config) withDefaults() Config {
	if c.Scale == 0 {
		c.Scale = 1
	}
	if c.Trials == 0 {
		c.Trials = DefaultTrials
	}
	if c.Seed == 0 {
		c.Seed = 20240403 // arbitrary fixed default
	}
	return c
}

// ipums and fire return the scaled dataset surrogates.
func (c Config) ipums() (*dataset.Dataset, error) {
	return dataset.SyntheticIPUMS().Scaled(c.Scale)
}

func (c Config) fire() (*dataset.Dataset, error) {
	return dataset.SyntheticFire().Scaled(c.Scale)
}

// figure3Combos lists the attack-protocol pairs on Fig. 3's x axis.
var figure3Combos = []struct {
	Attack   AttackKind
	Protocol ProtocolKind
}{
	{ManipAttack, GRR},
	{MGAAttack, GRR},
	{MGAAttack, OUE},
	{MGAAttack, OLH},
	{AAAttack, GRR},
	{AAAttack, OUE},
	{AAAttack, OLH},
}

// Every figure generator builds its whole scenario grid first, evaluates
// all cells concurrently through runGrid, then assembles the tables from
// the finished metrics in grid order — the output is bit-identical to
// the former sequential sweep, only the wall clock changes.

// Figure3 regenerates Fig. 3: MSE of Before recovery / Detection /
// LDPRecover / LDPRecover* across attacks and protocols, one table per
// dataset.
func Figure3(cfg Config) ([]*Table, error) {
	cfg = cfg.withDefaults()
	dss, err := bothDatasets(cfg)
	if err != nil {
		return nil, err
	}
	var cells []*gridCell
	for _, dsb := range dss {
		for _, combo := range figure3Combos {
			cells = append(cells, &gridCell{
				tag: fmt.Sprintf("fig3 %s-%s", combo.Attack, combo.Protocol),
				scn: Scenario{
					Dataset:      dsb.ds,
					Protocol:     combo.Protocol,
					Attack:       combo.Attack,
					Trials:       cfg.Trials,
					Seed:         cfg.Seed,
					RunDetection: true,
				},
			})
		}
	}
	if err := runGrid(cells); err != nil {
		return nil, err
	}
	var tables []*Table
	i := 0
	for _, dsb := range dss {
		t := &Table{
			Title:  fmt.Sprintf("Figure 3 (%s): MSE by attack and method", dsb.name),
			Header: []string{"attack", "before", "detection", "ldprecover", "ldprecover*"},
		}
		for _, combo := range figure3Combos {
			m := cells[i].m
			i++
			t.AddRow(
				fmt.Sprintf("%s-%s", combo.Attack, combo.Protocol),
				sci(m.MSEBefore), sci(m.MSEDetect), sci(m.MSEAfter), sci(m.MSEStar),
			)
		}
		tables = append(tables, t)
	}
	return tables, nil
}

// namedDataset pairs a dataset with its display name.
type namedDataset struct {
	name string
	ds   *dataset.Dataset
}

func bothDatasets(cfg Config) ([]namedDataset, error) {
	ipums, err := cfg.ipums()
	if err != nil {
		return nil, err
	}
	fire, err := cfg.fire()
	if err != nil {
		return nil, err
	}
	return []namedDataset{{"IPUMS", ipums}, {"Fire", fire}}, nil
}

// Figure4 regenerates Fig. 4: frequency gain of MGA per protocol and
// method, one table per dataset.
func Figure4(cfg Config) ([]*Table, error) {
	cfg = cfg.withDefaults()
	dss, err := bothDatasets(cfg)
	if err != nil {
		return nil, err
	}
	var cells []*gridCell
	for _, dsb := range dss {
		for _, proto := range AllProtocols {
			cells = append(cells, &gridCell{
				tag: fmt.Sprintf("fig4 MGA-%s", proto),
				scn: Scenario{
					Dataset:      dsb.ds,
					Protocol:     proto,
					Attack:       MGAAttack,
					Trials:       cfg.Trials,
					Seed:         cfg.Seed,
					RunDetection: true,
				},
			})
		}
	}
	if err := runGrid(cells); err != nil {
		return nil, err
	}
	var tables []*Table
	i := 0
	for _, dsb := range dss {
		t := &Table{
			Title:  fmt.Sprintf("Figure 4 (%s): frequency gain (FG) under MGA", dsb.name),
			Header: []string{"protocol", "before", "detection", "ldprecover", "ldprecover*"},
		}
		for _, proto := range AllProtocols {
			m := cells[i].m
			i++
			t.AddRow(
				fmt.Sprintf("MGA-%s", proto),
				fixed(m.FGBefore), fixed(m.FGDetect), fixed(m.FGAfter), fixed(m.FGStar),
			)
		}
		tables = append(tables, t)
	}
	return tables, nil
}

// Paper sweep grids (§VI-D).
var (
	betaSweep  = []float64{0.001, 0.005, 0.01, 0.05, 0.1}
	epsSweep   = []float64{0.1, 0.2, 0.4, 0.8, 1.6}
	etaSweep   = []float64{0.01, 0.05, 0.1, 0.2, 0.4}
	beta2Sweep = []float64{0.05, 0.1, 0.15, 0.2, 0.25}
	xiSweep    = []float64{0.1, 0.3, 0.5, 0.7, 0.9}
)

// parameterSweep renders one Fig. 5/6-style table: MSE vs a swept
// parameter for AA across the three protocols.
func parameterSweep(cfg Config, ds *dataset.Dataset, dsName, param string, values []float64) (*Table, error) {
	t := &Table{
		Title: fmt.Sprintf("MSE vs %s (AA, %s)", param, dsName),
		Header: []string{param,
			"GRR-before", "GRR-rec", "GRR-rec*",
			"OUE-before", "OUE-rec", "OUE-rec*",
			"OLH-before", "OLH-rec", "OLH-rec*"},
	}
	var cells []*gridCell
	for _, val := range values {
		for _, proto := range AllProtocols {
			s := Scenario{
				Dataset:  ds,
				Protocol: proto,
				Attack:   AAAttack,
				Trials:   cfg.Trials,
				Seed:     cfg.Seed,
			}
			switch param {
			case "beta":
				s.Beta = val
			case "epsilon":
				s.Epsilon = val
			case "eta":
				s.Eta = val
			default:
				return nil, fmt.Errorf("experiment: unknown sweep parameter %q", param)
			}
			cells = append(cells, &gridCell{
				tag: fmt.Sprintf("sweep %s=%v %s", param, val, proto),
				scn: s,
			})
		}
	}
	if err := runGrid(cells); err != nil {
		return nil, err
	}
	i := 0
	for _, val := range values {
		row := []string{fmt.Sprintf("%g", val)}
		for range AllProtocols {
			m := cells[i].m
			i++
			row = append(row, sci(m.MSEBefore), sci(m.MSEAfter), sci(m.MSEStar))
		}
		t.AddRow(row...)
	}
	return t, nil
}

// Figure5 regenerates Fig. 5: the beta/epsilon/eta sweeps on IPUMS.
func Figure5(cfg Config) ([]*Table, error) {
	cfg = cfg.withDefaults()
	ds, err := cfg.ipums()
	if err != nil {
		return nil, err
	}
	return sweepsFor(cfg, ds, "IPUMS", "Figure 5")
}

// Figure6 regenerates Fig. 6: the same sweeps on Fire.
func Figure6(cfg Config) ([]*Table, error) {
	cfg = cfg.withDefaults()
	ds, err := cfg.fire()
	if err != nil {
		return nil, err
	}
	return sweepsFor(cfg, ds, "Fire", "Figure 6")
}

func sweepsFor(cfg Config, ds *dataset.Dataset, dsName, figName string) ([]*Table, error) {
	var tables []*Table
	for _, sweep := range []struct {
		param  string
		values []float64
	}{{"beta", betaSweep}, {"epsilon", epsSweep}, {"eta", etaSweep}} {
		t, err := parameterSweep(cfg, ds, dsName, sweep.param, sweep.values)
		if err != nil {
			return nil, err
		}
		t.Title = figName + " — " + t.Title
		tables = append(tables, t)
	}
	return tables, nil
}

// Figure7 regenerates Fig. 7: MSE between estimated and true malicious
// frequencies for LDPRecover vs LDPRecover* under MGA on IPUMS.
func Figure7(cfg Config) ([]*Table, error) {
	cfg = cfg.withDefaults()
	ds, err := cfg.ipums()
	if err != nil {
		return nil, err
	}
	t := &Table{
		Title: "Figure 7: malicious-frequency estimation MSE (MGA, IPUMS)",
		Header: []string{"beta",
			"GRR-ldprecover", "GRR-ldprecover*",
			"OUE-ldprecover", "OUE-ldprecover*",
			"OLH-ldprecover", "OLH-ldprecover*"},
	}
	var cells []*gridCell
	for _, beta := range beta2Sweep {
		for _, proto := range AllProtocols {
			cells = append(cells, &gridCell{
				tag: fmt.Sprintf("fig7 beta=%v %s", beta, proto),
				scn: Scenario{
					Dataset:  ds,
					Protocol: proto,
					Attack:   MGAAttack,
					Beta:     beta,
					Trials:   cfg.Trials,
					Seed:     cfg.Seed,
				},
			})
		}
	}
	if err := runGrid(cells); err != nil {
		return nil, err
	}
	i := 0
	for _, beta := range beta2Sweep {
		row := []string{fmt.Sprintf("%g", beta)}
		for range AllProtocols {
			m := cells[i].m
			i++
			row = append(row, sci(m.MSEMalNK), sci(m.MSEMalPK))
		}
		t.AddRow(row...)
	}
	return []*Table{t}, nil
}

// TableI regenerates Table I: MSE of LDPRecover run on unpoisoned
// frequencies (beta = 0).
func TableI(cfg Config) ([]*Table, error) {
	cfg = cfg.withDefaults()
	ipums, err := cfg.ipums()
	if err != nil {
		return nil, err
	}
	fire, err := cfg.fire()
	if err != nil {
		return nil, err
	}
	t := &Table{
		Title: "Table I: LDPRecover on unpoisoned frequencies (beta=0)",
		Header: []string{"protocol",
			"IPUMS-before-rec", "IPUMS-after-rec",
			"Fire-before-rec", "Fire-after-rec"},
	}
	dss := []*dataset.Dataset{ipums, fire}
	var cells []*gridCell
	for _, proto := range AllProtocols {
		for _, ds := range dss {
			cells = append(cells, &gridCell{
				tag: fmt.Sprintf("table1 %s %s", proto, ds.Name),
				scn: Scenario{
					Dataset:  ds,
					Protocol: proto,
					Attack:   NoAttack,
					Beta:     0,
					Trials:   cfg.Trials,
					Seed:     cfg.Seed,
				},
			})
		}
	}
	if err := runGrid(cells); err != nil {
		return nil, err
	}
	i := 0
	for _, proto := range AllProtocols {
		row := []string{proto.String()}
		for range dss {
			m := cells[i].m
			i++
			row = append(row, sci(m.MSEGenuine), sci(m.MSEAfter))
		}
		t.AddRow(row...)
	}
	return []*Table{t}, nil
}

// Figure8 regenerates Fig. 8: poisoned MSE of MGA under the general
// poisoning model vs under input poisoning (MGA-IPA), IPUMS, no recovery.
func Figure8(cfg Config) ([]*Table, error) {
	cfg = cfg.withDefaults()
	ds, err := cfg.ipums()
	if err != nil {
		return nil, err
	}
	t := &Table{
		Title: "Figure 8: MGA vs MGA-IPA poisoned MSE (IPUMS)",
		Header: []string{"beta",
			"GRR-mga", "GRR-mga-ipa",
			"OUE-mga", "OUE-mga-ipa",
			"OLH-mga", "OLH-mga-ipa"},
	}
	attacks := []AttackKind{MGAAttack, MGAIPAAttack}
	var cells []*gridCell
	for _, beta := range beta2Sweep {
		for _, proto := range AllProtocols {
			for _, atk := range attacks {
				cells = append(cells, &gridCell{
					tag: fmt.Sprintf("fig8 beta=%v %s %s", beta, atk, proto),
					scn: Scenario{
						Dataset:      ds,
						Protocol:     proto,
						Attack:       atk,
						Beta:         beta,
						Trials:       cfg.Trials,
						Seed:         cfg.Seed,
						SkipRecovery: true,
					},
				})
			}
		}
	}
	if err := runGrid(cells); err != nil {
		return nil, err
	}
	i := 0
	for _, beta := range beta2Sweep {
		row := []string{fmt.Sprintf("%g", beta)}
		for range AllProtocols {
			for range attacks {
				m := cells[i].m
				i++
				row = append(row, sci(m.MSEBefore))
			}
		}
		t.AddRow(row...)
	}
	return []*Table{t}, nil
}

// Figure9 regenerates Fig. 9: the k-means defense and LDPRecover-KM under
// MGA-IPA on IPUMS across subset sample rates.
func Figure9(cfg Config) ([]*Table, error) {
	cfg = cfg.withDefaults()
	ds, err := cfg.ipums()
	if err != nil {
		return nil, err
	}
	t := &Table{
		Title: "Figure 9: k-means vs LDPRecover-KM under MGA-IPA (IPUMS)",
		Header: []string{"xi",
			"GRR-before", "GRR-kmeans", "GRR-ldprecover-km",
			"OUE-before", "OUE-kmeans", "OUE-ldprecover-km",
			"OLH-before", "OLH-kmeans", "OLH-ldprecover-km"},
	}
	var cells []*gridCell
	for _, xi := range xiSweep {
		for _, proto := range AllProtocols {
			cells = append(cells, &gridCell{
				tag: fmt.Sprintf("fig9 xi=%v %s", xi, proto),
				scn: Scenario{
					Dataset:      ds,
					Protocol:     proto,
					Attack:       MGAIPAAttack,
					Trials:       cfg.Trials,
					Seed:         cfg.Seed,
					RunKMeans:    true,
					Xi:           xi,
					SkipRecovery: true,
				},
			})
		}
	}
	if err := runGrid(cells); err != nil {
		return nil, err
	}
	i := 0
	for _, xi := range xiSweep {
		row := []string{fmt.Sprintf("%g", xi)}
		for range AllProtocols {
			m := cells[i].m
			i++
			row = append(row, sci(m.MSEBefore), sci(m.MSEKMeans), sci(m.MSEKM))
		}
		t.AddRow(row...)
	}
	return []*Table{t}, nil
}

// Figure10 regenerates Fig. 10: LDPRecover under the five-attacker
// adaptive attack (MUL-AA) on IPUMS.
func Figure10(cfg Config) ([]*Table, error) {
	cfg = cfg.withDefaults()
	ds, err := cfg.ipums()
	if err != nil {
		return nil, err
	}
	t := &Table{
		Title: "Figure 10: multi-attacker AA (5 attackers, IPUMS)",
		Header: []string{"beta",
			"GRR-before", "GRR-ldprecover",
			"OUE-before", "OUE-ldprecover",
			"OLH-before", "OLH-ldprecover"},
	}
	var cells []*gridCell
	for _, beta := range beta2Sweep {
		for _, proto := range AllProtocols {
			cells = append(cells, &gridCell{
				tag: fmt.Sprintf("fig10 beta=%v %s", beta, proto),
				scn: Scenario{
					Dataset:  ds,
					Protocol: proto,
					Attack:   MultiAAAttack,
					Beta:     beta,
					Trials:   cfg.Trials,
					Seed:     cfg.Seed,
				},
			})
		}
	}
	if err := runGrid(cells); err != nil {
		return nil, err
	}
	i := 0
	for _, beta := range beta2Sweep {
		row := []string{fmt.Sprintf("%g", beta)}
		for range AllProtocols {
			m := cells[i].m
			i++
			row = append(row, sci(m.MSEBefore), sci(m.MSEAfter))
		}
		t.AddRow(row...)
	}
	return []*Table{t}, nil
}

// Registry maps experiment ids to their generators for the CLI and docs.
var Registry = map[string]func(Config) ([]*Table, error){
	"fig3":   Figure3,
	"fig4":   Figure4,
	"fig5":   Figure5,
	"fig6":   Figure6,
	"fig7":   Figure7,
	"table1": TableI,
	"fig8":   Figure8,
	"fig9":   Figure9,
	"fig10":  Figure10,
}

// RegistryOrder lists experiment ids in paper order.
var RegistryOrder = []string{
	"fig3", "fig4", "fig5", "fig6", "fig7", "table1", "fig8", "fig9", "fig10",
}
