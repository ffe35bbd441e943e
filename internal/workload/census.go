// Package workload generates the synthetic data and analysis-session
// traces the experiments run on. It stands in for the census
// public-use-sample tapes the paper assumes (see DESIGN.md's substitution
// table): the same shape — cross-product category attributes, encoded
// values, pre-aggregated measures — with seeded randomness so every run
// is reproducible.
package workload

import (
	"fmt"
	"math"
	"math/rand"

	"statdb/internal/dataset"
)

// AgeGroupTable returns the Figure 2 code table.
func AgeGroupTable() *dataset.CodeTable {
	return dataset.NewCodeTable("AGE_GROUP").
		MustDefine(1, "0 to 20").
		MustDefine(2, "21 to 40").
		MustDefine(3, "41 to 60").
		MustDefine(4, "over 60")
}

// Figure1Schema returns the schema of the paper's example data set.
func Figure1Schema() *dataset.Schema {
	return dataset.MustSchema(
		dataset.Attribute{Name: "SEX", Kind: dataset.KindString, Category: true},
		dataset.Attribute{Name: "RACE", Kind: dataset.KindString, Category: true},
		dataset.Attribute{Name: "AGE_GROUP", Kind: dataset.KindInt, Category: true, Code: AgeGroupTable()},
		dataset.Attribute{Name: "POPULATION", Kind: dataset.KindInt, Summarizable: true},
		dataset.Attribute{Name: "AVE_SALARY", Kind: dataset.KindInt, Summarizable: true},
	)
}

// Figure1 returns the paper's Figure 1 example data set, exactly as
// printed (nine rows; the original table is elided after the M/B/1 row).
func Figure1() *dataset.Dataset {
	ds := dataset.New(Figure1Schema())
	ds.SetName("figure1")
	rows := []struct {
		sex, race string
		age       int64
		pop, sal  int64
	}{
		{"M", "W", 1, 12300347, 33122},
		{"M", "W", 2, 21342193, 25883},
		{"M", "W", 3, 18989987, 42919},
		{"M", "W", 4, 9342193, 15110},
		{"F", "W", 1, 15821497, 31762},
		{"F", "W", 2, 33422988, 29933},
		{"F", "W", 3, 29734121, 28218},
		{"F", "W", 4, 20812211, 17498},
		{"M", "B", 1, 2143924, 29402},
	}
	for _, r := range rows {
		if err := ds.Append(dataset.Row{
			dataset.String(r.sex), dataset.String(r.race), dataset.Int(r.age),
			dataset.Int(r.pop), dataset.Int(r.sal),
		}); err != nil {
			//lint:allow no-panic static seed rows match the static schema; failure is a generator bug
			panic(err)
		}
	}
	return ds
}

// CensusSpec configures the synthetic aggregated census generator.
type CensusSpec struct {
	// Regions, Races, AgeGroups and Educations are the category
	// cardinalities; the record count is their product times two sexes
	// (the cross-product property of Section 2.1).
	Regions    int
	Races      int
	AgeGroups  int
	Educations int
	Seed       int64
}

// DefaultCensusSpec sizes the data set at 2*9*5*4*6 = 2160 records.
func DefaultCensusSpec() CensusSpec {
	return CensusSpec{Regions: 9, Races: 5, AgeGroups: 4, Educations: 6, Seed: 1980}
}

// Census generates an aggregated census data set: one record per
// category-attribute combination carrying POPULATION and AVE_SALARY
// measures. Records are emitted in category order, giving the long
// column runs real sorted census extracts have (which the compression
// experiment exploits, as the paper predicts).
func Census(spec CensusSpec) (*dataset.Dataset, error) {
	if spec.Regions < 1 || spec.Races < 1 || spec.AgeGroups < 1 || spec.Educations < 1 {
		return nil, fmt.Errorf("workload: census spec needs positive cardinalities, got %+v", spec)
	}
	sch := dataset.MustSchema(
		dataset.Attribute{Name: "SEX", Kind: dataset.KindString, Category: true},
		dataset.Attribute{Name: "REGION", Kind: dataset.KindInt, Category: true},
		dataset.Attribute{Name: "RACE", Kind: dataset.KindInt, Category: true},
		dataset.Attribute{Name: "AGE_GROUP", Kind: dataset.KindInt, Category: true, Code: AgeGroupTable()},
		dataset.Attribute{Name: "EDUCATION", Kind: dataset.KindInt, Category: true},
		dataset.Attribute{Name: "POPULATION", Kind: dataset.KindInt, Summarizable: true},
		dataset.Attribute{Name: "AVE_SALARY", Kind: dataset.KindInt, Summarizable: true},
	)
	ds := dataset.New(sch)
	ds.SetName("census")
	rng := rand.New(rand.NewSource(spec.Seed))
	for sex := 0; sex < 2; sex++ {
		sexStr := "M"
		if sex == 1 {
			sexStr = "F"
		}
		for region := 1; region <= spec.Regions; region++ {
			for race := 1; race <= spec.Races; race++ {
				for age := 1; age <= spec.AgeGroups; age++ {
					for edu := 1; edu <= spec.Educations; edu++ {
						// Population: lognormal-ish cell sizes.
						pop := int64(math.Exp(rng.NormFloat64()*0.8+11) / float64(spec.Races))
						if pop < 100 {
							pop = 100
						}
						// Salary: base + education and age effects + noise,
						// in whole dollars like Figure 1.
						sal := 12000.0 +
							3500.0*float64(edu) +
							2000.0*float64(age%3) +
							rng.NormFloat64()*2500
						if sal < 1000 {
							sal = 1000
						}
						err := ds.Append(dataset.Row{
							dataset.String(sexStr),
							dataset.Int(int64(region)),
							dataset.Int(int64(race)),
							dataset.Int(int64(age)),
							dataset.Int(int64(edu)),
							dataset.Int(pop),
							dataset.Int(int64(sal)),
						})
						if err != nil {
							return nil, err
						}
					}
				}
			}
		}
	}
	return ds, nil
}

// Microdata generates individual-level records (one row per person) for
// the regression and sampling experiments: AGE and SALARY with a real
// linear relationship plus noise, and categorical SEX/RACE.
func Microdata(n int, seed int64) *dataset.Dataset {
	sch := dataset.MustSchema(
		dataset.Attribute{Name: "ID", Kind: dataset.KindInt, Category: true},
		dataset.Attribute{Name: "SEX", Kind: dataset.KindString},
		dataset.Attribute{Name: "RACE", Kind: dataset.KindInt},
		dataset.Attribute{Name: "AGE", Kind: dataset.KindInt, Summarizable: true},
		dataset.Attribute{Name: "SALARY", Kind: dataset.KindFloat, Summarizable: true},
	)
	ds := dataset.New(sch)
	ds.SetName("microdata")
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < n; i++ {
		age := 18 + rng.Intn(62)
		salary := 8000 + 600*float64(age) + rng.NormFloat64()*6000
		if salary < 0 {
			salary = 0
		}
		sex := "M"
		if rng.Intn(2) == 1 {
			sex = "F"
		}
		if err := ds.Append(dataset.Row{
			dataset.Int(int64(i)),
			dataset.String(sex),
			dataset.Int(int64(1 + rng.Intn(5))),
			dataset.Int(int64(age)),
			dataset.Float(salary),
		}); err != nil {
			//lint:allow no-panic generated rows match the generator's own schema; failure is a generator bug
			panic(err)
		}
	}
	return ds
}

// InjectOutliers corrupts a fraction of attr's values by scaling them,
// returning the corrupted row indices — the bad measurements data
// checking must catch (a person's age recorded as 1,000, Section 3.1).
func InjectOutliers(ds *dataset.Dataset, attr string, fraction, scale float64, seed int64) ([]int, error) {
	ci := ds.Schema().Index(attr)
	if ci < 0 {
		return nil, fmt.Errorf("workload: no attribute %q", attr)
	}
	if fraction <= 0 || fraction > 1 {
		return nil, fmt.Errorf("workload: outlier fraction %g out of (0,1]", fraction)
	}
	rng := rand.New(rand.NewSource(seed))
	var out []int
	for r := 0; r < ds.Rows(); r++ {
		if rng.Float64() >= fraction {
			continue
		}
		v := ds.Cell(r, ci)
		if v.IsNull() {
			continue
		}
		var nv dataset.Value
		switch v.Kind() {
		case dataset.KindInt:
			nv = dataset.Int(int64(float64(v.AsInt()) * scale))
		case dataset.KindFloat:
			nv = dataset.Float(v.AsFloat() * scale)
		default:
			continue
		}
		if err := ds.SetCell(r, ci, nv); err != nil {
			return nil, err
		}
		out = append(out, r)
	}
	return out, nil
}
