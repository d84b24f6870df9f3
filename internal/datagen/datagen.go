// Package datagen generates the synthetic stand-ins for the paper's six
// evaluation datasets (Kaggle Flights, honeynet Cyber-security, Spotify,
// Credit-card fraud, US Mutual Funds, Bank Loans). The real datasets are a
// data gate for this offline reproduction, so each generator reproduces the
// schema (column names, kinds, missing-value structure) and *plants*
// association rules of paper-typical support and confidence, plus noise
// columns. All of the paper's evaluation claims are relative claims about
// algorithms run on rule-rich tables, which these generators exercise by
// construction.
//
// Every generator also reports its planted patterns as ground truth for the
// simulated user study (package study) and the EDA-session simulation
// (package eda).
package datagen

import (
	"fmt"
	"math"
	"math/rand"

	"subtab/internal/table"
)

// PlantedRule is a ground-truth pattern baked into a generated dataset.
type PlantedRule struct {
	// Description is the human-readable insight, e.g. "long flights are
	// almost never cancelled".
	Description string
	// Cols are the columns a user must see to derive the insight.
	Cols []string
	// Holds reports whether row r of the table exemplifies the pattern.
	Holds func(t *table.Table, r int) bool
}

// Dataset is a generated table plus its ground truth.
type Dataset struct {
	Name    string
	T       *table.Table
	Planted []PlantedRule
	// Targets are the dataset's natural target columns (e.g. CANCELLED).
	Targets []string
}

// DefaultRows returns the default (scaled-down) row count for each dataset:
// the paper's row counts shrunk to laptop scale while preserving the
// relative ordering FL > CC > SP > CY.
func DefaultRows(name string) int {
	switch name {
	case "FL":
		return 60_000
	case "CC":
		return 25_000
	case "SP":
		return 12_000
	case "CY":
		return 10_000
	case "USF":
		return 4_000
	case "BL":
		return 12_000
	default:
		return 10_000
	}
}

// ByName generates a dataset by its paper abbreviation (FL, CY, SP, CC,
// USF, BL). n <= 0 uses DefaultRows.
func ByName(name string, n int, seed int64) (*Dataset, error) {
	if n <= 0 {
		n = DefaultRows(name)
	}
	switch name {
	case "FL":
		return Flights(n, seed), nil
	case "CY":
		return Cyber(n, seed), nil
	case "SP":
		return Spotify(n, seed), nil
	case "CC":
		return CreditCard(n, seed), nil
	case "USF":
		return USFunds(n, seed), nil
	case "BL":
		return BankLoans(n, seed), nil
	default:
		return nil, fmt.Errorf("datagen: unknown dataset %q", name)
	}
}

// Names lists the generatable datasets.
func Names() []string { return []string{"FL", "CY", "SP", "CC", "USF", "BL"} }

func mustAdd(t *table.Table, c *table.Column) {
	if err := t.AddColumn(c); err != nil {
		panic(err) // generator bug: duplicate name or length mismatch
	}
}

// Flights generates the FL stand-in: the Kaggle flight-delays schema
// (31 columns) with the paper's running-example patterns planted:
//
//   - long AIR_TIME and long DISTANCE flights are almost never cancelled;
//   - short afternoon flights are frequently cancelled;
//   - cancelled flights have NaN in the in-flight and delay columns
//     (exactly the missing-structure the paper's Figure 1 shows);
//   - winter months carry weather delays.
func Flights(n int, seed int64) *Dataset {
	rng := rand.New(rand.NewSource(seed))
	airlines := []string{"AA", "DL", "UA", "WN", "B6", "AS", "NK", "F9", "HA", "VX"}
	airports := []string{"ATL", "LAX", "ORD", "DFW", "DEN", "JFK", "SFO", "SEA", "LAS", "MCO", "BOS", "PHX"}

	year := make([]float64, n)
	month := make([]float64, n)
	day := make([]float64, n)
	dow := make([]float64, n)
	airline := make([]string, n)
	flightNum := make([]float64, n)
	tailNum := make([]string, n)
	origin := make([]string, n)
	dest := make([]string, n)
	schedDep := make([]float64, n)
	depTime := make([]float64, n)
	depDelay := make([]float64, n)
	taxiOut := make([]float64, n)
	wheelsOff := make([]float64, n)
	schedTime := make([]float64, n)
	elapsed := make([]float64, n)
	airTime := make([]float64, n)
	distance := make([]float64, n)
	wheelsOn := make([]float64, n)
	taxiIn := make([]float64, n)
	schedArr := make([]float64, n)
	arrTime := make([]float64, n)
	arrDelay := make([]float64, n)
	diverted := make([]float64, n)
	cancelled := make([]float64, n)
	cancReason := make([]string, n)
	airSysDelay := make([]float64, n)
	secDelay := make([]float64, n)
	airlineDelay := make([]float64, n)
	lateAcDelay := make([]float64, n)
	weatherDelay := make([]float64, n)

	nan := math.NaN()
	for i := 0; i < n; i++ {
		year[i] = 2015
		month[i] = float64(1 + rng.Intn(12))
		day[i] = float64(1 + rng.Intn(28))
		dow[i] = float64(1 + rng.Intn(7))
		airline[i] = airlines[rng.Intn(len(airlines))]
		flightNum[i] = float64(1 + rng.Intn(6000))
		tailNum[i] = fmt.Sprintf("N%d", 100+rng.Intn(900))
		origin[i] = airports[rng.Intn(len(airports))]
		dest[i] = airports[rng.Intn(len(airports))]

		// Distance regime: short / medium / long, with gaps between the
		// ranges so KDE binning recovers the regimes as bins (real route
		// networks are similarly multi-modal). The whole duration family
		// (AIR_TIME, SCHEDULED_TIME, ELAPSED_TIME) is regime-determined.
		var dist, at float64
		switch rng.Intn(3) {
		case 0: // short hops
			dist = 150 + rng.Float64()*300
			at = 35 + rng.Float64()*30
		case 1: // medium
			dist = 700 + rng.Float64()*400
			at = 110 + rng.Float64()*50
		default: // long haul
			dist = 1600 + rng.Float64()*800
			at = 220 + rng.Float64()*90
		}
		distance[i] = math.Round(dist)

		// Departure slot regime: morning / afternoon / evening (gapped).
		slot := rng.Intn(3)
		switch slot {
		case 0:
			schedDep[i] = float64(500 + rng.Intn(400)) // 05:00-08:59
		case 1:
			schedDep[i] = float64(1230 + rng.Intn(400)) // 12:30-16:29
		default:
			schedDep[i] = float64(1830 + rng.Intn(330)) // 18:30-21:59
		}

		// Cancellation model (the planted rules):
		//   long flights    -> ~1% cancelled
		//   short afternoon -> ~45% cancelled
		//   otherwise       -> ~5% cancelled
		// Overall rate ≈ 8.5%, deliberately below the default 10% mining
		// support: cancellation rules surface under target-column mining
		// (the user-study setting) rather than flooding global mining.
		pCancel := 0.05
		if dist >= 1600 {
			pCancel = 0.01
		} else if dist < 500 && slot == 1 {
			pCancel = 0.45
		}
		isCancelled := rng.Float64() < pCancel
		winter := month[i] == 12 || month[i] <= 2

		schedTime[i] = math.Round(at + 32 + rng.Float64()*6)
		schedArr[i] = math.Round(math.Mod(schedDep[i]+schedTime[i]*1.7, 2400))

		if isCancelled {
			cancelled[i] = 1
			// The paper's NaN structure: no in-flight data for cancelled rows.
			depTime[i], depDelay[i], taxiOut[i], wheelsOff[i] = nan, nan, nan, nan
			elapsed[i], airTime[i], wheelsOn[i], taxiIn[i] = nan, nan, nan, nan
			arrTime[i], arrDelay[i] = nan, nan
			diverted[i] = 0
			if winter {
				cancReason[i] = "B" // weather
			} else {
				cancReason[i] = []string{"A", "C"}[rng.Intn(2)]
			}
			airSysDelay[i], secDelay[i], airlineDelay[i], lateAcDelay[i], weatherDelay[i] = nan, nan, nan, nan, nan
			continue
		}
		cancelled[i] = 0
		cancReason[i] = ""

		// Delay regime: on-time vs delayed; winter and airline NK drive
		// delays (the MONTH/WEATHER_DELAY and AIRLINE planted rules).
		pDelay := 0.12
		if winter {
			pDelay = 0.65
		}
		if airline[i] == "NK" {
			pDelay += 0.35
		}
		var dd float64
		if rng.Float64() < pDelay {
			dd = 35 + rng.Float64()*60 // clearly delayed
		} else {
			dd = -8 + rng.Float64()*14 // on time
		}
		depDelay[i] = math.Round(dd)
		depTime[i] = math.Round(math.Mod(schedDep[i]+math.Max(dd, 0)+2400, 2400))
		taxiOut[i] = math.Round(8 + rng.Float64()*18)
		wheelsOff[i] = math.Round(math.Mod(depTime[i]+taxiOut[i], 2400))
		airTime[i] = math.Round(at)
		taxiIn[i] = math.Round(3 + rng.Float64()*12)
		elapsed[i] = math.Round(taxiOut[i] + airTime[i] + taxiIn[i])
		wheelsOn[i] = math.Round(math.Mod(wheelsOff[i]+airTime[i], 2400))
		arrTime[i] = math.Round(math.Mod(wheelsOn[i]+taxiIn[i], 2400))
		ad := dd + rng.NormFloat64()*6
		arrDelay[i] = math.Round(ad)
		diverted[i] = 0
		if rng.Float64() < 0.002 {
			diverted[i] = 1
		}
		// Delay-attribution columns exist only for late flights (> 15 min).
		if ad > 15 {
			airSysDelay[i] = math.Max(0, math.Round(rng.Float64()*ad*0.3))
			secDelay[i] = 0
			airlineDelay[i] = math.Max(0, math.Round(rng.Float64()*ad*0.4))
			lateAcDelay[i] = math.Max(0, math.Round(ad-airSysDelay[i]-airlineDelay[i]))
			if winter {
				weatherDelay[i] = math.Round(math.Max(ad*0.5, 1))
			} else {
				weatherDelay[i] = 0
			}
		} else {
			airSysDelay[i], secDelay[i], airlineDelay[i], lateAcDelay[i], weatherDelay[i] = nan, nan, nan, nan, nan
		}
	}

	t := table.New("FL")
	mustAdd(t, table.NewNumeric("YEAR", year))
	mustAdd(t, table.NewNumeric("MONTH", month))
	mustAdd(t, table.NewNumeric("DAY", day))
	mustAdd(t, table.NewNumeric("DAY_OF_WEEK", dow))
	mustAdd(t, table.NewCategorical("AIRLINE", airline))
	mustAdd(t, table.NewNumeric("FLIGHT_NUMBER", flightNum))
	mustAdd(t, table.NewCategorical("TAIL_NUMBER", tailNum))
	mustAdd(t, table.NewCategorical("ORIGIN_AIRPORT", origin))
	mustAdd(t, table.NewCategorical("DESTINATION_AIRPORT", dest))
	mustAdd(t, table.NewNumeric("SCHEDULED_DEPARTURE", schedDep))
	mustAdd(t, table.NewNumeric("DEPARTURE_TIME", depTime))
	mustAdd(t, table.NewNumeric("DEPARTURE_DELAY", depDelay))
	mustAdd(t, table.NewNumeric("TAXI_OUT", taxiOut))
	mustAdd(t, table.NewNumeric("WHEELS_OFF", wheelsOff))
	mustAdd(t, table.NewNumeric("SCHEDULED_TIME", schedTime))
	mustAdd(t, table.NewNumeric("ELAPSED_TIME", elapsed))
	mustAdd(t, table.NewNumeric("AIR_TIME", airTime))
	mustAdd(t, table.NewNumeric("DISTANCE", distance))
	mustAdd(t, table.NewNumeric("WHEELS_ON", wheelsOn))
	mustAdd(t, table.NewNumeric("TAXI_IN", taxiIn))
	mustAdd(t, table.NewNumeric("SCHEDULED_ARRIVAL", schedArr))
	mustAdd(t, table.NewNumeric("ARRIVAL_TIME", arrTime))
	mustAdd(t, table.NewNumeric("ARRIVAL_DELAY", arrDelay))
	mustAdd(t, table.NewNumeric("DIVERTED", diverted))
	mustAdd(t, table.NewNumeric("CANCELLED", cancelled))
	mustAdd(t, table.NewCategorical("CANCELLATION_REASON", cancReason))
	mustAdd(t, table.NewNumeric("AIR_SYSTEM_DELAY", airSysDelay))
	mustAdd(t, table.NewNumeric("SECURITY_DELAY", secDelay))
	mustAdd(t, table.NewNumeric("AIRLINE_DELAY", airlineDelay))
	mustAdd(t, table.NewNumeric("LATE_AIRCRAFT_DELAY", lateAcDelay))
	mustAdd(t, table.NewNumeric("WEATHER_DELAY", weatherDelay))

	planted := []PlantedRule{
		{
			Description: "long flights (high AIR_TIME, high DISTANCE) are almost never cancelled",
			Cols:        []string{"AIR_TIME", "DISTANCE", "CANCELLED"},
			Holds: func(t *table.Table, r int) bool {
				d := t.Column("DISTANCE").Nums[r]
				return d >= 1600 && t.Column("CANCELLED").Nums[r] == 0
			},
		},
		{
			Description: "short afternoon flights are frequently cancelled",
			Cols:        []string{"SCHEDULED_DEPARTURE", "DISTANCE", "CANCELLED"},
			Holds: func(t *table.Table, r int) bool {
				d := t.Column("DISTANCE").Nums[r]
				s := t.Column("SCHEDULED_DEPARTURE").Nums[r]
				return d < 500 && s >= 1230 && s < 1630 && t.Column("CANCELLED").Nums[r] == 1
			},
		},
		{
			Description: "cancelled flights have no departure time recorded (NaN)",
			Cols:        []string{"DEPARTURE_TIME", "CANCELLED"},
			Holds: func(t *table.Table, r int) bool {
				return t.Column("CANCELLED").Nums[r] == 1 && t.Column("DEPARTURE_TIME").Missing(r)
			},
		},
		{
			Description: "winter months carry weather delays",
			Cols:        []string{"MONTH", "WEATHER_DELAY"},
			Holds: func(t *table.Table, r int) bool {
				m := t.Column("MONTH").Nums[r]
				wd := t.Column("WEATHER_DELAY")
				return (m == 12 || m <= 2) && !wd.Missing(r) && wd.Nums[r] > 0
			},
		},
		{
			Description: "airline NK departs late",
			Cols:        []string{"AIRLINE", "DEPARTURE_DELAY"},
			Holds: func(t *table.Table, r int) bool {
				dd := t.Column("DEPARTURE_DELAY")
				return t.Cell(r, "AIRLINE").Str == "NK" && !dd.Missing(r) && dd.Nums[r] > 15
			},
		},
	}
	return &Dataset{Name: "FL", T: t, Planted: planted, Targets: []string{"CANCELLED"}}
}

// Cyber generates the CY stand-in: a honeypot-log-like table (15 columns)
// with planted attack patterns.
func Cyber(n int, seed int64) *Dataset {
	rng := rand.New(rand.NewSource(seed))
	countries := []string{"CN", "RU", "US", "BR", "IN", "DE", "KR", "VN"}
	services := []string{"ssh", "http", "smtp", "ftp", "telnet", "rdp"}
	protocols := []string{"TCP", "UDP", "ICMP"}

	hour := make([]float64, n)
	srcClass := make([]string, n)
	country := make([]string, n)
	dstPort := make([]float64, n)
	protocol := make([]string, n)
	service := make([]string, n)
	attack := make([]string, n)
	severity := make([]string, n)
	bytesIn := make([]float64, n)
	bytesOut := make([]float64, n)
	duration := make([]float64, n)
	sessions := make([]float64, n)
	alerted := make([]float64, n)
	blocked := make([]float64, n)
	success := make([]float64, n)

	for i := 0; i < n; i++ {
		hour[i] = float64(rng.Intn(24))
		srcClass[i] = []string{"botnet", "tor_exit", "residential", "cloud"}[rng.Intn(4)]
		country[i] = countries[rng.Intn(len(countries))]

		// Attack mix mirrors honeypot logs: mostly background noise with
		// rarer, sharply patterned attack regimes (brute force ~12%, scans
		// ~15%, web exploits ~13%). Rare regimes are what separates
		// informed row selection from random sampling.
		var kind int
		switch p := rng.Float64(); {
		case p < 0.12:
			kind = 0
		case p < 0.27:
			kind = 1
		case p < 0.40:
			kind = 2
		default:
			kind = 3
		}
		switch kind {
		case 0: // SSH brute force: port 22, TCP, ssh, many short sessions.
			dstPort[i] = 22
			protocol[i] = "TCP"
			service[i] = "ssh"
			attack[i] = "brute_force"
			severity[i] = "high"
			duration[i] = 1 + rng.Float64()*5
			sessions[i] = float64(50 + rng.Intn(400))
			bytesIn[i] = 500 + rng.Float64()*2000
			bytesOut[i] = 100 + rng.Float64()*300
			alerted[i] = 1
			blocked[i] = btof(rng.Float64() < 0.9)
		case 1: // Port scan: UDP/TCP sweep, tiny bytes, short.
			dstPort[i] = float64(1 + rng.Intn(65535))
			protocol[i] = protocols[rng.Intn(2)]
			service[i] = services[rng.Intn(len(services))]
			attack[i] = "port_scan"
			severity[i] = "low"
			duration[i] = rng.Float64()
			sessions[i] = float64(1 + rng.Intn(5))
			bytesIn[i] = rng.Float64() * 200
			bytesOut[i] = rng.Float64() * 100
			alerted[i] = btof(rng.Float64() < 0.4)
			blocked[i] = btof(rng.Float64() < 0.2)
		case 2: // Web exploit: port 80/443, http, large bytes out.
			dstPort[i] = []float64{80, 443}[rng.Intn(2)]
			protocol[i] = "TCP"
			service[i] = "http"
			attack[i] = "web_exploit"
			severity[i] = "high"
			duration[i] = 5 + rng.Float64()*60
			sessions[i] = float64(1 + rng.Intn(20))
			bytesIn[i] = 2000 + rng.Float64()*8000
			bytesOut[i] = 10000 + rng.Float64()*90000
			alerted[i] = 1
			blocked[i] = btof(rng.Float64() < 0.7)
		default: // Benign-ish background.
			dstPort[i] = []float64{80, 443, 25, 21}[rng.Intn(4)]
			protocol[i] = protocols[rng.Intn(len(protocols))]
			service[i] = services[rng.Intn(len(services))]
			attack[i] = "none"
			severity[i] = "low"
			duration[i] = rng.Float64() * 30
			sessions[i] = float64(1 + rng.Intn(3))
			bytesIn[i] = rng.Float64() * 5000
			bytesOut[i] = rng.Float64() * 5000
			alerted[i] = 0
			blocked[i] = 0
		}
		success[i] = btof(attack[i] != "none" && blocked[i] == 0 && rng.Float64() < 0.5)
	}

	t := table.New("CY")
	mustAdd(t, table.NewNumeric("hour", hour))
	mustAdd(t, table.NewCategorical("src_class", srcClass))
	mustAdd(t, table.NewCategorical("country", country))
	mustAdd(t, table.NewNumeric("dst_port", dstPort))
	mustAdd(t, table.NewCategorical("protocol", protocol))
	mustAdd(t, table.NewCategorical("service", service))
	mustAdd(t, table.NewCategorical("attack_type", attack))
	mustAdd(t, table.NewCategorical("severity", severity))
	mustAdd(t, table.NewNumeric("bytes_in", bytesIn))
	mustAdd(t, table.NewNumeric("bytes_out", bytesOut))
	mustAdd(t, table.NewNumeric("duration", duration))
	mustAdd(t, table.NewNumeric("sessions", sessions))
	mustAdd(t, table.NewNumeric("alerted", alerted))
	mustAdd(t, table.NewNumeric("blocked", blocked))
	mustAdd(t, table.NewNumeric("success", success))

	planted := []PlantedRule{
		{
			Description: "SSH brute-force attacks hit port 22 with many sessions and high severity",
			Cols:        []string{"dst_port", "attack_type", "severity"},
			Holds: func(t *table.Table, r int) bool {
				return t.Column("dst_port").Nums[r] == 22 && t.Cell(r, "attack_type").Str == "brute_force"
			},
		},
		{
			Description: "web exploits exfiltrate large bytes_out over http",
			Cols:        []string{"service", "attack_type", "bytes_out"},
			Holds: func(t *table.Table, r int) bool {
				return t.Cell(r, "attack_type").Str == "web_exploit" && t.Column("bytes_out").Nums[r] >= 10000
			},
		},
		{
			Description: "port scans are short with tiny payloads and low severity",
			Cols:        []string{"attack_type", "duration", "severity"},
			Holds: func(t *table.Table, r int) bool {
				return t.Cell(r, "attack_type").Str == "port_scan" && t.Column("duration").Nums[r] <= 1
			},
		},
		{
			Description: "high-severity attacks are alerted",
			Cols:        []string{"severity", "alerted"},
			Holds: func(t *table.Table, r int) bool {
				return t.Cell(r, "severity").Str == "high" && t.Column("alerted").Nums[r] == 1
			},
		},
	}
	return &Dataset{Name: "CY", T: t, Planted: planted, Targets: []string{"attack_type"}}
}

// Spotify generates the SP stand-in (15 audio-feature columns) with planted
// popularity drivers.
func Spotify(n int, seed int64) *Dataset {
	rng := rand.New(rand.NewSource(seed))
	genres := []string{"pop", "rock", "hiphop", "classical", "jazz", "electronic", "folk"}

	dance := make([]float64, n)
	energy := make([]float64, n)
	loud := make([]float64, n)
	speech := make([]float64, n)
	acoustic := make([]float64, n)
	instr := make([]float64, n)
	live := make([]float64, n)
	valence := make([]float64, n)
	tempo := make([]float64, n)
	durMs := make([]float64, n)
	key := make([]float64, n)
	mode := make([]float64, n)
	genre := make([]string, n)
	explicit := make([]float64, n)
	popularity := make([]float64, n)

	for i := 0; i < n; i++ {
		g := genres[rng.Intn(len(genres))]
		genre[i] = g
		// Audio archetypes are gapped so binning recovers them crisply:
		// dance-floor (pop/hiphop/electronic), acoustic (classical/jazz/
		// folk), and band (rock).
		switch g {
		case "pop", "hiphop", "electronic":
			dance[i] = 0.65 + rng.Float64()*0.3
			energy[i] = 0.65 + rng.Float64()*0.3
			acoustic[i] = rng.Float64() * 0.2
			instr[i] = rng.Float64() * 0.1
			loud[i] = -8 + rng.Float64()*6
		case "classical", "jazz", "folk":
			dance[i] = 0.05 + rng.Float64()*0.3
			energy[i] = 0.05 + rng.Float64()*0.3
			acoustic[i] = 0.7 + rng.Float64()*0.3
			instr[i] = 0.6 + rng.Float64()*0.4
			loud[i] = -28 + rng.Float64()*8
		default: // rock
			dance[i] = 0.4 + rng.Float64()*0.15
			energy[i] = 0.45 + rng.Float64()*0.15
			acoustic[i] = 0.3 + rng.Float64()*0.2
			instr[i] = 0.2 + rng.Float64()*0.2
			loud[i] = -17 + rng.Float64()*5
		}
		speech[i] = rng.Float64() * 0.15
		if g == "hiphop" {
			speech[i] = 0.3 + rng.Float64()*0.3
		}
		live[i] = rng.Float64() * 0.5
		valence[i] = rng.Float64()
		tempo[i] = 60 + rng.Float64()*140
		durMs[i] = 120000 + rng.Float64()*240000
		key[i] = float64(rng.Intn(12))
		mode[i] = float64(rng.Intn(2))
		explicit[i] = btof(g == "hiphop" && rng.Float64() < 0.75)

		// Planted popularity drivers with high confidence and gapped ranges:
		// dance-floor songs are popular, acoustic songs are niche, rock sits
		// in between.
		var pop float64
		switch {
		case dance[i] >= 0.65 && energy[i] >= 0.65:
			pop = 62 + rng.Float64()*28
			if g == "pop" {
				pop = math.Min(95, pop+8)
			}
		case instr[i] >= 0.6:
			pop = 8 + rng.Float64()*30
		default:
			pop = 42 + rng.Float64()*14
		}
		popularity[i] = math.Round(pop)
	}

	t := table.New("SP")
	mustAdd(t, table.NewNumeric("danceability", dance))
	mustAdd(t, table.NewNumeric("energy", energy))
	mustAdd(t, table.NewNumeric("loudness", loud))
	mustAdd(t, table.NewNumeric("speechiness", speech))
	mustAdd(t, table.NewNumeric("acousticness", acoustic))
	mustAdd(t, table.NewNumeric("instrumentalness", instr))
	mustAdd(t, table.NewNumeric("liveness", live))
	mustAdd(t, table.NewNumeric("valence", valence))
	mustAdd(t, table.NewNumeric("tempo", tempo))
	mustAdd(t, table.NewNumeric("duration_ms", durMs))
	mustAdd(t, table.NewNumeric("key", key))
	mustAdd(t, table.NewNumeric("mode", mode))
	mustAdd(t, table.NewCategorical("genre", genre))
	mustAdd(t, table.NewNumeric("explicit", explicit))
	mustAdd(t, table.NewNumeric("popularity", popularity))

	planted := []PlantedRule{
		{
			Description: "danceable, energetic songs are popular",
			Cols:        []string{"danceability", "energy", "popularity"},
			Holds: func(t *table.Table, r int) bool {
				return t.Column("danceability").Nums[r] >= 0.6 &&
					t.Column("energy").Nums[r] >= 0.6 &&
					t.Column("popularity").Nums[r] >= 60
			},
		},
		{
			Description: "instrumental acoustic songs are unpopular",
			Cols:        []string{"instrumentalness", "acousticness", "popularity"},
			Holds: func(t *table.Table, r int) bool {
				return t.Column("instrumentalness").Nums[r] >= 0.5 &&
					t.Column("acousticness").Nums[r] >= 0.6 &&
					t.Column("popularity").Nums[r] < 50
			},
		},
		{
			Description: "pop genre songs rank high",
			Cols:        []string{"genre", "popularity"},
			Holds: func(t *table.Table, r int) bool {
				return t.Cell(r, "genre").Str == "pop" && t.Column("popularity").Nums[r] >= 60
			},
		},
		{
			Description: "hip-hop tracks are speechy and often explicit",
			Cols:        []string{"genre", "speechiness", "explicit"},
			Holds: func(t *table.Table, r int) bool {
				return t.Cell(r, "genre").Str == "hiphop" && t.Column("speechiness").Nums[r] >= 0.2
			},
		},
		{
			Description: "loudness tracks energy",
			Cols:        []string{"loudness", "energy"},
			Holds: func(t *table.Table, r int) bool {
				return t.Column("energy").Nums[r] >= 0.6 && t.Column("loudness").Nums[r] >= -15
			},
		},
	}
	return &Dataset{Name: "SP", T: t, Planted: planted, Targets: []string{"popularity"}}
}

// CreditCard generates the CC stand-in: Time, V1..V28 PCA-like numeric
// features, Amount, Class (31 columns, all numeric — which is why CC has the
// slowest pre-processing in the paper's Figure 9: every column is binned).
func CreditCard(n int, seed int64) *Dataset {
	rng := rand.New(rand.NewSource(seed))
	t := table.New("CC")
	timeCol := make([]float64, n)
	class := make([]float64, n)
	vs := make([][]float64, 28)
	for j := range vs {
		vs[j] = make([]float64, n)
	}
	amount := make([]float64, n)
	for i := 0; i < n; i++ {
		timeCol[i] = float64(rng.Intn(172800))
		fraud := rng.Float64() < 0.05
		class[i] = btof(fraud)
		for j := 0; j < 28; j++ {
			vs[j][i] = rng.NormFloat64()
		}
		if fraud {
			// Planted fraud signature in V1, V3, V14 (mirrors the real
			// dataset's strongest fraud separators) and small amounts.
			vs[0][i] = -4 + rng.NormFloat64()
			vs[2][i] = -5 + rng.NormFloat64()
			vs[13][i] = -6 + rng.NormFloat64()
			amount[i] = 1 + rng.Float64()*120
		} else {
			amount[i] = math.Exp(rng.NormFloat64()*1.2 + 3)
		}
	}
	mustAdd(t, table.NewNumeric("Time", timeCol))
	for j := 0; j < 28; j++ {
		mustAdd(t, table.NewNumeric(fmt.Sprintf("V%d", j+1), vs[j]))
	}
	mustAdd(t, table.NewNumeric("Amount", amount))
	mustAdd(t, table.NewNumeric("Class", class))

	planted := []PlantedRule{
		{
			Description: "fraudulent transactions have extreme negative V1, V3, V14",
			Cols:        []string{"V1", "V3", "V14", "Class"},
			Holds: func(t *table.Table, r int) bool {
				return t.Column("Class").Nums[r] == 1 && t.Column("V14").Nums[r] < -3
			},
		},
		{
			Description: "fraudulent transactions are small",
			Cols:        []string{"Amount", "Class"},
			Holds: func(t *table.Table, r int) bool {
				return t.Column("Class").Nums[r] == 1 && t.Column("Amount").Nums[r] <= 121
			},
		},
	}
	return &Dataset{Name: "CC", T: t, Planted: planted, Targets: []string{"Class"}}
}

// USFunds generates the USF stand-in: a very wide table (298 columns) of
// fund metadata plus yearly return/ratio columns, used for wide-table
// stress (the paper lists USF at 298 columns).
func USFunds(n int, seed int64) *Dataset {
	rng := rand.New(rand.NewSource(seed))
	t := table.New("USF")
	categories := []string{"Large Blend", "Large Growth", "Small Value", "Bond", "International", "Sector"}

	symbol := make([]string, n)
	category := make([]string, n)
	family := make([]string, n)
	investment := make([]string, n)
	size := make([]string, n)
	rating := make([]float64, n)
	risk := make([]float64, n)
	expense := make([]float64, n)
	assets := make([]float64, n)
	yield := make([]float64, n)

	// Latent per-fund quality drives hundreds of return columns.
	quality := make([]float64, n)
	isBond := make([]bool, n)
	for i := 0; i < n; i++ {
		symbol[i] = fmt.Sprintf("FND%04d", i)
		category[i] = categories[rng.Intn(len(categories))]
		family[i] = fmt.Sprintf("Family%d", rng.Intn(25))
		investment[i] = []string{"Blend", "Growth", "Value"}[rng.Intn(3)]
		size[i] = []string{"Large", "Medium", "Small"}[rng.Intn(3)]
		quality[i] = rng.NormFloat64()
		isBond[i] = category[i] == "Bond"
		rating[i] = math.Max(1, math.Min(5, math.Round(3+quality[i])))
		risk[i] = math.Max(1, math.Min(5, math.Round(3-quality[i]+rng.NormFloat64()*0.5)))
		expense[i] = math.Max(0.01, 1.2-quality[i]*0.3+rng.NormFloat64()*0.2)
		assets[i] = math.Exp(rng.NormFloat64() + 6)
		yield[i] = math.Max(0, 2+btof(isBond[i])*2+rng.NormFloat64())
	}

	mustAdd(t, table.NewCategorical("fund_symbol", symbol))
	mustAdd(t, table.NewCategorical("category", category))
	mustAdd(t, table.NewCategorical("fund_family", family))
	mustAdd(t, table.NewCategorical("investment_type", investment))
	mustAdd(t, table.NewCategorical("size_type", size))
	mustAdd(t, table.NewNumeric("rating", rating))
	mustAdd(t, table.NewNumeric("risk_rating", risk))
	mustAdd(t, table.NewNumeric("expense_ratio", expense))
	mustAdd(t, table.NewNumeric("total_net_assets", assets))
	mustAdd(t, table.NewNumeric("yield", yield))

	// 288 numeric columns: returns, alphas, betas, ratios per year.
	kinds := []string{"return", "alpha", "beta", "sharpe", "stdev", "r_squared", "treynor", "sortino"}
	years := 36 // 8 kinds × 36 years = 288 columns
	for _, kind := range kinds {
		for y := 0; y < years; y++ {
			vals := make([]float64, n)
			market := rng.NormFloat64() * 5
			for i := 0; i < n; i++ {
				base := market + quality[i]*3 + rng.NormFloat64()*2
				if isBond[i] {
					base = market*0.2 + quality[i] + rng.NormFloat64()
				}
				switch kind {
				case "beta":
					vals[i] = 1 + quality[i]*0.05 + rng.NormFloat64()*0.2
					if isBond[i] {
						vals[i] *= 0.3
					}
				case "r_squared":
					vals[i] = math.Min(100, math.Max(0, 80+rng.NormFloat64()*10))
				default:
					vals[i] = base
				}
			}
			mustAdd(t, table.NewNumeric(fmt.Sprintf("fund_%s_%d", kind, 1985+y), vals))
		}
	}

	planted := []PlantedRule{
		{
			Description: "high-rating funds have low expense ratios",
			Cols:        []string{"rating", "expense_ratio"},
			Holds: func(t *table.Table, r int) bool {
				return t.Column("rating").Nums[r] >= 4 && t.Column("expense_ratio").Nums[r] <= 1.2
			},
		},
		{
			Description: "bond funds have low beta",
			Cols:        []string{"category", "fund_beta_1985"},
			Holds: func(t *table.Table, r int) bool {
				return t.Cell(r, "category").Str == "Bond" && t.Column("fund_beta_1985").Nums[r] < 0.6
			},
		},
	}
	return &Dataset{Name: "USF", T: t, Planted: planted, Targets: []string{"rating"}}
}

// BankLoans generates the BL stand-in (19 columns) with planted default
// drivers; this is the dataset the paper's user study ran *without* rule
// highlighting.
func BankLoans(n int, seed int64) *Dataset {
	rng := rand.New(rand.NewSource(seed))
	t := table.New("BL")
	nan := math.NaN()

	status := make([]string, n)
	amount := make([]float64, n)
	term := make([]string, n)
	score := make([]float64, n)
	income := make([]float64, n)
	job := make([]string, n)
	home := make([]string, n)
	purpose := make([]string, n)
	debt := make([]float64, n)
	history := make([]float64, n)
	delinq := make([]float64, n)
	accounts := make([]float64, n)
	problems := make([]float64, n)
	balance := make([]float64, n)
	openCredit := make([]float64, n)
	bankrupt := make([]float64, n)
	liens := make([]float64, n)
	years := make([]float64, n)
	region := make([]string, n)

	for i := 0; i < n; i++ {
		sc := 580 + rng.Float64()*270 // 580-850
		score[i] = math.Round(sc)
		inc := math.Exp(rng.NormFloat64()*0.5 + 11)
		income[i] = math.Round(inc)
		debt[i] = math.Round(inc * (0.1 + rng.Float64()*0.5) / 12)
		amount[i] = math.Round(5000 + rng.Float64()*45000)
		term[i] = []string{"Short Term", "Long Term"}[rng.Intn(2)]
		job[i] = []string{"< 1 year", "1-3 years", "4-9 years", "10+ years"}[rng.Intn(4)]
		home[i] = []string{"Rent", "Own Home", "Home Mortgage"}[rng.Intn(3)]
		purpose[i] = []string{"Debt Consolidation", "Home Improvements", "Business", "Medical", "Other"}[rng.Intn(5)]
		history[i] = math.Round(3 + rng.Float64()*30)
		accounts[i] = math.Round(2 + rng.Float64()*20)
		problems[i] = float64(rng.Intn(3))
		balance[i] = math.Round(rng.Float64() * 60000)
		openCredit[i] = math.Round(10000 + rng.Float64()*400000)
		bankrupt[i] = btof(rng.Float64() < 0.08)
		liens[i] = btof(rng.Float64() < 0.03)
		years[i] = math.Round(rng.Float64() * 25)
		region[i] = []string{"North", "South", "East", "West"}[rng.Intn(4)]
		if rng.Float64() < 0.1 {
			delinq[i] = nan // many loans have no delinquency record
		} else {
			delinq[i] = math.Round(rng.Float64() * 80)
		}

		// Planted default drivers: low score + high debt ratio charge off;
		// long-term large loans are riskier; bankruptcies hurt.
		debtRatio := debt[i] * 12 / inc
		p := 0.08
		if sc < 650 && debtRatio > 0.4 {
			p = 0.75
		} else if term[i] == "Long Term" && amount[i] > 35000 {
			p = 0.45
		}
		if bankrupt[i] == 1 {
			p += 0.2
		}
		if rng.Float64() < p {
			status[i] = "Charged Off"
		} else {
			status[i] = "Fully Paid"
		}
	}

	mustAdd(t, table.NewCategorical("loan_status", status))
	mustAdd(t, table.NewNumeric("current_loan_amount", amount))
	mustAdd(t, table.NewCategorical("term", term))
	mustAdd(t, table.NewNumeric("credit_score", score))
	mustAdd(t, table.NewNumeric("annual_income", income))
	mustAdd(t, table.NewCategorical("years_in_current_job", job))
	mustAdd(t, table.NewCategorical("home_ownership", home))
	mustAdd(t, table.NewCategorical("purpose", purpose))
	mustAdd(t, table.NewNumeric("monthly_debt", debt))
	mustAdd(t, table.NewNumeric("years_of_credit_history", history))
	mustAdd(t, table.NewNumeric("months_since_last_delinquent", delinq))
	mustAdd(t, table.NewNumeric("number_of_open_accounts", accounts))
	mustAdd(t, table.NewNumeric("number_of_credit_problems", problems))
	mustAdd(t, table.NewNumeric("current_credit_balance", balance))
	mustAdd(t, table.NewNumeric("maximum_open_credit", openCredit))
	mustAdd(t, table.NewNumeric("bankruptcies", bankrupt))
	mustAdd(t, table.NewNumeric("tax_liens", liens))
	mustAdd(t, table.NewNumeric("years_at_residence", years))
	mustAdd(t, table.NewCategorical("region", region))

	planted := []PlantedRule{
		{
			Description: "low credit score with high debt burden leads to charge-offs",
			Cols:        []string{"credit_score", "monthly_debt", "loan_status"},
			Holds: func(t *table.Table, r int) bool {
				ratio := t.Column("monthly_debt").Nums[r] * 12 / t.Column("annual_income").Nums[r]
				return t.Column("credit_score").Nums[r] < 650 && ratio > 0.4 &&
					t.Cell(r, "loan_status").Str == "Charged Off"
			},
		},
		{
			Description: "large long-term loans default more",
			Cols:        []string{"term", "current_loan_amount", "loan_status"},
			Holds: func(t *table.Table, r int) bool {
				return t.Cell(r, "term").Str == "Long Term" &&
					t.Column("current_loan_amount").Nums[r] > 35000 &&
					t.Cell(r, "loan_status").Str == "Charged Off"
			},
		},
		{
			Description: "bankruptcies raise default risk",
			Cols:        []string{"bankruptcies", "loan_status"},
			Holds: func(t *table.Table, r int) bool {
				return t.Column("bankruptcies").Nums[r] == 1 && t.Cell(r, "loan_status").Str == "Charged Off"
			},
		},
	}
	return &Dataset{Name: "BL", T: t, Planted: planted, Targets: []string{"loan_status"}}
}

// Generic generates a controlled synthetic table: nPatterns disjoint row
// clusters, each stamping a distinctive value combination on a subset of
// columns, plus uniform noise columns. Used by unit tests and ablations.
func Generic(nRows, nCols, nPatterns int, seed int64) *Dataset {
	if nPatterns < 1 {
		nPatterns = 1
	}
	if nCols < 3 {
		nCols = 3
	}
	rng := rand.New(rand.NewSource(seed))
	t := table.New("GEN")
	patternOf := make([]int, nRows)
	for i := range patternOf {
		patternOf[i] = rng.Intn(nPatterns)
	}
	// First column announces the pattern (the "target"); half the remaining
	// columns correlate with it, the rest are noise.
	label := make([]string, nRows)
	for i, p := range patternOf {
		label[i] = fmt.Sprintf("p%d", p)
	}
	mustAdd(t, table.NewCategorical("pattern", label))
	nSignal := (nCols - 1) / 2
	for c := 1; c < nCols; c++ {
		vals := make([]float64, nRows)
		signal := c-1 < nSignal
		for i := 0; i < nRows; i++ {
			if signal {
				vals[i] = float64(patternOf[i]*100) + rng.Float64()*10
			} else {
				vals[i] = rng.Float64() * 1000
			}
		}
		mustAdd(t, table.NewNumeric(fmt.Sprintf("c%d", c), vals))
	}
	var planted []PlantedRule
	for p := 0; p < nPatterns; p++ {
		p := p
		cols := []string{"pattern"}
		for c := 0; c < nSignal; c++ {
			cols = append(cols, fmt.Sprintf("c%d", c+1))
		}
		planted = append(planted, PlantedRule{
			Description: fmt.Sprintf("pattern p%d stamps its signal columns", p),
			Cols:        cols,
			Holds: func(t *table.Table, r int) bool {
				return t.Cell(r, "pattern").Str == fmt.Sprintf("p%d", p)
			},
		})
	}
	return &Dataset{Name: "GEN", T: t, Planted: planted, Targets: []string{"pattern"}}
}

func btof(b bool) float64 {
	if b {
		return 1
	}
	return 0
}
