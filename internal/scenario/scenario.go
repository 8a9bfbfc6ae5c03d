// Package scenario turns market experiments into data. A Scenario is a
// plain, JSON-round-trippable description of one study over the Ma–Misra
// model: which ISPs compete (monopoly, duopoly, N-firm oligopoly, with or
// without a Public Option entrant), which CP population they serve (named
// archetypes, the paper's random ensembles, or an explicit list with any
// demand family from internal/demand), which regulatory regimes apply
// (internal/core/regulate.go), and which axis is swept.
//
// Scenarios decouple "what market to study" from "how to solve it": the
// registry ships the regimes of every figure in internal/experiment plus
// market structures from the related literature (asymmetric duopolies,
// large-N oligopolies, revenue-rebating incumbents), and Run compiles any
// scenario — built-in or loaded from JSON — into warm-started solver sweeps
// parallelized with sweep.RunParallel. Large CP populations (10⁵–10⁶) are
// generated and evaluated in fixed-size batches so memory stays bounded.
package scenario

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"strings"

	"github.com/netecon-sim/publicoption/internal/core"
	"github.com/netecon-sim/publicoption/internal/demand"
	"github.com/netecon-sim/publicoption/internal/numeric"
	"github.com/netecon-sim/publicoption/internal/traffic"
)

// Scenario is one declarative market experiment. The zero value is invalid;
// construct scenarios literally, load them with Load, or copy a built-in
// from the registry (Get) and modify it.
type Scenario struct {
	// Name is the registry key, lower-kebab-case (e.g. "public-option-sizing").
	Name string `json:"name"`
	// Title is the one-line human description used as table titles.
	Title string `json:"title"`
	// Description expands on what the scenario models and what to expect.
	Description string `json:"description,omitempty"`
	// Reference ties the scenario to a paper figure, section, or related work.
	Reference string `json:"reference,omitempty"`
	// Population declares the CP side of the market.
	Population PopulationSpec `json:"population"`
	// Providers declares the ISP side: one entry is a monopoly, two a
	// duopoly, more an oligopoly. Capacity shares must sum to 1. Empty is
	// allowed only for regime-comparison scenarios (Regulation != nil),
	// where the market structure is implied by each regime.
	Providers []ProviderSpec `json:"providers,omitempty"`
	// Regulation, when set, switches the scenario to a regime comparison:
	// instead of solving the declared providers, each listed regulatory
	// regime is solved per sweep point (the sweep axis must be "nu").
	Regulation *RegulationSpec `json:"regulation,omitempty"`
	// Dynamics, when set, switches the scenario to a discrete-time market
	// simulation (internal/dynamics): the sweep axis must be "time" and the
	// scenario is solved tick-by-tick rather than point-by-point.
	Dynamics *DynamicsSpec `json:"dynamics,omitempty"`
	// Sweep declares the x-axis and the metrics to record.
	Sweep SweepSpec `json:"sweep"`
}

// PopulationSpec declares the content-provider population.
type PopulationSpec struct {
	// Kind selects the source: "paper" (the published 1000-CP ensemble),
	// "archetypes" (the §II-D Google/Netflix/Skype trio), "ensemble" (a
	// random draw parameterized below), or "explicit" (the CPs field).
	Kind string `json:"kind"`
	// Phi selects the consumer-utility model for ensembles: "correlated"
	// (default, φ ~ U[0,β]) or "independent" (φ ~ U[0,U[0,10]]).
	Phi string `json:"phi,omitempty"`
	// N is the ensemble size (Kind "ensemble"; 0 means 1000).
	N int `json:"n,omitempty"`
	// Seed is the ensemble seed (0 means the published default).
	Seed uint64 `json:"seed,omitempty"`
	// AlphaHi, ThetaHatHi, VHi, BetaHi override the ensemble's draw ranges;
	// 0 means the paper's value (1, 1, 1, 10 respectively).
	AlphaHi    float64 `json:"alpha_hi,omitempty"`
	ThetaHatHi float64 `json:"theta_hat_hi,omitempty"`
	VHi        float64 `json:"v_hi,omitempty"`
	BetaHi     float64 `json:"beta_hi,omitempty"`
	// Batch, when positive, generates the ensemble in fixed-size batches
	// and evaluates equilibria batch-by-batch, bounding memory for
	// 10⁵–10⁶-CP populations. Batched populations support only neutral
	// providers (the streaming water-fill has no premium class).
	Batch int `json:"batch,omitempty"`
	// CPs is the explicit population (Kind "explicit").
	CPs []CPSpec `json:"cps,omitempty"`
}

// CPSpec is one explicit content provider.
type CPSpec struct {
	Name     string     `json:"name"`
	Alpha    float64    `json:"alpha"`     // popularity α ∈ (0,1]
	ThetaHat float64    `json:"theta_hat"` // unconstrained per-user throughput θ̂ > 0
	V        float64    `json:"v"`         // per-unit-traffic revenue v ≥ 0
	Phi      float64    `json:"phi"`       // per-unit-traffic consumer utility φ ≥ 0
	Demand   DemandSpec `json:"demand"`
}

// DemandSpec is a tagged union over the demand families of internal/demand.
type DemandSpec struct {
	// Family is one of "exponential", "constant", "linear", "power",
	// "smoothstep".
	Family string `json:"family"`
	// Beta is the exponential family's throughput sensitivity β.
	Beta float64 `json:"beta,omitempty"`
	// Floor is the linear family's demand at ω = 0.
	Floor float64 `json:"floor,omitempty"`
	// Gamma is the power family's elasticity exponent.
	Gamma float64 `json:"gamma,omitempty"`
	// T and K are the smoothstep family's threshold and steepness.
	T float64 `json:"t,omitempty"`
	K float64 `json:"k,omitempty"`
}

// Curve materializes the demand curve, rejecting unknown families.
func (d DemandSpec) Curve() (demand.Curve, error) {
	switch d.Family {
	case "exponential":
		if !(d.Beta > 0) {
			return nil, fmt.Errorf("scenario: exponential demand needs beta > 0, got %g", d.Beta)
		}
		return demand.Exponential{Beta: d.Beta}, nil
	case "constant":
		return demand.Constant{}, nil
	case "linear":
		if d.Floor < 0 || d.Floor > 1 {
			return nil, fmt.Errorf("scenario: linear demand floor %g outside [0,1]", d.Floor)
		}
		return demand.Linear{Floor: d.Floor}, nil
	case "power":
		if d.Gamma < 0 {
			return nil, fmt.Errorf("scenario: power demand needs gamma >= 0, got %g", d.Gamma)
		}
		return demand.Power{Gamma: d.Gamma}, nil
	case "smoothstep":
		if !(d.T > 0 && d.T < 1) || !(d.K > 0) {
			return nil, fmt.Errorf("scenario: smoothstep demand needs t in (0,1) and k > 0, got t=%g k=%g", d.T, d.K)
		}
		return demand.SmoothStep{T: d.T, K: d.K}, nil
	default:
		return nil, fmt.Errorf("scenario: unknown demand family %q", d.Family)
	}
}

// ProviderSpec is one ISP in the market.
type ProviderSpec struct {
	Name string `json:"name"`
	// Gamma is the ISP's share of total last-mile capacity, in (0,1];
	// shares must sum to 1 across providers.
	Gamma float64 `json:"gamma"`
	// Kappa and C are the differentiation strategy s = (κ, c). Ignored when
	// PublicOption is set (the Public Option plays (0,0) by definition).
	Kappa float64 `json:"kappa,omitempty"`
	C     float64 `json:"c,omitempty"`
	// PublicOption marks a neutral Public Option entrant (Definition 5).
	PublicOption bool `json:"public_option,omitempty"`
	// BestResponse lets this provider search a small strategy grid for its
	// market-share best response at every sweep point instead of playing
	// the fixed (Kappa, C). At most one provider may best-respond.
	BestResponse bool `json:"best_response,omitempty"`
	// Sigma is the fraction of premium revenue rebated to subscribers
	// (the §VI subsidy extension); 0 recovers the paper's baseline.
	Sigma float64 `json:"sigma,omitempty"`
}

// RegulationSpec switches a scenario to comparing regulatory regimes on the
// same population and capacity (the paper's §III/§VI headline comparison).
type RegulationSpec struct {
	// Regimes lists which regimes to solve: any of "unregulated",
	// "kappa-cap", "price-cap", "neutral", "public-option". Empty means
	// all five.
	Regimes []string `json:"regimes,omitempty"`
	// KappaCap is the κ ceiling for "kappa-cap" (0 means 0.5).
	KappaCap float64 `json:"kappa_cap,omitempty"`
	// PriceCap is the c ceiling for "price-cap" (0 means 0.3).
	PriceCap float64 `json:"price_cap,omitempty"`
	// POShare is the Public Option's capacity share for "public-option"
	// (0 means 0.5).
	POShare float64 `json:"po_share,omitempty"`
	// GridN is the monopoly-optimizer grid resolution (0 means 30).
	GridN int `json:"grid_n,omitempty"`
}

// Sweep axes.
const (
	AxisNu      = "nu"      // per-capita capacity ν
	AxisPrice   = "price"   // premium price c of the first provider
	AxisKappa   = "kappa"   // premium capacity fraction κ of the first provider
	AxisPOShare = "poshare" // the Public Option's capacity share γ
	AxisSigma   = "sigma"   // revenue-rebate fraction σ of the first provider
)

// Metrics recordable per sweep point.
const (
	MetricPhi         = "phi"         // per-capita consumer surplus Φ
	MetricPsi         = "psi"         // per-capita ISP revenue Ψ (market-wide)
	MetricShare       = "share"       // market share per provider
	MetricUtilization = "utilization" // link utilization per provider
)

// SweepSpec declares the x-axis, its value grid, the metrics to record,
// and — optionally — a second swept axis (Grid) that turns the 1-D sweep
// into a 2-D grid of cells.
type SweepSpec struct {
	// Axis is one of the Axis* constants. In a 2-D grid it is the column
	// axis — the axis cells warm-start along.
	Axis string `json:"axis"`
	// Lo, Hi, Points define an evenly spaced grid; Values overrides it with
	// an explicit grid. All values must be finite.
	Lo     float64   `json:"lo,omitempty"`
	Hi     float64   `json:"hi,omitempty"`
	Points int       `json:"points,omitempty"`
	Values []float64 `json:"values,omitempty"`
	// OfSaturation scales every ν quantity in the sweep — the value grid of
	// a "nu" axis (column or row) and the fixed Nu below — by the
	// population's saturation capacity Σ α_i·θ̂_i, making capacity
	// declarations portable across populations.
	OfSaturation bool `json:"of_saturation,omitempty"`
	// Nu is the fixed per-capita capacity ν, required when no swept axis is
	// "nu" and ignored otherwise.
	Nu float64 `json:"nu,omitempty"`
	// Metrics lists what to record; empty means just "phi".
	Metrics []string `json:"metrics,omitempty"`
	// Grid, when set, adds a row axis: the scenario is solved at every
	// (column, row) cell pair and the result is a 2-D grid (sweep.Grid)
	// instead of 1-D tables. Run rejects grid scenarios — use RunGrid.
	Grid *GridSpec `json:"grid,omitempty"`
}

// GridSpec declares the second (row) axis of a 2-D grid sweep: any Axis*
// constant distinct from the primary sweep axis, with its own value grid.
// The canonical sizing question — how large must the Public Option be to
// discipline the incumbent — is a γ×ν grid: Axis "poshare" columns against
// a GridSpec of "nu" rows.
type GridSpec struct {
	// Axis is one of the Axis* constants, distinct from the sweep's Axis.
	Axis string `json:"axis"`
	// Lo, Hi, Points define an evenly spaced row grid; Values overrides it
	// with an explicit grid. All values must be finite. A "nu" row axis
	// inherits the sweep's OfSaturation scaling.
	Lo     float64   `json:"lo,omitempty"`
	Hi     float64   `json:"hi,omitempty"`
	Points int       `json:"points,omitempty"`
	Values []float64 `json:"values,omitempty"`
	// Refine, when set, declares the adaptive-refinement policy: the grid's
	// cells become the seed of an internal/refine run instead of the final
	// resolution. Absent fields take the refine package defaults, so an
	// empty block {} is valid. Being part of the scenario, the block flows
	// into CanonicalJSON — and therefore into the surrogate's content
	// address — while leaving unrefined scenarios' addresses untouched.
	Refine *RefineSpec `json:"refine,omitempty"`
}

// axisValues materializes an evenly spaced or explicit value grid; explicit
// values win over Lo/Hi/Points.
func axisValues(lo, hi float64, points int, values []float64) []float64 {
	if len(values) > 0 {
		return append([]float64(nil), values...)
	}
	if points <= 0 {
		return nil
	}
	if points == 1 {
		return []float64{lo}
	}
	return numeric.Linspace(lo, hi, points)
}

// XValues returns the sweep's column-axis values (a fresh slice).
func (s SweepSpec) XValues() []float64 {
	return axisValues(s.Lo, s.Hi, s.Points, s.Values)
}

// RowValues returns the row-axis values (a fresh slice).
func (g GridSpec) RowValues() []float64 {
	return axisValues(g.Lo, g.Hi, g.Points, g.Values)
}

func (s SweepSpec) metrics() []string {
	if len(s.Metrics) == 0 {
		return []string{MetricPhi}
	}
	return s.Metrics
}

var validAxes = map[string]bool{
	AxisNu: true, AxisPrice: true, AxisKappa: true, AxisPOShare: true, AxisSigma: true,
}

var validMetrics = map[string]bool{
	MetricPhi: true, MetricPsi: true, MetricShare: true, MetricUtilization: true,
}

var validRegimes = map[string]bool{
	"unregulated": true, "kappa-cap": true, "price-cap": true,
	"neutral": true, "public-option": true,
}

// Validate reports the first specification error, or nil. Run validates
// before solving; call it directly to vet hand-written JSON early.
func (s *Scenario) Validate() error {
	if s.Name == "" {
		return fmt.Errorf("scenario: missing name")
	}
	// Names become registry keys and output filenames: keep them to
	// lower-kebab-case so they are safe in both roles.
	for _, r := range s.Name {
		if (r < 'a' || r > 'z') && (r < '0' || r > '9') && r != '-' {
			return fmt.Errorf("scenario: name %q must be lower-kebab-case ([a-z0-9-])", s.Name)
		}
	}
	if err := s.Population.validate(); err != nil {
		return fmt.Errorf("scenario %q: %w", s.Name, err)
	}
	if err := s.validateSweep(); err != nil {
		return fmt.Errorf("scenario %q: %w", s.Name, err)
	}
	if s.Dynamics != nil {
		if s.Regulation != nil {
			return fmt.Errorf("scenario %q: dynamics simulations declare explicit providers; drop the regulation block", s.Name)
		}
		if err := s.validateProviders(); err != nil {
			return err
		}
		return s.validateDynamics()
	}
	if s.Regulation != nil {
		if len(s.Providers) > 0 {
			return fmt.Errorf("scenario %q: regulation comparisons imply their own market structure; drop the providers list", s.Name)
		}
		if s.Sweep.Axis != AxisNu {
			return fmt.Errorf("scenario %q: regulation comparisons sweep capacity; axis must be %q, got %q", s.Name, AxisNu, s.Sweep.Axis)
		}
		if s.Sweep.Grid != nil {
			return fmt.Errorf("scenario %q: regulation comparisons do not support grid sweeps (each regime re-optimizes per ν)", s.Name)
		}
		if s.Population.Batch > 0 {
			return fmt.Errorf("scenario %q: regulation comparisons do not support batched populations", s.Name)
		}
		for _, r := range s.Regulation.Regimes {
			if !validRegimes[r] {
				return fmt.Errorf("scenario %q: unknown regime %q", s.Name, r)
			}
		}
		return nil
	}
	return s.validateProviders()
}

func (s *Scenario) validateProviders() error {
	if len(s.Providers) == 0 {
		return fmt.Errorf("scenario %q: needs at least one provider (or a regulation block)", s.Name)
	}
	var gammaSum float64
	names := make(map[string]bool, len(s.Providers))
	responders := 0
	for i, p := range s.Providers {
		if p.Name == "" {
			return fmt.Errorf("scenario %q: provider %d has no name", s.Name, i)
		}
		if names[p.Name] {
			return fmt.Errorf("scenario %q: duplicate provider name %q", s.Name, p.Name)
		}
		names[p.Name] = true
		if !(p.Gamma > 0 && p.Gamma <= 1) {
			return fmt.Errorf("scenario %q: provider %q capacity share γ=%g outside (0,1]", s.Name, p.Name, p.Gamma)
		}
		gammaSum += p.Gamma
		if p.Kappa < 0 || p.Kappa > 1 {
			return fmt.Errorf("scenario %q: provider %q κ=%g outside [0,1]", s.Name, p.Name, p.Kappa)
		}
		if p.C < 0 {
			return fmt.Errorf("scenario %q: provider %q price c=%g negative", s.Name, p.Name, p.C)
		}
		if p.Sigma < 0 || p.Sigma > 1 {
			return fmt.Errorf("scenario %q: provider %q rebate σ=%g outside [0,1]", s.Name, p.Name, p.Sigma)
		}
		if p.BestResponse {
			responders++
			if p.PublicOption {
				return fmt.Errorf("scenario %q: provider %q cannot both be the Public Option and best-respond", s.Name, p.Name)
			}
		}
	}
	if diff := gammaSum - 1; diff > 1e-9 || diff < -1e-9 {
		return fmt.Errorf("scenario %q: provider capacity shares sum to %g, want 1", s.Name, gammaSum)
	}
	if responders > 1 {
		return fmt.Errorf("scenario %q: at most one provider may best-respond, got %d", s.Name, responders)
	}
	rebates := false
	for _, p := range s.Providers {
		if p.Sigma > 0 {
			rebates = true
		}
	}
	if (rebates || s.sweepsAxis(AxisSigma)) && (len(s.Providers) != 2 || responders > 0) {
		return fmt.Errorf("scenario %q: revenue rebates need exactly two fixed-strategy providers", s.Name)
	}
	if s.Population.Batch > 0 {
		if s.Sweep.Axis != AxisNu || s.Sweep.Grid != nil {
			return fmt.Errorf("scenario %q: batched populations sweep capacity only (axes %s)", s.Name, s.axisList())
		}
		for _, p := range s.Providers {
			if !p.PublicOption && !(core.Strategy{Kappa: p.Kappa, C: p.C}).Neutral() {
				return fmt.Errorf("scenario %q: batched populations support only neutral providers, %q plays (κ=%g, c=%g)", s.Name, p.Name, p.Kappa, p.C)
			}
			if p.BestResponse || p.Sigma > 0 {
				return fmt.Errorf("scenario %q: batched populations support only fixed neutral providers (%q)", s.Name, p.Name)
			}
		}
	}
	// Axis-specific market-shape constraints apply to every swept axis: the
	// column axis and, for grid scenarios, the row axis.
	axes := []string{s.Sweep.Axis}
	if s.Sweep.Grid != nil {
		axes = append(axes, s.Sweep.Grid.Axis)
	}
	for _, axis := range axes {
		switch axis {
		case AxisPrice, AxisKappa:
			if s.Providers[0].PublicOption {
				return fmt.Errorf("scenario %q: axis %q sweeps the first provider's strategy, but it is the Public Option", s.Name, axis)
			}
			if s.Providers[0].BestResponse {
				return fmt.Errorf("scenario %q: axis %q sweeps the first provider's strategy, but it best-responds (the search would overwrite every sweep point)", s.Name, axis)
			}
		case AxisSigma:
			if len(s.Providers) != 2 {
				return fmt.Errorf("scenario %q: axis %q needs exactly two providers, got %d", s.Name, AxisSigma, len(s.Providers))
			}
		case AxisPOShare:
			if len(s.Providers) != 2 || !s.Providers[1].PublicOption {
				return fmt.Errorf("scenario %q: axis %q needs exactly two providers with the second a Public Option", s.Name, AxisPOShare)
			}
		}
	}
	return nil
}

// IsGrid reports whether the scenario declares a 2-D grid sweep (solve with
// RunGrid) rather than a 1-D sweep (solve with Run).
func (s *Scenario) IsGrid() bool { return s.Sweep.Grid != nil }

func (s *Scenario) validateSweep() error {
	sw := s.Sweep
	// The time axis exists only for dynamics scenarios, whose tick count —
	// not Lo/Hi/Points — defines the value grid.
	if s.Dynamics != nil {
		if sw.Axis != AxisTime {
			return fmt.Errorf("dynamics scenarios sweep simulation time; axis must be %q, got %q", AxisTime, sw.Axis)
		}
		if sw.Points != 0 || len(sw.Values) != 0 {
			return fmt.Errorf("the %q axis takes its grid from dynamics.ticks; drop points/values", AxisTime)
		}
		if sw.Grid != nil {
			return fmt.Errorf("dynamics scenarios do not support grid sweeps (time is the only axis)")
		}
	} else if sw.Axis == AxisTime {
		return fmt.Errorf("the %q axis needs a dynamics block", AxisTime)
	} else if !validAxes[sw.Axis] {
		return fmt.Errorf("unknown sweep axis %q", sw.Axis)
	}
	if s.Dynamics == nil {
		if err := validateAxisGrid(sw.Axis, sw.Lo, sw.Hi, sw.Points, sw.Values); err != nil {
			return err
		}
	}
	if sw.Grid != nil {
		if !validAxes[sw.Grid.Axis] {
			return fmt.Errorf("unknown grid row axis %q", sw.Grid.Axis)
		}
		if sw.Grid.Axis == sw.Axis {
			return fmt.Errorf("grid row axis %q duplicates the sweep axis (a grid needs two distinct axes)", sw.Grid.Axis)
		}
		if err := validateAxisGrid(sw.Grid.Axis, sw.Grid.Lo, sw.Grid.Hi, sw.Grid.Points, sw.Grid.Values); err != nil {
			return fmt.Errorf("grid row axis: %w", err)
		}
		// Refinement needs a 2-D seed: at least two knots per axis.
		if sw.Grid.Refine != nil {
			if len(sw.XValues()) < 2 || len(sw.Grid.RowValues()) < 2 {
				return fmt.Errorf("refine needs at least 2 points per axis to seed the grid")
			}
			if err := sw.Grid.Refine.validate(s.gridLayerNames()); err != nil {
				return err
			}
		}
	}
	seenMetric := make(map[string]bool, len(sw.Metrics))
	for _, m := range sw.metrics() {
		if !validMetrics[m] {
			return fmt.Errorf("unknown metric %q", m)
		}
		if seenMetric[m] {
			return fmt.Errorf("duplicate metric %q (tables are keyed by metric)", m)
		}
		seenMetric[m] = true
	}
	// A fixed per-capita capacity ν is needed exactly when no swept axis
	// supplies it; a zero Nu there is almost always a forgotten field.
	if !s.sweepsAxis(AxisNu) {
		if !(sw.Nu > 0) || math.IsInf(sw.Nu, 0) {
			return fmt.Errorf("axes %s need a finite, positive fixed capacity sweep.nu, got %g", s.axisList(), sw.Nu)
		}
	}
	return nil
}

// sweepsAxis reports whether axis is swept — as the column axis or, for
// grid scenarios, the row axis.
func (s *Scenario) sweepsAxis(axis string) bool {
	if s.Sweep.Axis == axis {
		return true
	}
	return s.Sweep.Grid != nil && s.Sweep.Grid.Axis == axis
}

// axisList renders the swept axes for error messages: `"price"` or
// `"price"×"kappa"` for grids.
func (s *Scenario) axisList() string {
	if s.Sweep.Grid == nil {
		return fmt.Sprintf("%q", s.Sweep.Axis)
	}
	return fmt.Sprintf("%q×%q", s.Sweep.Axis, s.Sweep.Grid.Axis)
}

// validateAxisGrid vets one swept axis' value grid: non-empty, finite,
// ordered bounds, and values inside the axis' model domain (ν > 0,
// γ ∈ (0,1), σ and κ ∈ [0,1], c ≥ 0).
func validateAxisGrid(axis string, lo, hi float64, points int, values []float64) error {
	for _, v := range []float64{lo, hi} {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("axis %q has non-finite bound %g", axis, v)
		}
	}
	grid := axisValues(lo, hi, points, values)
	if len(grid) == 0 {
		return fmt.Errorf("empty sweep grid for axis %q (set points >= 1 or explicit values)", axis)
	}
	if len(values) == 0 && points >= 2 && !(hi > lo) {
		return fmt.Errorf("axis %q needs hi > lo, got [%g, %g]", axis, lo, hi)
	}
	for _, v := range grid {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("axis %q contains non-finite value %g", axis, v)
		}
	}
	switch axis {
	case AxisNu:
		// Capacity must be strictly positive everywhere: a zero-capacity
		// market has no equilibrium worth tabulating.
		for _, v := range grid {
			if !(v > 0) {
				return fmt.Errorf("capacity sweep contains non-positive ν=%g", v)
			}
		}
	case AxisPOShare:
		for _, v := range grid {
			if !(v > 0 && v < 1) {
				return fmt.Errorf("Public Option share sweep value %g outside (0,1)", v)
			}
		}
	case AxisSigma:
		for _, v := range grid {
			if v < 0 || v > 1 {
				return fmt.Errorf("rebate sweep value %g outside [0,1]", v)
			}
		}
	case AxisKappa:
		for _, v := range grid {
			if v < 0 || v > 1 {
				return fmt.Errorf("κ sweep value %g outside [0,1]", v)
			}
		}
	case AxisPrice:
		for _, v := range grid {
			if v < 0 {
				return fmt.Errorf("price sweep value %g negative", v)
			}
		}
	}
	return nil
}

func (p *PopulationSpec) validate() error {
	if p.Batch > 0 && p.Kind != "ensemble" {
		return fmt.Errorf("population kind %q cannot be batched (batching regenerates ensemble draws)", p.Kind)
	}
	switch p.Kind {
	case "paper", "archetypes":
		if len(p.CPs) > 0 {
			return fmt.Errorf("population kind %q does not take explicit cps", p.Kind)
		}
	case "ensemble":
		if p.N < 0 {
			return fmt.Errorf("ensemble population size n=%d negative", p.N)
		}
		if p.Batch < 0 {
			return fmt.Errorf("population batch size %d negative", p.Batch)
		}
		if p.Batch > 0 && p.size() < p.Batch {
			return fmt.Errorf("population batch size %d exceeds ensemble size %d", p.Batch, p.size())
		}
	case "explicit":
		if len(p.CPs) == 0 {
			return fmt.Errorf("explicit population has no CPs")
		}
		for i, cp := range p.CPs {
			if !(cp.Alpha > 0 && cp.Alpha <= 1) {
				return fmt.Errorf("cp %d (%s): popularity α=%g outside (0,1]", i, cp.Name, cp.Alpha)
			}
			if !(cp.ThetaHat > 0) {
				return fmt.Errorf("cp %d (%s): θ̂=%g, want positive", i, cp.Name, cp.ThetaHat)
			}
			if cp.V < 0 || cp.Phi < 0 {
				return fmt.Errorf("cp %d (%s): v=%g, φ=%g must be non-negative", i, cp.Name, cp.V, cp.Phi)
			}
			if _, err := cp.Demand.Curve(); err != nil {
				return fmt.Errorf("cp %d (%s): %w", i, cp.Name, err)
			}
		}
	case "":
		return fmt.Errorf("population kind missing (paper, archetypes, ensemble, or explicit)")
	default:
		return fmt.Errorf("unknown population kind %q", p.Kind)
	}
	switch p.Phi {
	case "", "correlated", "independent":
	default:
		return fmt.Errorf("unknown phi setting %q (correlated or independent)", p.Phi)
	}
	return nil
}

func (p *PopulationSpec) size() int {
	if p.N > 0 {
		return p.N
	}
	return 1000
}

func (p *PopulationSpec) phiSetting() traffic.PhiSetting {
	if p.Phi == "independent" {
		return traffic.PhiIndependent
	}
	return traffic.PhiCorrelated
}

func (p *PopulationSpec) seed() uint64 {
	if p.Seed != 0 {
		return p.Seed
	}
	return traffic.DefaultSeed
}

// ensembleConfig materializes the traffic ensemble configuration with the
// paper's draw ranges where unset.
func (p *PopulationSpec) ensembleConfig() traffic.EnsembleConfig {
	cfg := traffic.PaperEnsemble(p.phiSetting())
	cfg.N = p.size()
	if p.AlphaHi > 0 {
		cfg.AlphaHi = p.AlphaHi
	}
	if p.ThetaHatHi > 0 {
		cfg.ThetaHatHi = p.ThetaHatHi
	}
	if p.VHi > 0 {
		cfg.VHi = p.VHi
	}
	if p.BetaHi > 0 {
		cfg.BetaHi = p.BetaHi
	}
	return cfg
}

// generateEnsemble draws the non-batched random population. The
// independent-φ setting follows the appendix convention of
// traffic.PaperPopulation: the four CP characteristics come from the same
// stream as the correlated setting and φ is redrawn from a separate stream
// (seed+1) — so the CP characteristics match across φ settings, and a
// default-parameter "ensemble" is the "paper" population under either
// setting. (Batched ensembles keep their own per-batch seed streams and
// draw φ inline; they are a distinct, documented scheme.)
func (p *PopulationSpec) generateEnsemble() traffic.Population {
	cfg := p.ensembleConfig()
	if cfg.Phi != traffic.PhiIndependent {
		return cfg.Generate(numeric.NewRNG(p.seed()))
	}
	cfg.Phi = traffic.PhiCorrelated
	pop := cfg.Generate(numeric.NewRNG(p.seed()))
	traffic.RedrawPhiIndependent(pop, p.seed()+1)
	return pop
}

// Materialize builds the in-memory CP population. Batched ensembles are
// handled separately by the runner; Materialize on them returns the full
// population and is intended for tests and small N.
func (p *PopulationSpec) Materialize() (traffic.Population, error) {
	if err := p.validate(); err != nil {
		return nil, err
	}
	switch p.Kind {
	case "paper":
		return traffic.PaperPopulation(p.phiSetting()), nil
	case "archetypes":
		return traffic.Archetypes(), nil
	case "ensemble":
		if p.Batch > 0 {
			return p.materializeBatched()
		}
		return p.generateEnsemble(), nil
	case "explicit":
		pop := make(traffic.Population, len(p.CPs))
		for i, cp := range p.CPs {
			curve, err := cp.Demand.Curve()
			if err != nil {
				return nil, err
			}
			name := cp.Name
			if name == "" {
				name = fmt.Sprintf("cp-%04d", i)
			}
			pop[i] = traffic.CP{
				Name: name, Alpha: cp.Alpha, ThetaHat: cp.ThetaHat,
				V: cp.V, Phi: cp.Phi, Curve: curve,
			}
		}
		if err := pop.Validate(); err != nil {
			return nil, err
		}
		return pop, nil
	}
	return nil, fmt.Errorf("scenario: unknown population kind %q", p.Kind)
}

// JSON renders the scenario as indented JSON.
func (s *Scenario) JSON() ([]byte, error) {
	return json.MarshalIndent(s, "", "  ")
}

// CanonicalJSON renders the scenario in its canonical serialized form:
// compact JSON with struct fields in declaration order and zero-valued
// optional fields omitted. Two scenarios have equal canonical bytes when
// their specifications match field-for-field; this is what
// content-addressed caches (internal/cache) hash to key solved results.
// Note the address is syntactic, not semantic: spelling out a default
// (e.g. "n": 1000 instead of omitting it) changes the bytes, so such a
// scenario re-solves into its own cache entry — a cost, never an error.
func (s *Scenario) CanonicalJSON() ([]byte, error) {
	return json.Marshal(s)
}

// ApplyEnsembleOverrides re-seeds (seed != 0) or re-sizes (n != 0) the
// scenario's random CP population in place — the scenario-level counterpart
// of the -seed/-cps experiment flags. The "paper" population is the default
// ensemble by another name, so overriding it switches the kind to
// "ensemble"; populations with no random draw (archetypes, explicit) reject
// overrides.
func (s *Scenario) ApplyEnsembleOverrides(seed uint64, n int) error {
	if seed == 0 && n == 0 {
		return nil
	}
	if err := s.Population.ApplyEnsembleOverrides(seed, n); err != nil {
		return fmt.Errorf("scenario %q: %w", s.Name, err)
	}
	return s.Validate()
}

// ApplyEnsembleOverrides is the population half of
// Scenario.ApplyEnsembleOverrides: it re-seeds (seed != 0) or re-sizes
// (n != 0) a "paper" or "ensemble" population in place, switching "paper"
// to "ensemble".
func (p *PopulationSpec) ApplyEnsembleOverrides(seed uint64, n int) error {
	if seed == 0 && n == 0 {
		return nil
	}
	switch p.Kind {
	case "paper":
		p.Kind = "ensemble"
	case "ensemble":
	default:
		return fmt.Errorf("population kind %q has no ensemble seed or size to override", p.Kind)
	}
	if seed != 0 {
		p.Seed = seed
	}
	if n != 0 {
		if n < 0 {
			return fmt.Errorf("ensemble size override %d is negative", n)
		}
		p.N = n
	}
	return nil
}

// Load parses a scenario from JSON and validates it.
func Load(r io.Reader) (*Scenario, error) {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	var s Scenario
	if err := dec.Decode(&s); err != nil {
		return nil, fmt.Errorf("scenario: parsing JSON: %w", err)
	}
	if err := s.Validate(); err != nil {
		return nil, err
	}
	return &s, nil
}

// LoadString is Load over a string, convenient for tests and examples.
func LoadString(js string) (*Scenario, error) {
	return Load(strings.NewReader(js))
}
