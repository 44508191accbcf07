package adjstream

import (
	"errors"
	"fmt"
)

// Sentinel errors of the public API. Every error returned by the facade
// wraps exactly one of these, so callers dispatch with errors.Is instead of
// matching message strings — the CLIs map them to exit codes and the
// adjserved service maps them to HTTP statuses.
var (
	// ErrUnknownAlgorithm reports an Options.Algorithm that names no
	// estimator (see Algorithms for the roster).
	ErrUnknownAlgorithm = errors.New("adjstream: unknown algorithm")
	// ErrInvalidOptions reports structurally invalid Options — conflicting
	// or out-of-range fields — or a configuration an estimator constructor
	// rejects (e.g. neither SampleSize nor SampleProb for a sampling
	// algorithm).
	ErrInvalidOptions = errors.New("adjstream: invalid options")
	// ErrCanceled reports a run abandoned because its context fired. It
	// wraps the context's error, so errors.Is(err, context.Canceled) and
	// errors.Is(err, context.DeadlineExceeded) also discriminate the cause.
	ErrCanceled = errors.New("adjstream: run canceled")
)

// canceled wraps a context error in ErrCanceled; both sentinels (ErrCanceled
// and cause — context.Canceled or context.DeadlineExceeded) match errors.Is.
func canceled(cause error) error {
	return fmt.Errorf("%w: %w", ErrCanceled, cause)
}

// Validate checks the structural validity of o: the algorithm and driver
// are known, at most one of Copies/Confidence is set, and every numeric
// field is in range. It does not check the per-algorithm budget rules
// (exactly one of SampleSize/SampleProb, etc.) — those belong to the
// estimator constructors and surface as ErrInvalidOptions from NewEstimator
// and EstimateContext. A nil return guarantees the option plumbing itself
// cannot fail.
func (o Options) Validate() error {
	var arbAlg bool
	switch o.Algorithm {
	case "":
		return fmt.Errorf("%w: Algorithm is required", ErrInvalidOptions)
	case AlgoTwoPassTriangle, AlgoThreePassTriangle, AlgoNaiveTwoPass,
		AlgoOnePassTriangle, AlgoWedgeSampler, AlgoTwoPassFourCycle,
		AlgoAdaptiveTriangle, AlgoExact:
	case AlgoArbTwoPassWedge, AlgoArbBuriol,
		AlgoArbThreePassFourCycle, AlgoArbNearOptFourCycle:
		arbAlg = true
	default:
		return fmt.Errorf("%w %q", ErrUnknownAlgorithm, o.Algorithm)
	}
	switch o.Model {
	case "", ModelAdjacencyList:
		if arbAlg {
			return fmt.Errorf("%w: algorithm %q requires Model %q", ErrInvalidOptions, o.Algorithm, ModelArbitrary)
		}
	case ModelArbitrary:
		if !arbAlg {
			return fmt.Errorf("%w: algorithm %q requires Model %q", ErrInvalidOptions, o.Algorithm, ModelAdjacencyList)
		}
		if o.Driver != "" {
			return fmt.Errorf("%w: drivers traverse adjacency-list streams; leave Driver empty for Model %q", ErrInvalidOptions, ModelArbitrary)
		}
	default:
		return fmt.Errorf("%w: unknown model %q", ErrInvalidOptions, o.Model)
	}
	if o.Driver != "" && o.Driver != DriverBroadcast {
		return fmt.Errorf("%w: unknown driver %q (want %q or empty)", ErrInvalidOptions, o.Driver, DriverBroadcast)
	}
	if o.Copies > 0 && o.Confidence > 0 {
		return fmt.Errorf("%w: set at most one of Copies and Confidence", ErrInvalidOptions)
	}
	if o.Copies < 0 {
		return fmt.Errorf("%w: negative Copies %d", ErrInvalidOptions, o.Copies)
	}
	if o.Confidence != 0 && (o.Confidence < 0 || o.Confidence >= 1) {
		return fmt.Errorf("%w: Confidence %v must be in (0,1)", ErrInvalidOptions, o.Confidence)
	}
	if o.SampleSize < 0 {
		return fmt.Errorf("%w: negative SampleSize %d", ErrInvalidOptions, o.SampleSize)
	}
	if o.SampleProb < 0 || o.SampleProb > 1 {
		return fmt.Errorf("%w: SampleProb %v must be in [0,1]", ErrInvalidOptions, o.SampleProb)
	}
	if o.PairCap < 0 {
		return fmt.Errorf("%w: negative PairCap %d", ErrInvalidOptions, o.PairCap)
	}
	if o.CycleLen != 0 && o.CycleLen < 3 {
		return fmt.Errorf("%w: CycleLen %d < 3", ErrInvalidOptions, o.CycleLen)
	}
	return nil
}
