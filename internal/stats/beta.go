// Package stats provides the statistical machinery PLASMA-HD depends on:
// Beta posteriors for BayesLSH inference (regularized incomplete beta
// function), simple linear regression for graph-growth prediction, and
// descriptive statistics and error metrics used across the experiment
// harness.
//
// Every product that feeds an add or a subtract is rounded explicitly,
// s += float64(a * b), so no architecture fuses the two into one
// multiply-add and the Beta tails, bounds and fits come out bit for bit
// the same everywhere; make lint fails on a fused multiply-add in the
// arm64 build.
package stats

import (
	"errors"
	"math"
)

// ErrDomain is returned when a function argument is outside its domain.
var ErrDomain = errors.New("stats: argument out of domain")

// RegIncBeta computes the regularized incomplete beta function I_x(a, b)
// using the continued-fraction expansion (Lentz's method). It is the CDF of
// the Beta(a, b) distribution evaluated at x.
func RegIncBeta(x, a, b float64) float64 {
	switch {
	case x <= 0:
		return 0
	case x >= 1:
		return 1
	case a <= 0 || b <= 0:
		return math.NaN()
	}
	// Prefactor x^a (1-x)^b / (a B(a,b)) in log space for stability.
	lbeta, _ := math.Lgamma(a + b)
	la, _ := math.Lgamma(a)
	lb, _ := math.Lgamma(b)
	front := math.Exp(lbeta - la - lb + float64(a*math.Log(x)) + float64(b*math.Log(1-x)))
	// Use the symmetry relation to keep the continued fraction convergent.
	if x < (a+1)/(a+b+2) {
		return front * betacf(x, a, b) / a
	}
	return 1 - front*betacf(1-x, b, a)/b
}

// betacf evaluates the continued fraction for the incomplete beta function.
func betacf(x, a, b float64) float64 {
	const (
		maxIter = 300
		eps     = 3e-14
		fpmin   = 1e-300
	)
	qab := a + b
	qap := a + 1
	qam := a - 1
	c := 1.0
	d := 1 - qab*x/qap
	if math.Abs(d) < fpmin {
		d = fpmin
	}
	d = 1 / d
	h := d
	for m := 1; m <= maxIter; m++ {
		m2 := float64(2 * m)
		fm := float64(m)
		aa := fm * (b - fm) * x / ((qam + m2) * (a + m2))
		d = 1 + float64(aa*d)
		if math.Abs(d) < fpmin {
			d = fpmin
		}
		c = 1 + aa/c
		if math.Abs(c) < fpmin {
			c = fpmin
		}
		d = 1 / d
		h *= d * c
		aa = -(a + fm) * (qab + fm) * x / ((a + m2) * (qap + m2))
		d = 1 + float64(aa*d)
		if math.Abs(d) < fpmin {
			d = fpmin
		}
		c = 1 + aa/c
		if math.Abs(c) < fpmin {
			c = fpmin
		}
		d = 1 / d
		del := float64(d * c)
		h *= del
		if math.Abs(del-1) < eps {
			break
		}
	}
	return h
}

// Beta is a Beta(Alpha, BetaP) distribution. In BayesLSH it is the posterior
// over a pair's hash-collision probability after observing matches.
type Beta struct {
	Alpha, BetaP float64
}

// NewBetaPosterior returns the posterior over a Bernoulli success probability
// after observing m successes in n trials under a uniform Beta(1,1) prior.
func NewBetaPosterior(m, n int) Beta {
	return Beta{Alpha: float64(m) + 1, BetaP: float64(n-m) + 1}
}

// CDF returns P(P <= x).
func (d Beta) CDF(x float64) float64 { return RegIncBeta(x, d.Alpha, d.BetaP) }

// Tail returns P(P >= x), the quantity thresholded by BayesLSH Eq 2.1.
func (d Beta) Tail(x float64) float64 { return 1 - d.CDF(x) }

// Mean returns the posterior mean alpha/(alpha+beta).
func (d Beta) Mean() float64 { return d.Alpha / (d.Alpha + d.BetaP) }

// MAP returns the posterior mode (alpha-1)/(alpha+beta-2); for the uniform
// prior this is the empirical match fraction m/n. When the mode is undefined
// (alpha or beta < 1) the mean is returned.
func (d Beta) MAP() float64 {
	if d.Alpha < 1 || d.BetaP < 1 || d.Alpha+d.BetaP == 2 {
		return d.Mean()
	}
	return (d.Alpha - 1) / (d.Alpha + d.BetaP - 2)
}
