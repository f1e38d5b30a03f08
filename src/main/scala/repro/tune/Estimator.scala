package repro.tune

/** Online mean/variance over i.i.d. estimates — the paper's Eqs (20–21),
  * which are exactly Welford's recurrences:
  *   µ̂(n)  = µ̂(n−1) + (x − µ̂(n−1))/n
  *   σ̂²(n) = (n−2)/(n−1)·σ̂²(n−1) + n·(µ̂(n) − µ̂(n−1))²
  */
final class OnlineStats {
  private var _n = 0
  private var _mean = 0.0
  private var _var = 0.0

  def add(x: Double): Unit = {
    _n += 1
    val prevMean = _mean
    _mean = prevMean + (x - prevMean) / _n
    _var =
      if (_n == 1) 0.0
      else (_n - 2).toDouble / (_n - 1) * _var + _n * (_mean - prevMean) * (_mean - prevMean)
  }

  def n: Int = _n
  def mean: Double = _mean
  /** Sample variance of the underlying estimator (unbiased, n ≥ 2). */
  def variance: Double = if (_n < 2) 0.0 else _var
  /** Variance of the running mean: σ̂²/n (CLT, Eqs 18–19). */
  def meanVariance: Double = if (_n < 2) 0.0 else _var / _n
}

/** The independent Bernoulli estimator of Eq (17): scale a sampled
  * count by 1/(p_s·p_t) to estimate the full-data count, unbiased.
  */
object BernoulliEstimator {
  def scale(sampled: Double, ps: Double, pt: Double): Double = {
    require(ps > 0 && pt > 0, "sampling probabilities must be positive")
    sampled / (ps * pt)
  }
}
