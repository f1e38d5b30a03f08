package repro.baselines

import repro.core.{Measures, Tokenizer}
import repro.join.{LocalJoin, Pebbles}

/** Reimplementation of AdaptJoin [53] (Wang et al., SIGMOD 2012):
  * gram-based similarity join with the adaptive ℓ-prefix scheme.
  *
  * For whole-string q-gram Jaccard ≥ θ, two gram sets must overlap by
  * ≥ ⌈θ·|G(S)|⌉ grams, so the ℓ-prefix of length
  * |G| − ⌈θ·|G|⌉ + ℓ (grams sorted rarest-first) guarantees ≥ ℓ common
  * prefix grams between similar strings when either needs ℓ in common
  * (two shorter ones also meet on 1-prefixes). Larger ℓ → longer prefixes
  * but fewer candidates; AdaptJoin picks ℓ by a cost estimate. We pick
  * one global ℓ by estimating candidates on a sample (the original
  * picks per-string; the global variant keeps the same trade-off, see
  * DESIGN.md §4).
  */
object AdaptJoin {

  /** The baseline's similarity: gram Jaccard on the whole string. */
  def sim(s: String, t: String, q: Int = Measures.DefaultQ): Double =
    Measures.jaccard(s.trim.toLowerCase, t.trim.toLowerCase, q)

  /** The string's q-grams, distinct, in first-occurrence order. */
  private def grams(s: String, q: Int): Vector[String] =
    Tokenizer.qgramOccurrences(s.trim.toLowerCase, q).distinct

  /** Global rarest-first gram order of a collection. */
  def gramOrder(strings: Iterable[String], q: Int): Map[String, Int] =
    Pebbles.keyOrder(strings.iterator.map(grams(_, q)))

  /** ℓ-prefix of a string: the ranks of its first |G| − ⌈θ|G|⌉ + ℓ
    * grams, rarest first, as a sorted distinct array.
    */
  def prefix(s: String, theta: Double, ell: Int, order: Map[String, Int], q: Int): Array[Int] = {
    val ranks = Pebbles.ranksOf(grams(s, q), order).sorted
    val len = math.max(0, ranks.length - math.ceil(theta * ranks.length).toInt + ell)
    ranks.take(len).distinct
  }

  private def candidates(
      strings: IndexedSeq[String],
      theta: Double,
      ell: Int,
      order: Map[String, Int],
      q: Int,
  ): Vector[(Int, Int)] = {
    val prefixes = strings.map(prefix(_, theta, ell, order, q))
    val found = LocalJoin.filterStage(prefixes, prefixes, tau = ell, selfJoin = true)._2
    // A similar pair shares o ≥ ⌈θ·|G|⌉ grams of each string, and the
    // ℓ-prefixes guarantee ℓ of them only when o ≥ ℓ; strings with
    // ⌈θ·|G|⌉ < ℓ (whole-set prefixes) also meet each other on 1-prefixes.
    val short = strings.indices.filter(i => math.ceil(theta * grams(strings(i), q).length).toInt < ell)
    val ones = short.map(i => prefix(strings(i), theta, 1, order, q))
    val more = LocalJoin.filterStage(ones, ones, tau = 1, selfJoin = true)._2
      .map { case (a, b) => (short(a), short(b)) }
    if (more.isEmpty) found else (found ++ more).distinct.sorted
  }

  /** Choose the global ℓ minimising estimated cost on a sample. */
  def chooseEll(
      strings: IndexedSeq[String],
      theta: Double,
      order: Map[String, Int],
      q: Int,
      maxEll: Int = 4,
      sampleSize: Int = 300,
  ): Int = {
    val sample = strings.take(sampleSize)
    (1 to maxEll).minBy { ell =>
      val prefLen = sample.iterator.map(s => prefix(s, theta, ell, order, q).size.toLong).sum
      val cand = candidates(sample, theta, ell, order, q).size.toLong
      // filtering cost ∝ index size, verification cost ∝ candidates
      prefLen + 50L * cand
    }
  }

  /** Self-join: pairs with whole-string gram Jaccard ≥ θ. */
  def join(
      strings: IndexedSeq[String],
      theta: Double,
      q: Int = Measures.DefaultQ,
  ): Vector[(Int, Int, Double)] = {
    val order = gramOrder(strings, q)
    val ell = chooseEll(strings, theta, order, q)
    candidates(strings, theta, ell, order, q).flatMap { case (i, j) =>
      val x = sim(strings(i), strings(j), q)
      if (x >= LocalJoin.minSim(theta)) Some((i, j, x)) else None
    }
  }
}
