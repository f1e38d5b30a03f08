package repro.join

import org.scalatest.funsuite.AnyFunSuite
import org.scalacheck.Gen
import repro.PropHelpers
import repro.core._
import repro.data.TextGen

/** Brute-force cross-checks of the AS / TW machinery against the
  * definitions (Def 4, Eqs 7-8) computed naively.
  */
class SignatureInternalsSpec extends AnyFunSuite with PropHelpers {
  val gctx: TextGen.GenContext = TextGen.context(TextGen.MedLite)

  private def naiveAs(ctx: SignatureContext, i: Int): Double = {
    // Def 4: sum over segments of max over measures of the weight mass
    // of that (segment, measure)'s pebbles at positions >= i.
    val byGroup = ctx.pebbles.zipWithIndex.groupBy { case (p, _) => (p.segIdx, p.measure) }
    val perSeg = byGroup.toSeq
      .map { case ((seg, _), xs) =>
        seg -> xs.collect { case (p, idx) if idx + 1 >= i => p.weight }.sum
      }
      .groupBy(_._1)
      .view
      .mapValues(_.map(_._2).max)
    perSeg.values.sum
  }

  private def randomCtx(seed: Long): SignatureContext = {
    val rng = new scala.util.Random(seed)
    val cls = Seq("S", "J", "T", "JS", "TS", "TJ", "TJS")(rng.nextInt(7))
    val (s, _, _) = TextGen.plantPair(gctx, cls, rng)
    SignatureContext(PreparedString(gctx.knowledge, s), MeasureSet.TJS, 2, Map.empty)
  }

  test("property: AS(i) matches the naive Def-4 computation at every i") {
    check(Gen.choose(0L, 500L), n = 25) { seed =>
      val c = randomCtx(seed)
      for (i <- 1 to c.n + 1)
        assert(math.abs(c.as(i) - naiveAs(c, i)) < 1e-9, s"seed $seed i=$i")
    }
  }

  test("property: U-Filter boundary is exactly the Lemma-1 stopping index") {
    check(Gen.choose(0L, 500L), n = 25) { seed =>
      val c = randomCtx(seed)
      for (theta <- Seq(0.7, 0.85)) {
        val i = c.uFilter(theta)
        val bound = c.m * theta - 1e-9
        if (i >= 1) assert(c.as(i) >= bound)
        if (i < c.n) assert(c.as(i + 1) < bound)
        if (i == 0) assert(c.n == 0 || c.as(1) < bound)
      }
    }
  }

  test("property: heuristic boundary satisfies Inequality (10) exactly") {
    check(Gen.choose(0L, 500L), n = 25) { seed =>
      val c = randomCtx(seed)
      val tau = 3
      for (theta <- Seq(0.7, 0.85)) {
        val i = c.auHeuristic(theta, tau)
        val bound = c.m * theta - 1e-9
        def tw(p: Int): Double =
          c.pebbles.take(p).map(_.weight).sorted.reverse.take(tau - 1).sum
        if (i >= 1) assert(c.as(i) + tw(i - 1) >= bound, s"seed $seed θ=$theta at i")
        if (i < c.n && i >= 0) assert(c.as(i + 1) + tw(i) < bound, s"seed $seed θ=$theta at i+1")
      }
    }
  }

  test("property: DP boundary never exceeds the heuristic boundary") {
    check(Gen.choose(500L, 900L), n = 25) { seed =>
      val c = randomCtx(seed)
      for (theta <- Seq(0.7, 0.9); tau <- Seq(2, 4))
        assert(c.auDp(theta, tau) <= c.auHeuristic(theta, tau))
    }
  }

  /** Algorithm 5 transcribed from Eqs (12–14): every boundary i rebuilds
    * W_i/V_i from scratch, taking each group's suffix mass and its sorted
    * top-c prefix weights directly.
    */
  private def referenceAuDp(ctx: SignatureContext, theta: Double, tau: Int): Int = {
    val bound = ctx.m * theta - 1e-9
    val groups: Map[(Int, Char), (Array[Int], Array[Double])] =
      ctx.pebbles.zipWithIndex
        .groupBy { case (p, _) => (p.segIdx, p.measure) }
        .view.mapValues(xs => (xs.map(_._2 + 1).toArray, xs.map(_._1.weight).toArray)).toMap
    def suffix(g: (Int, Char), i: Int): Double = {
      val (pos, w) = groups(g)
      var s = 0.0
      var idx = pos.length - 1
      while (idx >= 0 && pos(idx) >= i) { s += w(idx); idx -= 1 }
      s
    }
    def prefixTop(g: (Int, Char), i: Int, c: Int): Double = {
      val (pos, w) = groups(g)
      val inPrefix = pos.indices.takeWhile(pos(_) < i).map(w).sorted.reverse
      inPrefix.take(c).foldLeft(0.0)(_ + _)
    }
    def reaches(i: Int): Boolean = {
      val prev = new Array[Double](tau)
      val cur = new Array[Double](tau)
      for (segId <- ctx.segments.indices) {
        val ms = groups.keys.filter(_._1 == segId).toSeq
        val v = Array.tabulate(tau)(c => ms.map(g => suffix(g, i) + prefixTop(g, i, c)).foldLeft(0.0)(math.max))
        val r0 = v(0)
        for (c <- 0 until tau) v(c) -= r0
        for (d <- 1 until tau) {
          cur(d) = (0 to d).map(c => prev(d - c) + v(c)).foldLeft(0.0)(math.max)
          if (ctx.as(i) + cur(d) >= bound) return true
        }
        System.arraycopy(cur, 0, prev, 0, tau)
      }
      false
    }
    (ctx.n to 1 by -1).find(i => ctx.as(i) >= bound || reaches(i)).getOrElse(0)
  }

  test("property: AU-DP returns exactly the Eqs (12-14) boundary") {
    for (kind <- Seq(TextGen.MedLite, TextGen.WikiLite); seed <- Seq(3L, 4L)) {
      val ctx = TextGen.context(kind, seed)
      val strings = TextGen.joinDataset(ctx, n = 60, seed = seed).strings
      for (ms <- Seq(MeasureSet.TJS, MeasureSet.TS)) {
        val order = LocalJoin.buildOrder(ctx.knowledge, strings, ms, 2)
        for (s <- strings) {
          val c = SignatureContext(PreparedString(ctx.knowledge, s), ms, 2, order)
          for (theta <- Seq(0.6, 0.8, 0.9, 1.0); tau <- Seq(2, 3, 4, 6, 8))
            assert(c.auDp(theta, tau) == referenceAuDp(c, theta, tau),
              s"${kind.name} seed $seed θ=$theta τ=$tau: $s")
        }
      }
    }
  }

  test("frequency order demotes common pebbles out of tight signatures") {
    // two strings sharing a frequent filler token; with a frequency order
    // the filler's gram pebbles sort late and are dropped first.
    val strings = Vector.fill(8)("zzfiller unique" + scala.util.Random.nextInt()) :+
      "zzfiller rareword"
    val order = LocalJoin.buildOrder(gctx.knowledge, strings, MeasureSet.J, 2)
    // grams of "zzfiller" occur in all 9 strings — they must rank last
    val fillerRank = order("g:zz")
    val rareRank = order("g:ra")
    assert(fillerRank > rareRank)
  }

  test("signature of a string is stable across repeated context builds") {
    val c1 = SignatureContext(PreparedString(gctx.knowledge, "alpha beta gamma"),
      MeasureSet.TJS, Measures.DefaultQ, Map.empty)
    val c2 = SignatureContext(PreparedString(gctx.knowledge, "alpha beta gamma"),
      MeasureSet.TJS, Measures.DefaultQ, Map.empty)
    assert(c1.pebbles == c2.pebbles)
    assert(c1.select(SigAlgo.AUDp, 0.8, 3).toSeq == c2.select(SigAlgo.AUDp, 0.8, 3).toSeq)
  }
}
